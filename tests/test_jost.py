from __future__ import annotations

import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab import jost
from scatterlab.jost import ODE_ATOL, ODE_RTOL, compute_h_bound, compute_h_pair, unfold
from scatterlab.potentials import Potential, TailBound, catalog, cutoff_for_eta, load_sampled
from scatterlab.scattering import classify_resonance

import oracles

XS = np.array([-3.0, -1.2, 0.0, 0.7, 2.5])
KS = np.array([-7.5, -2.0, -0.3, 0.0, 0.3, 2.0, 7.5, 40.0])


def _side(pair, side):
    """The field of one side from compute_h_pair's (h₊ field, h₋ field)."""
    return pair[0] if side > 0 else pair[1]


def test_free_is_exact():
    for jf in compute_h_pair(catalog("free"), XS, KS):
        assert np.max(np.abs(jf.h - 1.0)) < 1e-14
        assert np.max(np.abs(jf.h_prime)) < 1e-14


def test_pt_closed_form_both_sides():
    pt = catalog("poeschl_teller")
    pair = compute_h_pair(pt, XS, KS)
    for side, h_ref, hp_ref in (
        (+1, oracles.pt_h_plus, oracles.pt_hprime_plus),
        (-1, oracles.pt_h_minus, oracles.pt_hprime_minus),
    ):
        jf = _side(pair, side)
        H = h_ref(XS[:, None], KS[None, :])
        HP = hp_ref(XS[:, None], KS[None, :])
        assert np.max(np.abs(unfold(jf.h, jf.k_grid, KS) - H)) < 1e-8
        assert np.max(np.abs(unfold(jf.h_prime, jf.k_grid, KS) - HP)) < 1e-8


def test_square_well_breakpoints():
    sw = catalog("square_well")
    ks = np.array([0.4, 1.3, 5.0])
    jf = compute_h_pair(sw, XS, ks)[0]
    for j, k in enumerate(ks):
        f_ref, fp_ref = oracles.square_well_f_plus(np.pi**2 / 4, 1.0, XS, k)
        f, fp = oracles.jost_f(jf, XS[2])  # x = 0
        assert abs(f[j] - f_ref[2]) < 1e-9
        assert abs(fp[j] - fp_ref[2]) < 1e-9
        f, fp = oracles.jost_f(jf, XS[0])  # x = -3, past the left edge
        assert abs(f[j] - f_ref[0]) < 1e-9
        assert abs(fp[j] - fp_ref[0]) < 1e-9


def _direct(pot, ks, side):
    """h, h′ on XS with every k, negative ones too, integrated as given
    (compute_h_pair integrates |k| only), by the one-sided Magnus march."""
    x_inf = jost._cutoff(pot, XS, side)
    h, hp, _, _ = jost._inward(pot, XS, ks, side, ODE_RTOL, ODE_ATOL, x_inf)
    return h, hp


def test_square_well_exact_per_step():
    # V is constant between the breakpoints, where every step ends, so each
    # Magnus step is the exact map; f′ ~ k f carries the roundoff of k
    sw = catalog("square_well")
    ks = np.array([0.4, 1.3, 5.0, 40.0])
    jf = compute_h_pair(sw, XS, ks)[0]
    for j, k in enumerate(ks):
        f_ref, fp_ref = oracles.square_well_f_plus(np.pi**2 / 4, 1.0, XS, k)
        for i, x in enumerate(XS):
            f, fp = oracles.jost_f(jf, x)
            assert abs(f[j] - f_ref[i]) < 1e-13
            assert abs(fp[j] - fp_ref[i]) < 1e-13 * max(1.0, k)


def test_error_estimate_covers_pt_error():
    pt = catalog("poeschl_teller")
    xs = np.linspace(-8.0, 8.0, 33)
    ks = np.linspace(-60.0, 60.0, 481)
    pair = compute_h_pair(pt, xs, ks)
    for side, ref in ((+1, oracles.pt_h_plus), (-1, oracles.pt_h_minus)):
        jf = _side(pair, side)
        err = np.max(np.abs(unfold(jf.h, jf.k_grid, ks) - ref(xs[:, None], ks[None, :])))
        assert err < 2e-10
        assert err <= jf.report.error_estimate < 1e-7


def _power_tail():
    # |V| <= (1+|x|)^-4 puts the cutoff past x = 1000
    tail = TailBound("power", 0.0, 0.5, 4.0)
    return Potential("power_tail", lambda x: -0.5 * (1.0 + np.abs(np.asarray(x, float))) ** -4, tail)


def test_power_tail_integrates():
    pot = _power_tail()
    ks = np.array([0.0, 0.7, 3.0])
    jf = compute_h_pair(pot, XS, ks)[0]
    assert jf.report.cutoff > 1000.0
    assert jf.report.bands[0][2] < 20000
    for j, k in enumerate(ks):
        h, hp = oracles.jost_h_dop853(pot, (), jf.report.cutoff, XS, k, +1)
        assert np.max(np.abs(jf.h[:, j] - h)) < 1e-10
        assert np.max(np.abs(jf.h_prime[:, j] - hp)) < 1e-10


def _asymmetric_well():
    x = np.linspace(-6.0, 6.0, 49)
    return load_sampled(x, -1.5 * np.exp(-((x - 0.7) ** 2)) + 0.8 * np.exp(-3.0 * (x + 1.3) ** 2)), x


@pytest.mark.parametrize("name,tol", [("asymmetric_well", 1e-9), ("power_tail", 1e-10)])
def test_both_sides_match_dop853_off_mirror(name, tol):
    # every catalog potential is even, so there h₋ is the mirror of h₊; on
    # these two it is not, and h₋ composed from the march of Φ from +X₊
    # meets DOP853 from −X₋ as h₊ does from +X₊.  DOP853 restarts where V
    # is not smooth: at the spline knots (V‴ jumps; without the restarts
    # the oracle itself is off by 2e-9) and at the kink of the power tail
    pot, kinks = _asymmetric_well() if name == "asymmetric_well" else (_power_tail(), [0.0])
    ks = np.array([0.0, 0.01, 0.7, 3.0, 20.0])
    for side, jf in zip((+1, -1), compute_h_pair(pot, XS, ks)):
        for j, k in enumerate(ks):
            h, hp = oracles.jost_h_dop853(pot, kinks, jf.report.cutoff, XS, k, side)
            assert np.max(np.abs(jf.h[:, j] - h)) < tol
            assert np.max(np.abs(jf.h_prime[:, j] - hp)) < tol * max(1.0, k)


def test_witness_sees_a_perturbed_end_matrix(monkeypatch):
    # h₋ is composed from Φ(−X₋); scaling that matrix's first entry by
    # 1 + 1e-6 leaves h₋ a solution, so the Wronskian stays constant across
    # the rows, but the one-sided march on the sampled k sees the gap
    pt = catalog("poeschl_teller")
    ks = np.linspace(-20.0, 20.0, 161)
    _, jm = compute_h_pair(pt, XS, ks)
    assert jm.report.error_estimate < 1e-8
    start = jost._minus_start
    monkeypatch.setattr(
        jost, "_minus_start", lambda end, ik, k2: start((end[0] * (1.0 + 1e-6), *end[1:]), ik, k2)
    )
    _, jm = compute_h_pair(pt, XS, ks)
    assert jm.report.error_estimate > 1e-7


_BAD_INPUT = [
    ("pair", dict(x_grid=[]), "x_grid"),
    ("pair", dict(x_grid=[0.0, np.nan]), "x_grid"),
    ("pair", dict(x_grid=[0.0, np.inf]), "x_grid"),
    ("pair", dict(k_grid=[]), "k_grid"),
    ("pair", dict(k_grid=[0.5, np.nan]), "k_grid"),
    ("pair", dict(k_grid=[0.5, -np.inf]), "k_grid"),
    ("bound", dict(x_grid=[]), "x_grid"),
    ("bound", dict(x_grid=[np.nan]), "x_grid"),
    ("bound", dict(x_grid=[-np.inf, 0.0]), "x_grid"),
    ("bound", dict(kappas=[]), "kappas"),
    ("bound", dict(kappas=[np.nan]), "kappas"),
    ("bound", dict(kappas=[0.5, -1.0]), "kappas"),
    ("bound", dict(side=2), "side"),
]


@pytest.mark.parametrize("entry,bad,name", _BAD_INPUT)
def test_entry_points_reject_bad_input(entry, bad, name, monkeypatch):
    # a bad grid, κ or side raises a ValueError that names it, before any march
    def no_march(*args, **kwargs):
        raise AssertionError("a march ran")

    monkeypatch.setattr(jost, "_step_sequence", no_march)
    pt = catalog("poeschl_teller")
    if entry == "pair":
        args = dict(x_grid=[0.0, 1.0], k_grid=[0.0, 0.5]) | bad
        call = lambda: compute_h_pair(pt, args["x_grid"], args["k_grid"])  # noqa: E731
    else:
        args = dict(x_grid=[0.0, 1.0], kappas=[0.5], side=+1) | bad
        call = lambda: compute_h_bound(pt, args["x_grid"], args["kappas"], args["side"])  # noqa: E731
    with pytest.raises(ValueError, match=name):
        call()


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(["poeschl_teller", "square_well", "gaussian_well"]),
    side=st.sampled_from([+1, -1]),
    k=st.floats(0.0, 20.0),
    kappa=st.floats(0.0, 2.0),
)
def test_magnus_matches_dop853(name, side, k, kappa):
    pot = catalog(name)
    x_inf = jost._cutoff(pot, XS, side)
    jf = _side(compute_h_pair(pot, XS, [k]), side)
    h, hp = oracles.jost_h_dop853(pot, pot.breakpoints, x_inf, XS, k, side)
    assert np.max(np.abs(jf.h[:, 0] - h)) < 1e-9
    assert np.max(np.abs(jf.h_prime[:, 0] - hp)) < 1e-9 * max(1.0, k)
    hb, hbp = compute_h_bound(pot, XS, [kappa], side)
    h, hp = oracles.jost_h_dop853(pot, pot.breakpoints, x_inf, XS, 1j * kappa, side)
    scale = max(1.0, float(np.max(np.abs(h))))  # h(·, iκ) grows like e^{2κ|x|} past 0
    assert np.max(np.abs(hb[:, 0] - h)) < 1e-9 * scale
    assert np.max(np.abs(hbp[:, 0] - hp)) < 1e-9 * scale * max(1.0, kappa)


def test_conjugation_folding_matches_direct_integration():
    pt = catalog("poeschl_teller")
    ks = np.array([-4.0, -1.0, -0.2, 0.3, 2.2])
    a = compute_h_pair(pt, XS, ks)[0]
    h, hp = _direct(pt, ks, +1)
    assert np.max(np.abs(unfold(a.h, a.k_grid, ks) - h)) < 1e-12
    assert np.max(np.abs(unfold(a.h_prime, a.k_grid, ks) - hp)) < 1e-12


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(["poeschl_teller", "square_well", "gaussian_well"]),
    side=st.sampled_from([+1, -1]),
    ks=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4, unique=True),
)
def test_conjugation_symmetry_unfolded(name, side, ks):
    # h(x,−k) = conj h(x,k) for real V, as an honest check: both signs of k
    # are integrated
    ks = np.array(ks)
    h, hp = _direct(catalog(name), np.concatenate([-ks, ks]), side)
    n = ks.size
    assert np.max(np.abs(h[:, :n] - np.conj(h[:, n:]))) < 1e-12
    assert np.max(np.abs(hp[:, :n] - np.conj(hp[:, n:]))) < 1e-12


def test_unfold_needs_every_abs_k_on_the_field():
    jf = compute_h_pair(catalog("poeschl_teller"), XS, KS)[0]
    assert np.array_equal(unfold(jf.h, jf.k_grid, -jf.k_grid), np.conj(jf.h))
    for ks in ([0.3, -0.31], [41.0]):
        with pytest.raises(ValueError, match="not a node"):
            unfold(jf.h, jf.k_grid, ks)


def test_bound_state_h():
    pt = catalog("poeschl_teller")
    xg = np.linspace(-4, 4, 33)
    h, hp = compute_h_bound(pt, xg, [1.0], +1)
    ref = 0.5 * (1.0 + np.tanh(xg))
    assert np.max(np.abs(h[:, 0] - ref)) < 1e-9
    assert np.max(np.abs(hp[:, 0] - 0.5 / np.cosh(xg) ** 2)) < 1e-9


def test_jost_at_zero_real():
    pt = catalog("poeschl_teller")
    xg = np.linspace(-3, 3, 25)
    h, hp = compute_h_bound(pt, xg, [0.0], +1)  # k = 0 is the case κ = 0
    h = h[:, 0]
    assert np.max(np.abs(h - np.tanh(xg))) < 1e-9
    assert h.dtype == np.float64


def test_classify_resonance_pt():
    rep = classify_resonance(catalog("poeschl_teller"))
    assert rep.resonant
    assert abs(rep.w0) < 1e-9
    assert rep.gamma == pytest.approx(-1.0, abs=1e-8)
    assert rep.gamma_consistency < 1e-8


def test_classify_resonance_nonresonant():
    rep = classify_resonance(catalog("gaussian_well"))
    assert not rep.resonant
    assert abs(rep.w0) > 1e3 * rep.threshold


def test_classify_resonance_breakpoints_on_rows():
    # a = 1.1 puts the breakpoints ±1.1 on nodes of the rows γ is fitted on
    a = 1.1
    rep = classify_resonance(catalog("square_well", a=a, v0=(np.pi / (2 * a)) ** 2))
    assert rep.resonant


def test_zero_energy_state_pt():
    # on the sech² and the square well: f₀ = c₊h₊(·,0) with c₊² = 2/(1+γ²)
    # gives |f₀(X)|² + |f₀(−X)|² = 2 at the cutoff X, and h±(·,0) meet their
    # Volterra equations, a form the Magnus integrator never uses
    for name in ("poeschl_teller", "square_well"):
        pot = catalog(name)
        c2 = 2.0 / (1.0 + classify_resonance(pot).gamma ** 2)
        X = cutoff_for_eta(pot, 1e-10)
        h = compute_h_pair(pot, [-X, X], [0.0])[0].h[:, 0].real
        assert abs(c2 * (h[0] ** 2 + h[1] ** 2) - 2.0) < 1e-8
        # step-0.01 samples on ±max(X, 6), one piece between breakpoints
        half = max(X, 6.0)
        ends = [-half, *(b for b in pot.breakpoints if abs(b) < half), half]
        xs = [np.linspace(a, b, int(round((b - a) / 0.01)) + 1) for a, b in zip(ends, ends[1:])]
        vs = [pot(np.clip(x, x[0] + 1e-9, x[-1] - 1e-9)) for x in xs]  # one-sided at the ends
        xg = np.unique(np.concatenate(xs))
        pair = compute_h_pair(pot, xg, [0.0])
        for side in (+1, -1):
            h0 = _side(pair, side).h[:, 0].real
            pieces = [(x, v, h0[np.searchsorted(xg, x)]) for x, v in zip(xs, vs)]
            assert oracles.volterra_residual(pieces, side) < 1e-7


def test_zero_energy_state_free(free_pd):
    assert classify_resonance(catalog("free")).gamma == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(free_pd.f0_x - 1.0)) < 1e-12  # f₀ ≡ 1 on the line


def test_band_report():
    pt = catalog("poeschl_teller")
    jf = compute_h_pair(pt, XS, np.linspace(-20, 20, 81))[0]
    lows = [b[0] for b in jf.report.bands]
    assert lows == sorted(lows)
    assert all(nfev > 0 for _, _, nfev in jf.report.bands)
    assert 0.0 < jf.report.error_estimate < 1e-8


def test_threaded_march_equals_one_thread(monkeypatch):
    # the k grid is split between threads that write disjoint columns; with
    # more threads than cores and a short switch interval the result is
    # still bit for bit the one-thread result
    import sys

    pt = catalog("poeschl_teller")
    ks = np.linspace(-20.0, 20.0, 301)
    monkeypatch.setattr(jost, "_PARALLEL_K", 1)
    monkeypatch.setattr(jost, "_WORKERS", 1)
    ones = compute_h_pair(pt, XS, ks)
    monkeypatch.setattr(jost, "_WORKERS", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        manys = compute_h_pair(pt, XS, ks)
    finally:
        sys.setswitchinterval(interval)
    for one, many in zip(ones, manys):
        assert np.array_equal(one.h, many.h) and np.array_equal(one.h_prime, many.h_prime)
        assert one.report == many.report


def test_compute_h_keeps_only_its_march_output():
    # both sides of the default decay grid, exactly mirrored: each field
    # holds the 12 001 |k| marched, h and h′ are views of the march output,
    # and besides it only the march's working set is allocated (the working
    # arrays of each thread's block of steps, which do not grow with the
    # grid, and the one-sided witness on 64 k).  Measured 1.21 × the
    # returned bytes; one side of the two-march design read 1.40 ×, and
    # with full-line copies of h and h′ gathered from a march over both
    # halves' |k| it was 2.2 ×
    kp = np.linspace(0.0, 60.0, 12001)
    ks = np.concatenate([-kp[:0:-1], kp])
    pt = catalog("poeschl_teller")
    tracemalloc.start()
    try:
        pair = compute_h_pair(pt, np.linspace(-8.0, 8.0, 65), ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for jf in pair:
        assert jf.h.shape == jf.h_prime.shape == (65, 12001)
        assert np.array_equal(jf.k_grid, kp) and jf.h.base is jf.h_prime.base
    assert peak <= 1.5 * sum(jf.h.nbytes + jf.h_prime.nbytes for jf in pair)


@pytest.mark.parametrize("chunk", [30, 40, 6 * 82])
def test_ragged_chunks_are_bit_exact(chunk, monkeypatch):
    # chunking changes no arithmetic.  With a small _CHUNK each march reuses
    # its working arrays over many chunks of steps and views them short on
    # the last one: at 6·82 each chunk of the pair march holds 6 steps of
    # 41 |k| and 41 samples; at 30 and 40 its 82 columns exceed _CHUNK, so
    # each chunk is one step as wide as all of them.  A k block of one |k|
    # (the 41st at 40, when the march split k into blocks of _CHUNK) moved
    # h by an ulp: numpy's in-place complex multiply rounds a length-1
    # array differently.
    ks = np.linspace(-20.0, 20.0, 81)
    kappas = [0.0, 0.4, 1.0, 2.5]

    def marches():
        return [
            (compute_h_pair(pot, XS, ks), [compute_h_bound(pot, XS, kappas, side) for side in (+1, -1)])
            for pot in (catalog("poeschl_teller"), catalog("square_well"))
        ]

    default = marches()
    monkeypatch.setattr(jost, "_CHUNK", chunk)
    for (pair, bound), (pair_c, bound_c) in zip(default, marches()):
        for jf, jc in zip(pair, pair_c):
            assert np.array_equal(jf.h, jc.h) and np.array_equal(jf.h_prime, jc.h_prime)
            assert jf.report == jc.report
        for (h, hp), (hc, hpc) in zip(bound, bound_c):
            assert np.array_equal(h, hc) and np.array_equal(hp, hpc)


def test_compute_h_pair_does_not_refault_its_memory():
    # each march thread allocates its working arrays once for all its
    # chunks of steps.  Made anew per chunk, they were handed back to the
    # system and faulted in again every time: a first call on the default
    # decay grid took 640 291 minor page faults then, and 4 792 with the
    # arrays kept, against 12 188 pages of returned arrays
    kp = np.linspace(0.0, 60.0, 12001)
    ks = np.concatenate([-kp[:0:-1], kp])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pair = compute_h_pair(catalog("poeschl_teller"), np.linspace(-8.0, 8.0, 65), ks)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    pages = sum(jf.h.nbytes + jf.h_prime.nbytes for jf in pair) / resource.getpagesize()
    assert faults <= 2.0 * pages
