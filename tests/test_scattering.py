from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from scatterlab.errors import CrossCheckError
from scatterlab import scattering
from scatterlab.jost import compute_h_bound, compute_h_pair, unfold
from scatterlab.potentials import catalog, scale_potential
from scatterlab.propagator import prepare_propagator
from scatterlab.scattering import (
    bound_states,
    classify_resonance,
    scattering_data,
    scattering_matrix,
    wronskians,
)

import oracles


def test_wronskian_free(free_scatter):
    sd, _, _ = free_scatter
    assert np.max(np.abs(sd.W - 2j * sd.k_grid)) < 1e-12
    assert np.max(np.abs(sd.W_plus)) < 1e-12
    assert np.max(np.abs(sd.W_minus)) < 1e-12
    assert np.max(np.abs(sd.T - 1.0)) < 1e-12
    assert np.max(np.abs(sd.R_plus)) < 1e-12


def test_wronskian_pt(pt_scatter):
    sd, _, _ = pt_scatter
    k = sd.k_grid
    nz = k != 0
    assert np.max(np.abs(sd.W[nz] - oracles.pt_wronskian(k[nz]))) < 1e-8
    assert np.max(np.abs(sd.W_plus)) < 1e-8
    assert sd.wronskian_spread < 1e-7


def test_pt_transmission(pt_scatter):
    sd, _, _ = pt_scatter
    k = sd.k_grid
    nz = k != 0
    assert np.max(np.abs(sd.T[nz] - oracles.pt_transmission(k[nz]))) < 1e-8
    assert np.max(np.abs(sd.R_plus)) < 1e-8
    assert np.max(np.abs(sd.R_minus)) < 1e-8
    i0 = int(np.where(k == 0)[0][0])
    assert abs(sd.T[i0] + 1.0) < 1e-8  # T(0) = −1 from γ = −1
    assert abs(sd.T[-1] - 1.0) < 2.5 / 30  # T → 1 like 2/k at the grid edge


def test_square_well_oracle(sw_scatter):
    sd, _, _ = sw_scatter
    k = sd.k_grid
    nz = k != 0
    T, Rp, Rm = oracles.square_well_scattering(np.pi**2 / 4, 1.0, k[nz])
    assert np.max(np.abs(sd.T[nz] - T)) < 1e-8
    assert np.max(np.abs(sd.R_plus[nz] - Rp)) < 1e-8
    assert np.max(np.abs(sd.R_minus[nz] - Rm)) < 1e-8
    i0 = int(np.where(k == 0)[0][0])
    assert abs(sd.T[i0]) > 0.9  # resonant well transmits at threshold


def test_unitarity_all_catalog(pt_scatter, sw_scatter, gw_scatter, free_scatter):
    for sd, _, _ in (pt_scatter, sw_scatter, gw_scatter, free_scatter):
        assert float(np.max(sd.unitarity_residual)) < 1e-6
        off = sd.T * np.conj(sd.R_plus) + np.conj(sd.T) * sd.R_minus
        assert float(np.max(np.abs(off))) < 1e-6


def test_scattering_relation(pt_scatter, sw_scatter, gw_scatter):
    # T f₊ = R₋ f₋ + f₋(·,−k) sampled at x ∈ {−3, 0, 3}
    for sd, jp, jm in (pt_scatter, sw_scatter, gw_scatter):
        for x in (-3.0, 0.0, 3.0):
            fp = unfold(oracles.jost_f(jp, x)[0], jp.k_grid, sd.k_grid)
            fm = unfold(oracles.jost_f(jm, x)[0], jm.k_grid, sd.k_grid)
            res = sd.T * fp - sd.R_minus * fm - np.conj(fm)
            assert float(np.max(np.abs(res))) < 1e-6


def test_wronskian_checked_on_every_row(pt_pot, monkeypatch):
    # h′₊ shifted on the x = 1 row, outside {−2, 0, 2}: the constancy check
    # reads every row the fields hold, so the pipeline raises
    real = scattering.compute_h_pair
    calls = []

    def corrupt_first(pot, x_grid, k_grid, **kwargs):
        jp, jm = real(pot, x_grid, k_grid, **kwargs)
        if not calls:
            jp.h_prime[jp.x_index(1.0)] += 1e-3
        calls.append(x_grid)
        return jp, jm

    monkeypatch.setattr(scattering, "compute_h_pair", corrupt_first)
    k = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(CrossCheckError, match="Wronskian"):
        scattering_data(pt_pot, k, extra_x=[-2.0, -1.0, 0.0, 1.0, 2.0], with_bound_states=False)


def test_k_grid_rule_runs_before_any_solve(pt_pot, monkeypatch):
    # a shifted grid and a symmetric non-uniform one both fail the one
    # k-grid rule before a Jost field is integrated
    def no_solve(*args, **kwargs):
        raise AssertionError("compute_h_pair ran")

    monkeypatch.setattr(scattering, "compute_h_pair", no_solve)
    g = np.geomspace(0.1, 5.0, 100)
    for k in (np.linspace(-5.0, 5.0, 201) + 0.01, np.concatenate([-g[::-1], [0.0], g])):
        with pytest.raises(ValueError, match="k grid"):
            scattering_data(pt_pot, k)


def test_classify_catalog():
    pt = classify_resonance(catalog("poeschl_teller"))
    assert pt.resonant and not pt.ambiguous
    assert pt.gamma == pytest.approx(-1.0, abs=1e-8)
    assert pt.T0 == pytest.approx(-1.0, abs=1e-8)
    assert abs(pt.R0_plus) < 1e-8
    assert pt.limit_consistency < 1e-4

    sw = classify_resonance(catalog("square_well"))
    assert sw.resonant and not sw.ambiguous
    assert sw.gamma == pytest.approx(-1.0, abs=1e-6)
    assert sw.limit_consistency < 1e-4

    fr = classify_resonance(catalog("free"))
    assert fr.resonant
    assert fr.gamma == pytest.approx(1.0, abs=1e-12)
    assert fr.T0 == pytest.approx(1.0)

    gw = classify_resonance(catalog("gaussian_well"))
    assert not gw.resonant and not gw.ambiguous
    assert gw.T0 == 0.0
    assert gw.R0_plus == pytest.approx(-1.0)
    assert gw.limit_consistency < 1e-3  # k→0 extrapolation of computed data


@settings(max_examples=8, deadline=None)
@given(a=st.floats(0.9, 1.2))
def test_threshold_square_wells_classify_resonant(a):
    # √v₀·a = π/2: the odd zero-energy solution is bounded, f₊(·,0) = −f₋(·,0)
    rep = classify_resonance(catalog("square_well", a=a, v0=(np.pi / (2.0 * a)) ** 2))
    assert rep.resonant and not rep.ambiguous
    assert abs(rep.gamma + 1.0) < 1e-8
    assert rep.limit_consistency <= 1e-4


@settings(max_examples=8, deadline=None)
@given(
    a=st.floats(0.9, 1.2),
    z=st.floats(0.05, np.pi - 0.05).filter(lambda z: abs(z - 0.5 * np.pi) >= 0.05),
)
def test_off_threshold_square_wells_classify_nonresonant(a, z):
    # the well resonates where √v₀·a = nπ/2 (the odd zero mode at (n+½)π,
    # the even one at nπ); z = √v₀·a stays 0.05 away from π/2 and π
    rep = classify_resonance(catalog("square_well", a=a, v0=(z / a) ** 2))
    assert not rep.resonant and not rep.ambiguous


def test_near_zero_k_node_is_set_to_zero(pt_pot):
    # linspace(−5, 5, 155) leaves its middle node at −8.9e-16; T, R± there
    # must come from the resonance report (the sech² well: T(0) = −1, R±(0)
    # = 0), not from 2ik/W, and the propagator keeps the exact node
    k = np.linspace(-5.0, 5.0, 155)
    assert k[77] != 0.0
    sd, jp, _ = scattering_data(pt_pot, k, with_bound_states=False)
    assert sd.k_grid[77] == 0.0 and jp.k_grid[0] == 0.0
    assert abs(sd.T[77] + 1.0) < 1e-8
    assert abs(sd.R_plus[77]) < 1e-8 and abs(sd.R_minus[77]) < 1e-8
    pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 17), k)
    assert pd.k_grid[77] == 0.0 and pd.T[77] == pd.sd.resonance.T0


def test_mirrored_grid_marches_each_abs_k_once(pt_wiener):
    # pt_wiener is scattering_data on linspace(−60, 60, 24001), whose mirror
    # pairs differ by up to 1.4e-14: the grid comes back exactly mirrored,
    # each side marches its 12 001 nodes k >= 0, and the data mirror exactly
    sd, jp, jm = pt_wiener
    k = sd.k_grid
    c = k.size // 2
    assert k.size == 24001 and np.array_equal(k[:c], -k[:c:-1]) and k[c] == 0.0
    for jf in (jp, jm):
        assert jf.h.shape[1] == jf.h_prime.shape[1] == 12001
        assert np.array_equal(jf.k_grid, k[c:])
    for v in (sd.T, sd.W, sd.W_plus, sd.W_minus, sd.R_plus, sd.R_minus):
        assert np.array_equal(v[:c], np.conj(v[:c:-1]))


def test_resonant_k0_needs_data(gw_pot):
    # non-resonant: the direct ratio at k = 0, with T(0) exactly 0
    ks = np.array([-0.4, 0.0, 0.4])
    jp, jm = compute_h_pair(gw_pot, [-2.0, 0.0, 2.0], ks)
    w, wp, wm = (unfold(v, jp.k_grid, ks) for v in wronskians(jp, jm)[:3])
    sd = scattering_matrix(w, (wp, wm), ks, resonance=classify_resonance(gw_pot))
    assert sd.T[1] == 0.0
    assert sd.R_plus[1] == pytest.approx(-1.0, abs=1e-6)


def test_unexplained_zero_wronskian_raises(gw_pot):
    # W(0) = 0 on the grid contradicts a non-resonant report
    rep = classify_resonance(gw_pot)
    assert not rep.resonant
    ks = np.array([-0.4, 0.0, 0.4])
    jp, jm = compute_h_pair(gw_pot, [0.0], ks)
    w, wp, wm = (unfold(v, jp.k_grid, ks) for v in wronskians(jp, jm)[:3])
    w[1] = 0.0
    with pytest.raises(CrossCheckError):
        scattering_matrix(w, (wp, wm), ks, resonance=rep)


def test_bound_states_pt():
    states = bound_states(catalog("poeschl_teller"))
    assert len(states) == 1
    st = states[0]
    kappa, energy, _, c_ref = oracles.pt_bound_state()
    assert st.kappa == pytest.approx(kappa, abs=1e-8)
    assert st.energy == pytest.approx(energy, abs=1e-8)
    assert st.c_plus == pytest.approx(c_ref, abs=1e-6)
    assert st.c_minus == pytest.approx(c_ref, abs=1e-6)  # even state


def test_bound_states_square_well():
    # the threshold well still binds its even ground state; only the odd
    # state sits at zero energy
    states = bound_states(catalog("square_well"))
    ref = oracles.square_well_bound_states(np.pi**2 / 4, 1.0)
    assert len(states) == len(ref) == 1
    assert states[0].kappa == pytest.approx(ref[0], abs=1e-8)


def test_bound_states_gaussian_fd_crosscheck():
    gw = catalog("gaussian_well")
    states = bound_states(gw)
    assert len(states) == 1
    st = states[0]
    # independent route: finite differences + tridiagonal eigensolver
    L, n = 80.0, 16001
    xg = np.linspace(-L, L, n)
    dx = xg[1] - xg[0]
    diag = 2.0 / dx**2 + gw(xg)
    off = -np.ones(n - 1) / dx**2
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)
    kappa_fd = float(np.sqrt(-vals[0]))
    assert st.kappa == pytest.approx(kappa_fd, abs=1e-4)


def test_bound_states_free_empty():
    assert bound_states(catalog("free")) == ()


def test_bound_state_below_the_kappa_floor():
    # gaussian_well(depth=1e-4) binds one state at κ ≈ ½∫|V| ≈ 8.86e-5, below
    # the log brackets' 1e-4: W(0) > 0 > W(i·1e-4) brackets it.  Reference:
    # the root of W(iκ) from DOP853 Jost factors at x = 0.  At the default
    # tolerances h′±(0, iκ) is off by 2.3e-12, which moves κ by 2.6e-8
    # relative; at rtol 1e-13 the Jost factors, not the search, set κ's error
    gw = catalog("gaussian_well", depth=1e-4)
    default = bound_states(gw)
    states = bound_states(gw, rtol=1e-13, atol=1e-15)
    assert len(default) == len(states) == 1

    def w_ref(kappa):
        hp, hpp = oracles.jost_h_dop853(gw, (), 8.0, [0.0], 1j * kappa, +1, atol=1e-16)
        hm, hmp = oracles.jost_h_dop853(gw, (), 8.0, [0.0], 1j * kappa, -1, atol=1e-16)
        return float((-2.0 * kappa * hp * hm + hm * hpp - hmp * hp)[0].real)

    kappa_ref = brentq(w_ref, 1e-6, 1e-4, xtol=1e-18, rtol=1e-15)
    assert states[0].kappa == pytest.approx(kappa_ref, rel=1e-9)
    assert default[0].kappa == pytest.approx(kappa_ref, rel=1e-7)
    assert states[0].kappa < scattering._KAPPA_MIN


def _sw_constants(v0):
    return [(k, cp, cm) for k, _, cp, cm in oracles.square_well_eigenstates(v0, 1.0)]


@pytest.mark.parametrize(
    "pot, ref",
    [
        (catalog("poeschl_teller"), [(1.0, np.sqrt(2.0), np.sqrt(2.0))]),
        (scale_potential(catalog("poeschl_teller"), 3.0), oracles.pt_l2_norming_constants()),
        (catalog("square_well"), _sw_constants(np.pi**2 / 4)),
        (catalog("square_well", v0=30.0, a=1.0), _sw_constants(30.0)),
        # deep states sit close together: the dW/dκ step follows their gaps
        (catalog("square_well", v0=400.0, a=1.0), _sw_constants(400.0)),
    ],
    ids=["pt", "pt_l2", "sw", "sw_v0_30", "sw_v0_400"],
)
def test_norming_constants_match_closed_forms(pot, ref):
    # ‖f₊‖² = −βẆ/(2κ) at x = 0; odd states have c₋ = −c₊
    states = bound_states(pot)
    assert [b.kappa for b in states] == pytest.approx([r[0] for r in ref], abs=1e-8)
    for b, (_, c_plus, c_minus) in zip(states, ref):
        assert b.c_plus == pytest.approx(c_plus, rel=1e-9)
        assert b.c_minus == pytest.approx(c_minus, rel=1e-9)


@pytest.mark.parametrize("v0", [30.0, 100.0, 400.0, 2000.0])
def test_bound_states_deep_square_well_all_found(v0):
    # 4, 7, 13 and 29 states; neighbouring κ of deep states share a bracket
    # of the log grid, which the Sturm node count splits
    ref = oracles.square_well_bound_states(v0, 1.0)
    kappas = [b.kappa for b in bound_states(catalog("square_well", v0=v0, a=1.0))]
    assert len(kappas) == len(ref)
    assert np.max(np.abs(np.array(kappas) - ref)) < 1e-8


def test_bound_state_search_reads_jost_at_zero_and_one_count_grid(monkeypatch):
    # W(iκ) and dW/dκ at x = 0, plus one Sturm count of h₊ on a grid; no
    # eigenfunction grids
    calls = []

    def recording(pot, x_grid, kappas, side, **kw):
        calls.append((np.asarray(x_grid, float), side))
        return compute_h_bound(pot, x_grid, kappas, side, **kw)

    monkeypatch.setattr(scattering, "compute_h_bound", recording)
    assert len(bound_states(catalog("poeschl_teller"))) == 1
    grids = [(x, side) for x, side in calls if not np.array_equal(x, [0.0])]
    assert len(grids) == 1 and grids[0][1] == +1
    x = grids[0][0]
    assert x[0] == -x[-1] and x.size > 2
    assert len(calls) == 17  # 2 on the bracket grid, 12 in 6 refinement rounds, 1 count, 2 for dW/dκ


def test_bound_state_refinement_reads_w_once_per_round(monkeypatch):
    # the 13 roots of the v0 = 400 well are refined together: each round
    # reads W(iκ) at every bracket still open in one call
    calls = []
    w_at_ikappa = scattering._w_at_ikappa

    def recording(pot, kappas, rtol, atol):
        calls.append(len(kappas))
        return w_at_ikappa(pot, kappas, rtol, atol)

    monkeypatch.setattr(scattering, "_w_at_ikappa", recording)
    kappas = [b.kappa for b in bound_states(catalog("square_well", v0=400.0, a=1.0))]
    ref = oracles.square_well_bound_states(400.0, 1.0)
    assert len(kappas) == len(ref) == 13
    assert np.max(np.abs(np.array(kappas) - ref)) < 1e-13
    assert len(calls) <= 40


def test_bound_state_roots_still_bracketed_raise(monkeypatch):
    # one round leaves the bracket open: a root the rounds cannot close raises
    monkeypatch.setattr(scattering, "_REFINE_ROUNDS", 1)
    with pytest.raises(CrossCheckError, match="still bracketed after 1 rounds"):
        bound_states(catalog("square_well"))


def test_bound_state_with_no_positive_norm_raises(monkeypatch):
    # ‖f₊‖² = −βẆ/(2κ) must be positive: flip the sign of Ẇ
    derivative = scattering._derivative
    monkeypatch.setattr(scattering, "_derivative", lambda f, h: -derivative(f, h))
    with pytest.raises(CrossCheckError, match="κ = 1.26294"):
        bound_states(catalog("square_well"))


def test_bound_state_brackets_that_stay_crowded_raise(monkeypatch):
    # node counts that drop by 2 across every new bracket never settle
    calls = []

    def counts(pot, kappas, *args):
        calls.append(kappas.size)
        if len(calls) == 1:
            return 2 * np.arange(kappas.size)[::-1]
        return np.full(kappas.size, 10**6)  # far above both neighbours

    monkeypatch.setattr(scattering, "_node_counts", counts)
    with pytest.raises(CrossCheckError, match="crowded"):
        bound_states(catalog("square_well"))


@settings(max_examples=6, deadline=None)
@given(v0=st.floats(0.5, 300.0), a=st.floats(0.1, 3.0))
def test_bound_states_square_well_property(v0, a):
    ref = oracles.square_well_bound_states(v0, a)
    kappas = [b.kappa for b in bound_states(catalog("square_well", v0=v0, a=a))]
    assert len(kappas) == len(ref)
    assert np.max(np.abs(np.array(kappas) - ref), initial=0.0) < 1e-8
