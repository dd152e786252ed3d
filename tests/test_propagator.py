from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from scatterlab import oscquad, scattering
from scatterlab.errors import ResonanceError
from scatterlab.jost import unfold
from scatterlab.oscquad import full_line_integral
from scatterlab.potentials import catalog
from scatterlab.propagator import (
    pac_kernel,
    pac_slices,
    prepare_propagator,
    s_field,
    s_growth_fit,
    threshold_projection_residual,
)

import oracles


@pytest.fixture(scope="module")
def pt_slice7(pt_pd):
    return pac_slices(pt_pd, [7.0])[0]


@pytest.fixture(scope="module")
def free_slice3(free_pd):
    return pac_slices(free_pd, [3.0])[0]


@pytest.fixture(scope="module")
def pt_pd_coarse(pt_pot):
    """x step 1 on [−8, 8] and K = 5: the tail bound needs 2tK > 16."""
    return prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 17), np.linspace(-5.0, 5.0, 201))


def _line(pd, rows):
    """k >= 0 rows of pd on the grid nodes of the whole line."""
    c = pd.k_grid.size // 2
    return unfold(rows, pd.k_grid[c:], pd.k_grid)


def _heat_kernel(x, y, t):
    return np.exp(1j * (y - x) ** 2 / (4.0 * t)) / np.sqrt(4j * np.pi * t)


# ---------------------------------------------------------------- free line


def test_free_pac_matches_heat_kernel(free_pd):
    for x, y, t in ((0.0, 0.0, 1.0), (-2.0, 3.5, 5.0), (1.25, 7.0, 400.0)):
        val, err = pac_kernel(free_pd, x, y, t)
        assert abs(val - _heat_kernel(x, y, t)) < 1e-12
        assert 0.0 <= err < 1e-12


def test_free_slice_exact(free_slice3):
    ks = free_slice3
    exact = _heat_kernel(ks.x_grid[:, None], ks.y_grid[None, :], ks.t)
    assert np.max(np.abs(ks.pac - exact)) < 1e-12
    assert np.max(ks.quadrature_error) < 1e-12
    assert np.max(np.abs(ks.G - (ks.pac - ks.p0_term))) == 0.0


def test_free_threshold_state(free_pd):
    assert free_pd.resonant
    assert np.max(np.abs(free_pd.f0_x - 1.0)) < 1e-10


# ----------------------------------------------------- evolution kernel (pac)


def test_pt_pac_against_panel_quadrature(pt_pd):
    # closed-form amplitude, brute-force oscillatory panels, shared k window
    x, y, t = 1.0, 2.0, 5.0
    b = y - x

    def integrand(k):
        amp = (
            oracles.pt_h_plus(y, k) * oracles.pt_h_minus(x, k) * oracles.pt_transmission(k)
            - 1.0
        )
        return np.exp(-1j * (t * k * k - b * k)) * amp

    rem = oracles.osc_integral(integrand, -60.0, 60.0, 2 * t * 60.0 + b)
    ref = (full_line_integral(t, b) + rem) / (2.0 * np.pi)
    assert abs(pac_kernel(pt_pd, x, y, t)[0] - ref) < 1e-9


def _sw_f_plus_row(v0, a, x, k):
    """f₊ for the square well at one position, vectorised over real k ≠ 0."""
    k = np.asarray(k, dtype=complex)
    kt = np.sqrt(k**2 + v0)
    A = np.exp(1j * k * a) * (1.0 + k / kt) / 2.0 * np.exp(-1j * kt * a)
    B = np.exp(1j * k * a) * (1.0 - k / kt) / 2.0 * np.exp(1j * kt * a)
    if x >= a:
        return np.exp(1j * k * x)
    if x > -a:
        return A * np.exp(1j * kt * x) + B * np.exp(-1j * kt * x)
    Fm = A * np.exp(-1j * kt * a) + B * np.exp(1j * kt * a)
    Fmp = 1j * kt * (A * np.exp(-1j * kt * a) - B * np.exp(1j * kt * a))
    C = np.exp(1j * k * a) * (Fm + Fmp / (1j * k)) / 2.0
    D = np.exp(-1j * k * a) * (Fm - Fmp / (1j * k)) / 2.0
    return C * np.exp(1j * k * x) + D * np.exp(-1j * k * x)


def test_sw_pac_against_panel_quadrature(sw_pd):
    v0, a = np.pi**2 / 4.0, 1.0
    x, y, t = 0.25, 1.75, 12.0
    b = y - x

    def integrand(k):
        T = oracles.square_well_scattering(v0, a, k)[0]
        fp = _sw_f_plus_row(v0, a, y, k)
        fm = _sw_f_plus_row(v0, a, -x, k)  # even well: f₋(x) = f₊(−x)
        return np.exp(-1j * (t * k * k - b * k)) * (np.exp(-1j * k * b) * fp * fm * T - 1.0)

    rem = oracles.osc_integral(integrand, -60.0, 60.0, 2 * t * 60.0 + b)
    ref = (full_line_integral(t, b) + rem) / (2.0 * np.pi)
    assert abs(pac_kernel(sw_pd, x, y, t)[0] - ref) < 1e-9


def test_slice_matches_pairwise(pt_pd, pt_slice7):
    ks = pt_slice7
    for x, y in ((-3.0, 1.25), (0.0, 0.0), (2.5, 7.75), (-8.0, 8.0)):
        i, j = pt_pd.x_index(x), pt_pd.x_index(y)
        assert abs(ks.pac[i, j] - pac_kernel(pt_pd, x, y, 7.0)[0]) < 1e-9
    assert np.array_equal(ks.pac, ks.pac.T)
    assert np.all(ks.quadrature_error >= 0.0)
    assert np.max(np.abs(ks.G - (ks.pac - ks.p0_term))) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(1.0, 40.0),
    i=st.integers(0, 16),
    j=st.integers(0, 16),
)
@example(t=1.0, i=0, j=16)
@example(t=1.6, i=0, j=16)
def test_slice_error_estimate_is_honest(pt_pd_coarse, t, i, j):
    # one rule for slices and pairs: raise where the tail bound does not
    # hold, else a finite nonnegative estimate shared by both paths
    pd = pt_pd_coarse
    x, y = float(pd.x_grid[i]), float(pd.x_grid[j])
    if 10.0 * t <= 16.0:
        with pytest.raises(ValueError):
            pac_slices(pd, [t])
        return
    qerr = pac_slices(pd, [t])[0].quadrature_error
    assert np.all(np.isfinite(qerr))
    assert np.all(qerr >= 0.0)
    assert abs(qerr[i, j] - pac_kernel(pd, x, y, t)[1]) <= 1e-13


def test_g_kernel_error_estimate_covers_truth(free_pd, pt_pd):
    # free line: G = pac − f₀(x)f₀(y)/√(4πit) with f₀ = 1 is known exactly,
    # so the estimate must cover the error of the pair value
    assert pac_kernel(pt_pd, 1.0, 2.0, 5.0)[1] > 0.0
    vf, ef = pac_kernel(free_pd, -2.0, 3.5, 5.0)
    i, j = free_pd.x_index(-2.0), free_pd.x_index(3.5)
    g = vf - free_pd.f0_x[i] * free_pd.f0_x[j] / np.sqrt(20j * np.pi)
    exact = _heat_kernel(-2.0, 3.5, 5.0) - 1.0 / np.sqrt(20j * np.pi)
    assert abs(g - exact) < max(ef, 1e-12)


@pytest.mark.parametrize(
    "name,k_max,k_count,stride",
    [
        pytest.param(name, k_max, k_count, 1, id=name + suffix)
        for k_max, k_count, suffix in ((20.0, 2001, ""), (60.0, 201, "-coarse_k"))
        for name in ("poeschl_teller", "square_well", "gaussian_well")
    ]
    + [pytest.param("poeschl_teller", 5.0, 4001, 8, id="poeschl_teller-anchored")],
)
def test_slices_match_reference_rule(name, k_max, k_count, stride):
    # the folded, restricted, k-blocked rule on per-time tables against the
    # plain one: three direct weight vectors per time, one product per time
    # and level, whole line.  On the coarse k grid (K = 60, 201 nodes) tσ²
    # = 0.0056·t, so t = 10, 100, 1000 pass _BETA_MAX: their tables sit on
    # the node set refined 2, 4 and 16 times and are restricted back, while
    # the reference takes the erf closed form there; t = 1, 2.5 are at level 0.
    # On the other grids every diagonal is its own anchor; on the anchored
    # one (x step 0.5, k step 0.0025) the diagonals share the weights at
    # the multiple of 8·0.5 nearest their separation, b₀ = 0, 4 and 8, and
    # the reference puts e^{i(b−b₀)k} on the whole line's amplitude
    pd = prepare_propagator(catalog(name), np.linspace(-4.0, 4.0, 17), np.linspace(-k_max, k_max, k_count))
    ts = np.array([1.0, 2.5, 10.0, 100.0, 1000.0])
    ref_pac, ref_err = oracles.pac_slices_reference(
        _line(pd, pd.hp), _line(pd, pd.hm), pd.T, pd.k_grid, 0.5, ts, oracles.fresnel_weights,
        stride,
    )
    for ks, rp, re in zip(pac_slices(pd, ts), ref_pac, ref_err):
        assert np.max(np.abs(ks.pac - rp)) <= 1e-12 * np.max(np.abs(rp))
        assert np.max(np.abs(ks.quadrature_error - re) / re) <= 1e-5


# max |G − exact| over the default grid per default time, unweighted and
# with the decay norm's weights (1+|x|)^−2(1+|y|)^−2, as measured with one
# weight set per diagonal (no anchors)
_PT_G_ERRORS = [
    (8.8350e-06, 8.9183e-07), (5.8125e-06, 5.8677e-07), (3.8241e-06, 3.8606e-07),
    (2.5160e-06, 2.5400e-07), (1.6553e-06, 1.6711e-07), (1.0891e-06, 1.0995e-07),
    (7.1655e-07, 7.2341e-08), (4.7143e-07, 4.7594e-08), (3.1021e-07, 3.1312e-08),
    (2.0409e-07, 2.0588e-08), (1.3462e-07, 1.3608e-08), (8.8332e-08, 8.9195e-09),
]


def test_anchored_slices_keep_pt_accuracy(pt_pd):
    # on the default grid the diagonals share the weights of 9 anchors,
    # 2.0 apart; against the closed-form G at the decay stage's 12 times
    # the estimate covers every pair with |b| >= 10 (worst ratio 0.997),
    # both max errors stay within 5% of one weight set per diagonal, and a
    # pair halfway between two anchors (b = 1.25, b₀ = 2) has the slice's
    # error estimate
    ts = np.geomspace(10.0, 1000.0, 12)
    x = pt_pd.x_grid
    w = (1.0 + np.abs(x)) ** -2.0
    far = np.abs(x[:, None] - x[None, :]) >= 10.0
    slices = pac_slices(pt_pd, ts)
    for ks, t, (unweighted, weighted) in zip(slices, ts, _PT_G_ERRORS):
        err = np.abs(ks.G - oracles.pt_g_kernel(x[:, None], x[None, :], t))
        assert np.all(err[far] <= ks.quadrature_error[far])
        assert np.max(err) <= 1.05 * unweighted
        assert np.max(w[:, None] * err * w[None, :]) <= 1.05 * weighted
    i, j = pt_pd.x_index(0.0), pt_pd.x_index(1.25)
    for ks, t in zip(slices[::5], ts[::5]):
        assert abs(ks.quadrature_error[i, j] - pac_kernel(pt_pd, 0.0, 1.25, t)[1]) <= 1e-13


# pairs x <= y per default time whose error against the closed-form G
# passes quadrature_error, of 2 145: 121, 173, 134, 145, 162, 202, 194, 195,
# 211, 205, 219, 222 when the cubic midpoints refined h₊, h₋ and T one by
# one; 79, 73, 45, 71, 49, 72, 59, 62, 62, 53, 51, 52 with the whole
# amplitude refined
def test_few_pt_pairs_pass_their_error_estimate(pt_pd):
    ts = np.geomspace(10.0, 1000.0, 12)
    x = pt_pd.x_grid
    upper = x[:, None] <= x[None, :]
    for ks, t in zip(pac_slices(pt_pd, ts), ts):
        err = np.abs(ks.G - oracles.pt_g_kernel(x[:, None], x[None, :], t))
        assert np.count_nonzero(upper & (err > ks.quadrature_error)) <= 100


def test_k_grid_must_be_symmetric_about_zero(pt_pot, monkeypatch):
    # the quadrature folds k < 0 onto k >= 0: other grids fail before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("compute_h_pair ran")

    monkeypatch.setattr(scattering, "compute_h_pair", no_solve)
    x = np.linspace(-8.0, 8.0, 17)
    for k in (np.linspace(-5.0, 5.0, 201) + 0.01, np.linspace(-5.0, 5.0, 200)):
        with pytest.raises(ValueError, match="k grid"):
            prepare_propagator(pt_pot, x, k)


def test_rows_by_index_when_x_grid_lacks_two(pt_pot):
    # scattering_data adds the rows ±2 to an x grid without them; the
    # propagator keeps the rows of its own grid
    x = np.linspace(-1.5, 1.5, 7)
    pd = prepare_propagator(pt_pot, x, np.linspace(-20.0, 20.0, 401))
    k = pd.k_grid[200:]
    assert pd.hp.shape == pd.hm.shape == (7, 201)
    assert np.max(np.abs(pd.hp - oracles.pt_h_plus(x[:, None], k))) < 1e-8
    assert np.max(np.abs(pd.hm - oracles.pt_h_minus(x[:, None], k))) < 1e-8
    c_plus = np.sqrt(2.0 / (1.0 + pd.sd.resonance.gamma**2))
    assert np.max(np.abs(pd.f0_x - c_plus * oracles.pt_h_plus(x, 0.0).real)) < 1e-8


def test_x_grid_needs_no_zero(pt_pot):
    # scattering_data adds the row x = 0 and the propagator keeps the rows
    # of its own grid, so a grid without 0 runs as is
    x = np.linspace(-7.75, 7.75, 32)
    pd = prepare_propagator(pt_pot, x, np.linspace(-20.0, 20.0, 2001))
    assert np.array_equal(pd.x_grid, x)
    assert np.max(np.abs(pd.f0_x - np.tanh(x))) < 1e-10
    ks = pac_slices(pd, [10.0])[0]
    for lo, hi in ((-7.75, 7.75), (-0.25, 0.25), (1.25, 4.75)):
        i, j = pd.x_index(lo), pd.x_index(hi)
        val, err = pac_kernel(pd, lo, hi, 10.0)
        assert abs(ks.pac[i, j] - val) <= 1e-15 and abs(ks.quadrature_error[i, j] - err) <= 1e-15
    # the k window's tail sets the error, 8.0e-5 against a largest estimate of 8.3e-5
    g_err = np.abs(ks.G - oracles.pt_g_kernel(x[:, None], x[None, :], 10.0))
    assert np.max(g_err) <= np.max(ks.quadrature_error)


def test_slices_memory_bounded(pt_pot):
    # the amplitude is built in k-blocks over the grid nodes k >= 0, the
    # weights of one anchor are V and U taken onto those nodes, and each
    # time keeps a table of P_q on every 4th lattice point; measured peak
    # 13.6 MiB (16.9 with the amplitude on the twice-refined nodes and an
    # even-column copy for U), bound unchanged
    pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 33), np.linspace(-60.0, 60.0, 4001))
    tracemalloc.start()
    try:
        pac_slices(pd, np.geomspace(10.0, 1000.0, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30.5 * 2**20


def test_prepare_and_slices_memory_bounded(pt_pot):
    # PropagatorData keeps h₊ and h₋ on the grid nodes k >= 0 and nothing
    # else of the Jost fields, and pac_slices contracts views of those rows:
    # measured 18.0 MiB.  With the rows refined twice it was 25.5 MiB
    tracemalloc.start()
    try:
        pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 33), np.linspace(-60.0, 60.0, 4001))
        pac_slices(pd, np.geomspace(10.0, 1000.0, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 27.0 * 2**20


@pytest.mark.parametrize(
    "k_max,k_count,x_count,anchors",
    [
        pytest.param(60.0, 4001, 9, 9, id="4001"),
        pytest.param(60.0, 201, 9, 9, id="201"),
        pytest.param(10.0, 4001, 33, 5, id="anchored"),
    ],
)
def test_slices_run_one_series_per_time_and_one_product_per_level(
    pt_pot, monkeypatch, k_max, k_count, x_count, anchors
):
    # the weights of an anchor are (V; U) on the grid nodes k >= 0, one
    # call per anchor, with no column left at zero.
    # The moment series runs once per time per call (its table), not once
    # per (t, ±b): on a grid like the decay stage's (K = 60, t ≤ 1000) every
    # table is at level 0; on the 201-node grid the tables of t > 8.9 sit
    # on refined node sets, up to 16 times refined at t = 1000.  On x steps
    # of 1 every diagonal is its own anchor; on the anchored grid (x step
    # 0.25, k step 0.005, as the decay stage's) the 33 diagonals share the
    # weights of 5 anchors, b₀ = 0, 2, 4, 6, 8: one call per anchor
    series_calls = []
    p_moments = oscquad._p_moments
    monkeypatch.setattr(oscquad, "_p_moments", lambda *a: series_calls.append(a) or p_moments(*a))
    shapes = []
    grid_weights = oscquad.PanelTables.grid_weights

    def recorded(self, b):
        wts = grid_weights(self, b)
        shapes.append(wts.shape)
        assert np.all(np.any(wts != 0.0, axis=0))
        return wts

    monkeypatch.setattr(oscquad.PanelTables, "grid_weights", recorded)
    pd = prepare_propagator(pt_pot, np.linspace(-4.0, 4.0, x_count), np.linspace(-k_max, k_max, k_count))
    ts = np.geomspace(10.0, 1000.0, 12)
    pac_slices(pd, ts)
    assert len(series_calls) == len(ts)
    n = k_count // 2 + 1  # grid nodes k >= 0
    assert shapes == [(4 * len(ts), n)] * anchors


@pytest.mark.parametrize("n", [7, 10])
def test_weights_take_the_transposed_refinement(n):
    # the weights go onto the grid nodes by the refinement's transpose: on
    # random complex rows Σ w·refine(a) = Σ refineᵀ(w)·a for two passes,
    # and on a line symmetric about 0 (a(−k) = conj a(k)) the folded half
    # rows with their mirror weights moved give the whole line's sums
    rng = np.random.default_rng(n)

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, w = crandn(3, n), crandn(3, 4 * n - 3)
    wt = oscquad._refine_t(oscquad._refine_t(w))
    lhs = np.sum(w * oracles.refine_twice(a), axis=1)
    assert np.max(np.abs(lhs - np.sum(wt * a, axis=1))) <= 1e-13 * np.max(np.abs(lhs))

    nt, m = 2, n // 2 + 1  # a symmetric line of 2m − 1 nodes, m of them at k >= 0
    k = np.arange(1.0 - m, m)
    half = crandn(4, m)
    half[:, 0] = half[:, 0].real  # A(0) = conj A(0)
    line = unfold(half, k[m - 1 :], k)
    v, u = crandn(2 * nt, 4 * m - 3), crandn(2 * nt, 2 * m - 1)
    # grid_weights on tables whose per-time Richardson rows (at b₀, −b₀) are v and u
    tables = SimpleNamespace(
        ts=np.ones(nt), k=np.empty(4 * m - 3),
        _richardson=lambda b0: ((v[i::nt].copy(), u[i::nt].copy()) for i in range(nt)),
    )
    grid = oscquad.PanelTables.grid_weights(tables, 0.0)
    assert grid.shape == (4 * nt, m)
    # the whole line's weights: the b₀ rows on k >= 0, the −b₀ rows mirrored
    finest = oracles.refine_twice(line)
    for big, step, first in ((v, 1, 0), (u, 2, 2 * nt)):
        refined = finest[:, ::step]
        whole = np.zeros((nt, refined.shape[1]), dtype=complex)
        c = refined.shape[1] // 2
        whole[:, c:] += big[:nt]
        whole[:, : c + 1] += big[nt:, ::-1]
        exact = refined @ whole.T
        r = half @ grid[first : first + 2 * nt].T
        folded = r[:, :nt] + np.conj(r[:, nt:])
        assert np.max(np.abs(folded - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_pac_validation(pt_pd, monkeypatch):
    with pytest.raises(ValueError):
        pac_kernel(pt_pd, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        pac_slices(pt_pd, [2.0, 0.25])
    # empty and non-finite times fail before any work, naming the argument
    for ts in ([], [np.nan], [np.inf], [5.0, -np.inf]):
        with pytest.raises(ValueError, match="^ts:"):
            pac_slices(pt_pd, ts)
    with pytest.raises(ValueError, match="^ts:"):
        pac_kernel(pt_pd, 0.0, 1.0, np.nan)
    with pytest.raises(KeyError):
        pac_kernel(pt_pd, 0.3, 1.0, 5.0)
    # on the default grid a table at t = 1e7 is refined 16 times, 768 000
    # panels: past the budget, before any table is built
    def no_tables(*args):
        raise AssertionError("PanelTables built")

    monkeypatch.setattr(oscquad.PanelTables, "__init__", no_tables)
    with pytest.raises(ValueError, match=r"^ts: t=1e\+07 "):
        pac_slices(pt_pd, [10.0, 1e7])
    with pytest.raises(ValueError, match=r"^ts: t=1e\+07 "):
        pac_kernel(pt_pd, 0.0, 1.0, 1e7)


# ------------------------------------------------------- threshold projection


def test_resonant_prepare_scans_zero_energy_once(pt_pot, pt_pd_coarse, monkeypatch):
    # zero energy is one solve: classify_resonance's one compute_h_pair call,
    # and f₀ is the k = 0 column of the h₊ field the propagator already holds
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("compute_h_pair", "compute_h_bound"):
        monkeypatch.setattr(scattering, name, counted(getattr(scattering, name)))
    scattering.classify_resonance(pt_pot)
    assert calls == ["compute_h_pair"]
    pd = pt_pd_coarse
    c = pd.k_grid.size // 2
    c_plus = np.sqrt(2.0 / (1.0 + pd.sd.resonance.gamma**2))
    assert pd.resonant and pd.k_grid[c] == 0.0
    assert np.array_equal(pd.f0_x, c_plus * pd.hp[:, 0].real)


def test_threshold_projection_residual(pt_pd, sw_pd):
    assert threshold_projection_residual(pt_pd) < 1e-8
    assert threshold_projection_residual(sw_pd) < 1e-8


def test_threshold_projection_needs_resonance(gw_pd):
    assert not gw_pd.resonant
    with pytest.raises(ResonanceError):
        threshold_projection_residual(gw_pd)
    # no threshold state, so no threshold term
    assert not np.any(gw_pd.f0_x)


def test_p0_pt_is_tanh_product(pt_pd, pt_slice7):
    xg = pt_pd.x_grid
    exact = np.outer(np.tanh(xg), np.tanh(xg)) / np.sqrt(4j * np.pi * 7.0)
    assert np.max(np.abs(pt_slice7.p0_term - exact)) < 1e-8
    assert np.max(np.abs(pt_pd.f0_x - np.tanh(xg))) < 1e-10


def test_sw_threshold_state_is_the_odd_zero_mode(sw_pd):
    # V = −(π/2)² on |x| < 1: f₀ = sin(πx/2) inside the well, ±1 outside,
    # on the whole default grid (±8, past the cutoff 1)
    x = sw_pd.x_grid
    ref = np.where(np.abs(x) < 1.0, np.sin(0.5 * np.pi * x), np.sign(x))
    assert np.max(np.abs(sw_pd.f0_x - ref)) < 1e-12


def test_p0_free_constant(free_slice3):
    # free line is threshold-resonant with f₀ = 1
    p0 = free_slice3.p0_term
    assert np.max(np.abs(p0 - 1.0 / np.sqrt(12j * np.pi))) < 1e-12


# ------------------------------------------------------------ applied kernel


def test_sw_ac_mass(sw_pd):
    # e^{−itH}P_ac is an isometry on the ac subspace: the evolved mass of a
    # packet equals its total mass minus the bound-state overlap
    x = sw_pd.x_grid
    psi0 = np.exp(-x * x)
    ks = pac_slices(sw_pd, [1.0])[0]
    psi_ac = simpson(ks.pac * psi0[None, :], x=x, axis=1)
    mass = float(simpson(np.abs(psi_ac) ** 2, x=x))
    ((_, psi_b, _, _),) = oracles.square_well_eigenstates(np.pi**2 / 4, 1.0)
    xf = np.linspace(-8.0, 8.0, 1601)
    cb = float(simpson(psi_b(xf) * np.exp(-xf * xf), x=xf))
    expect = float(simpson(psi0**2, x=x)) - cb * cb
    assert expect > 0.05  # the bound state takes most, not all, of the packet
    assert abs(mass - expect) / expect < 0.01


def test_pt_evolution_matches_split_step(pt_pd_fine, pt_pot):
    # full evolution = pac part + bound-state phase, against an independent
    # split-step Fourier evolver on a finer periodic box
    ks = pac_slices(pt_pd_fine, [5.0])[0]
    xg = ks.x_grid
    psi0 = np.exp(-xg * xg)
    psi_ac = simpson(ks.pac * psi0[None, :], x=xg, axis=1)
    kap, E, psi_b, _ = oracles.pt_bound_state()
    c = float(simpson(psi_b(xg) * psi0, x=xg))
    psi_full = psi_ac + np.exp(-1j * 5.0 * E) * c * psi_b(xg)
    x_o, psi_o = oracles.split_step_evolve(pt_pot, lambda x: np.exp(-x * x), 5.0)
    dx_o = x_o[1] - x_o[0]
    sel = np.isin(np.round(x_o / dx_o).astype(int), np.round(xg / dx_o).astype(int))
    assert int(sel.sum()) == xg.size  # oracle grid contains the slice grid
    assert np.max(np.abs(psi_full - psi_o[sel])) < 1e-3


# ------------------------------------------------- stationary-phase integrand


def test_free_s_field_closed_form(free_pd):
    # V = 0: S = ∂ₖ (e^{ibk}−1)/k, whose algebra norm is b²/2
    for b in (1.0, 2.0, 4.0):
        est = s_field(free_pd, 0.0, b).a_norm
        assert abs(est.a1_norm - b * b / 2.0) < 0.03 * b * b
        assert est.a1_norm <= b * b
    assert s_field(free_pd, 1.0, 1.0).a_norm.a1_norm < 1e-10


def test_s_field_validation(pt_pd):
    with pytest.raises(KeyError):
        s_field(pt_pd, 0.3, 1.0)


def test_s_growth_envelope(pt_pd, sw_pd):
    c_pt, p_pt, pairs, norms = s_growth_fit(pt_pd)
    assert len(pairs) == len(norms) == 66
    # the masses are taken several fields per FFT call, bit for bit s_field's
    assert list(norms) == [s_field(pt_pd, x, y).a_norm.a1_norm for x, y in pairs]
    assert 1.2 < p_pt < 2.2
    assert 0.8 < c_pt < 1.2
    c_sw, p_sw, _, _ = s_growth_fit(sw_pd)
    assert 1.2 < p_sw < 2.2


def test_s_growth_fit_needs_its_lattice(pt_pot):
    # step 16/22: of the integer lattice on [−5, 5] only 0 is on the grid
    pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 23), np.linspace(-5.0, 5.0, 201))
    with pytest.raises(ValueError, match="x=-5 "):
        s_growth_fit(pd)
