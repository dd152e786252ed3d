from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from scatterlab import jost, propagator, scattering
from scatterlab.errors import ResonanceError
from scatterlab.jost import zero_energy_state
from scatterlab.oscquad import fresnel_weights, full_line_integral
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


@pytest.mark.parametrize("name", ["poeschl_teller", "square_well", "gaussian_well"])
def test_slices_match_reference_rule(name):
    # the folded, restricted, chunked rule against the plain one: three
    # weight vectors per time, one product per time and level, whole line
    pd = prepare_propagator(catalog(name), np.linspace(-4.0, 4.0, 17), np.linspace(-20.0, 20.0, 2001))
    ts = np.array([1.0, 2.5, 10.0, 100.0, 1000.0])
    ref_pac, ref_err = oracles.pac_slices_reference(
        pd.h_plus, pd.h_minus, pd.T, pd.k_grid, 0.5, ts, fresnel_weights
    )
    for ks, rp, re in zip(pac_slices(pd, ts), ref_pac, ref_err):
        assert np.max(np.abs(ks.pac - rp)) <= 1e-12 * np.max(np.abs(rp))
        assert np.max(np.abs(ks.quadrature_error - re) / re) <= 1e-5


def test_k_grid_must_be_symmetric_about_zero(pt_pot, monkeypatch):
    # the quadrature folds k < 0 onto k >= 0: other grids fail before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("scattering_data ran")

    monkeypatch.setattr(propagator, "scattering_data", no_solve)
    x = np.linspace(-8.0, 8.0, 17)
    for k in (np.linspace(-5.0, 5.0, 201) + 0.01, np.linspace(-5.0, 5.0, 200)):
        with pytest.raises(ValueError, match="k grid"):
            prepare_propagator(pt_pot, x, k)


def test_slices_memory_bounded(pt_pot):
    # the amplitude is built in row chunks over k >= 0 and the weights of
    # one diagonal are one matrix; measured peak 25.4 MiB, bound with 20%
    # headroom
    pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 33), np.linspace(-60.0, 60.0, 4001))
    tracemalloc.start()
    try:
        pac_slices(pd, np.geomspace(10.0, 1000.0, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30.5 * 2**20


def test_pac_validation(pt_pd):
    with pytest.raises(ValueError):
        pac_kernel(pt_pd, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        pac_slices(pt_pd, [2.0, 0.25])
    with pytest.raises(KeyError):
        pac_kernel(pt_pd, 0.3, 1.0, 5.0)


# ------------------------------------------------------- threshold projection


def test_resonant_prepare_scans_zero_energy_once(pt_pot, monkeypatch):
    # f₀ comes from the scan that decided the resonance, not from a second one
    scan, calls = jost.zero_energy_scan, []

    def counted(*args, **kwargs):
        calls.append(args[0].label)
        return scan(*args, **kwargs)

    monkeypatch.setattr(jost, "zero_energy_scan", counted)
    monkeypatch.setattr(scattering, "zero_energy_scan", counted)
    pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 17), np.linspace(-5.0, 5.0, 201))
    assert pd.resonant and calls == ["poeschl_teller"]
    assert np.array_equal(pd.zero_state.f0, zero_energy_state(pt_pot).f0)


def test_threshold_projection_residual(pt_pd, sw_pd):
    assert threshold_projection_residual(pt_pd) < 1e-8
    assert threshold_projection_residual(sw_pd) < 1e-8


def test_threshold_projection_needs_resonance(gw_pd):
    assert not gw_pd.resonant
    with pytest.raises(ResonanceError):
        threshold_projection_residual(gw_pd)
    # no threshold state, so no threshold term
    assert gw_pd.zero_state is None and not np.any(gw_pd.f0_x)


def test_p0_pt_is_tanh_product(pt_pd, pt_slice7):
    xg = pt_pd.x_grid
    exact = np.outer(np.tanh(xg), np.tanh(xg)) / np.sqrt(4j * np.pi * 7.0)
    assert np.max(np.abs(pt_slice7.p0_term - exact)) < 1e-8
    assert np.max(np.abs(pt_pd.f0_x - np.tanh(xg))) < 1e-10


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
    (b0,) = sw_pd.sd.bound_states
    cb = float(simpson(b0.psi * np.exp(-b0.x_grid**2), x=b0.x_grid))
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
    assert 1.2 < p_pt < 2.2
    assert 0.8 < c_pt < 1.2
    c_sw, p_sw, _, _ = s_growth_fit(sw_pd)
    assert 1.2 < p_sw < 2.2


def test_s_growth_fit_needs_its_lattice(pt_pot):
    # step 16/22: of the integer lattice on [−5, 5] only 0 is on the grid
    pd = prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 23), np.linspace(-5.0, 5.0, 201))
    with pytest.raises(ValueError, match="x=-5 "):
        s_growth_fit(pd)
