from __future__ import annotations

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scatterlab import kernels
from scatterlab.jost import compute_h_pair
from scatterlab.kernels import (
    b_kernel,
    functionals_json,
    glm_residual,
    kd_kernels,
    kernel_bound_report,
    kernel_table_csv,
    resonance_functionals,
    roundtrip_residual,
)
from scatterlab.potentials import catalog, cutoff_for_eta, eta
from scatterlab.scattering import scattering_data

from conftest import K_WIENER, XS_KERNEL
from oracles import filon_linear_dense

# The sech² well has closed forms for the whole chain (B, K, D, ∂ₓB, H),
# so it pins absolute accuracy.  The square well exercises jump transport
# along characteristics, the gaussian well the smooth path where the
# kernel bound is sharp at y = 0.


def _pt_closed_forms(side, y_abs, rows=XS_KERNEL):
    """(B, K, D, ∂ₓB) tables for V = −2 sech²x on rows × y_abs."""
    xs = side * rows  # reflected abscissa; side − follows by parity
    decay = np.exp(-2.0 * y_abs)[None, :]
    B = -2.0 * (1.0 - np.tanh(xs))[:, None] * decay
    K = -(1.0 - np.tanh(xs))[:, None] * decay
    D = side * (1.0 / np.cosh(xs) ** 2)[:, None] * decay
    dB = 2.0 * D
    return B, K, D, dB


@pytest.mark.parametrize("idx,side", [(0, +1), (1, -1)])
def test_pt_tables_match_closed_forms(pt_tables, idx, side):
    kt = pt_tables[idx]
    assert kt.side == side
    assert np.all(side * kt.y_grid >= 0.0)
    y_abs = np.abs(kt.y_grid)
    B, K, D, dB = _pt_closed_forms(side, y_abs)
    assert np.max(np.abs(kt.B - B)) < 2e-9
    assert np.max(np.abs(kt.K - K)) < 1e-7
    assert np.max(np.abs(kt.D - D)) < 5e-8
    assert np.max(np.abs(kt.dB - dB)) < 3e-7


@pytest.mark.parametrize("side", [+1, -1])
def test_pt_table_off_lattice_rows(pt_pot, side):
    # rows between lattice nodes come from 4-node interpolation in x
    rows = np.array([-0.37, 0.0, 1.3])
    jf = compute_h_pair(pt_pot, rows, np.array([0.0, 1.0]))[0 if side > 0 else 1]
    kt = kd_kernels(b_kernel(jf, pot=pt_pot), jf, pot=pt_pot)
    B, K, D, dB = _pt_closed_forms(side, np.abs(kt.y_grid), rows)
    assert np.max(np.abs(kt.B - B)) < 2e-9
    assert np.max(np.abs(kt.K - K)) < 1e-7
    assert np.max(np.abs(kt.D - D)) < 5e-8
    assert np.max(np.abs(kt.dB - dB)) < 3e-7


def test_kernel_tables_memory_bounded(pt_pot, pt_wiener):
    # the solve keeps O(N_t) state besides its rows; the full (t, y)
    # triangle at the half step would take about 340 MB
    _, jp, _ = pt_wiener
    tracemalloc.start()
    try:
        kd_kernels(b_kernel(jp, pot=pt_pot), jp, pot=pt_pot)
        tables_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        resonance_functionals(jp, pt_pot)
        functionals_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables_peak <= 32 * 2**20
    assert functionals_peak <= 103 * 2**20  # the padded FFT route's own peak


def test_pt_roundtrip(pt_pot, pt_wiener):
    _, jp, _ = pt_wiener
    kt = b_kernel(jp, pot=pt_pot)
    assert roundtrip_residual(kt, jp) < 1e-6


@pytest.mark.parametrize("idx,side", [(0, +1), (1, -1)])
def test_pt_resonance_functionals(pt_pot, pt_wiener, idx, side):
    jf = pt_wiener[1 + idx]
    rf = resonance_functionals(jf, pt_pot)
    # closed form H±(y) = ∓e^{−2|y|}; the ratio to η peaks at y = 0 with 1/2
    H_ref = -side * np.exp(-2.0 * np.abs(rf.y_grid))
    assert np.max(np.abs(rf.H - H_ref)) < 1e-9
    assert rf.identity_residual < 1e-6
    assert rf.C_hat_estimate == pytest.approx(0.5, abs=1e-8)


def test_resonance_functionals_need_zero_wavenumber(pt_pot):
    jf = compute_h_pair(pt_pot, np.array([0.0]), np.array([0.5, 1.0, 1.5]))[0]
    with pytest.raises(ValueError):
        resonance_functionals(jf, pt_pot)


def test_identity_residual_square_well(sw_pot, sw_wiener):
    _, jp, _ = sw_wiener
    rf = resonance_functionals(jp, sw_pot)
    assert rf.identity_residual < 1e-5
    assert 0.6 < rf.C_hat_estimate < 0.7


def test_identity_residual_gaussian(gw_pot, gw_wiener):
    _, jp, _ = gw_wiener
    rf = resonance_functionals(jp, gw_pot)
    assert rf.identity_residual < 1e-7
    assert 0.9 < rf.C_hat_estimate < 1.05


@pytest.mark.parametrize("idx", [0, 1])
def test_kernel_bounds_pt(pt_pot, pt_tables, idx):
    rep = kernel_bound_report(pt_tables[idx], pt_pot)
    assert rep["est1_relative_margin"] < 1e-10
    assert rep["est11_relative_margin"] < 1e-10
    assert rep["est1_max_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("idx", [0, 1])
def test_kernel_bounds_square_well(sw_pot, sw_tables, idx):
    # past the support B± and the bound both vanish, so the margins read 0
    # there, and every other point lies below its bound
    rep = kernel_bound_report(sw_tables[idx], sw_pot)
    assert rep["est1_relative_margin"] < 2e-5
    assert rep["est11_relative_margin"] < 1e-4


@pytest.mark.parametrize("idx", [0, 1])
def test_kernel_bounds_gaussian_sharp(gw_pot, gw_tables, idx):
    rep = kernel_bound_report(gw_tables[idx], gw_pot)
    assert rep["est1_margin"] <= 0.0
    assert rep["est1_relative_margin"] < 1e-10
    assert rep["est11_relative_margin"] < 1e-10
    # |B(x,y)| → e^γ η(x+y) as x → −∞ at y = 0: the bound is attained
    assert rep["est1_max_ratio"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("idx,side", [(0, +1), (1, -1)])
def test_square_well_support_triangle(sw_tables, idx, side):
    # B±(x,y) and ∂ₓB± vanish once x + y leaves the potential's support
    kt = sw_tables[idx]
    y_abs = np.abs(kt.y_grid)
    outside = side * kt.x_grid[:, None] + y_abs[None, :] > 1.05
    assert np.max(np.abs(kt.B[outside])) < 1e-5
    assert np.max(np.abs(kt.dB[outside])) < 5e-5


@pytest.mark.parametrize("idx,side", [(0, +1), (1, -1)])
def test_square_well_kernel_vanishes_past_the_support(sw_tables, idx, side):
    # the solve never reads V past the support, so B± and ∂ₓB± are exactly
    # zero from the jump line x + y = a on
    kt = sw_tables[idx]
    past = side * kt.x_grid[:, None] + np.abs(kt.y_grid)[None, :] >= 1.0
    assert np.all(kt.B[past] == 0.0)
    assert np.all(kt.dB[past] == 0.0)


@pytest.mark.parametrize("which", ["pt", "sw"])
@pytest.mark.parametrize("idx", [0, 1])
def test_tails_at_y0_are_the_zero_energy_jost_rows(request, which, idx):
    # h(x,0) − 1 = ∫ B(x,y) dy = K(x,0) and ∂ₓh(x,0) = D(x,0): the kernel
    # solve and the Jost integration meet at k = 0
    kt = request.getfixturevalue(f"{which}_tables")[idx]
    jf = request.getfixturevalue(f"{which}_wiener")[1 + idx]
    i0 = int(np.argmin(np.abs(jf.k_grid)))
    assert np.max(np.abs(kt.K[:, 0] - (jf.h[:, i0].real - 1.0))) < 1e-8
    assert np.max(np.abs(kt.D[:, 0] - jf.h_prime[:, i0].real)) < 1e-8


def test_square_well_roundtrip(sw_wiener, sw_tables):
    # the forward transform of the Volterra kernel meets the Jost rows (the
    # well is even, so side − mirrors side +)
    assert roundtrip_residual(sw_tables[0], sw_wiener[1]) < 1e-6


@pytest.mark.parametrize("idx", [0, 1])
def test_glm_pt(pt_pot, pt_wiener, pt_tables, idx):
    rep = glm_residual(pt_tables[idx], pt_wiener[0], pot=pt_pot, eval_stride=4)
    assert rep.max_residual < 1e-7


@pytest.mark.parametrize("idx", [0, 1])
def test_glm_square_well(sw_pot, sw_wiener, sw_tables, idx):
    rep = glm_residual(sw_tables[idx], sw_wiener[0], pot=sw_pot, eval_stride=4)
    assert rep.max_residual < 1e-4


@pytest.mark.parametrize("idx", [0, 1])
def test_glm_gaussian(gw_pot, gw_wiener, gw_tables, idx):
    rep = glm_residual(gw_tables[idx], gw_wiener[0], pot=gw_pot, eval_stride=4)
    assert rep.max_residual < 1e-4


@pytest.fixture(scope="module")
def sw_off_lattice():
    # a = 1.0371 from the benchmark's draw range, still resonant: the rows
    # ±2, ±1, 0 sit between lattice nodes, the breakpoints ±a on them
    a = 1.0371
    pot = catalog("square_well", a=a, v0=(np.pi / (2.0 * a)) ** 2)
    sd, jp, jm = scattering_data(pot, K_WIENER, extra_x=XS_KERNEL)
    return pot, sd, tuple(kd_kernels(b_kernel(jf, pot=pot), jf, pot=pot) for jf in (jp, jm))


@pytest.mark.parametrize("idx", [0, 1])
def test_glm_square_well_off_lattice(sw_off_lattice, idx):
    pot, sd, tables = sw_off_lattice
    rep = glm_residual(tables[idx], sd, pot=pot, eval_stride=4)
    assert rep.max_residual < 1e-4


def test_csv_export(pt_tables):
    kt = pt_tables[0]
    text = kernel_table_csv(kt)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,B,K,D"
    assert len(lines) == 1 + kt.x_grid.size * kt.y_grid.size
    x, y, b, kk, dd = lines[1].split(",")
    assert float(x) == kt.x_grid[0]
    assert float(b) == pytest.approx(kt.B[0, 0], rel=1e-10)
    assert kk != "" and dd != ""


def test_json_export(pt_pot, pt_wiener):
    rf = resonance_functionals(pt_wiener[1], pt_pot)
    out = functionals_json(rf, extra={"label": "pt"})
    assert out["side"] == 1
    assert out["label"] == "pt"
    assert out["C_hat_estimate"] == pytest.approx(0.5, abs=1e-8)
    assert out["H_max"] == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------ the Filon transform layer


@pytest.mark.parametrize(
    "y, k_eval",
    [
        (np.array([0.0]), np.linspace(-1.0, 1.0, 5)),  # one y point
        (np.linspace(0.0, 1.0, 9), np.array([0.5])),  # one k point
        (np.r_[0.0, 0.1, 0.2, 0.3001, 0.4], np.linspace(-1.0, 1.0, 5)),  # y not uniform
        (np.linspace(0.0, 1.0, 9), np.r_[0.0, 1.0, 2.0, 3.0 + 1e-6, 4.0]),  # k not uniform
    ],
)
def test_filon_linear_rejects_grids_the_transform_cannot_take(y, k_eval):
    with pytest.raises(ValueError):
        kernels._filon_linear(y, np.ones((1, y.size)), k_eval)


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(1, 3),
    complex_rows=st.booleans(),
    n=st.integers(2, 1500),
    m=st.integers(2, 1500),
    y_exp=st.integers(3, 10),
    y_start=st.integers(-2000, 2000),
    k_exp=st.integers(-4, 6),
    k_zero=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # N < M
    n_rows=2, complex_rows=True, n=300, m=1100, y_exp=8, y_start=-100, k_exp=2, k_zero=0.5, seed=1
)
@example(  # N > M
    n_rows=3, complex_rows=False, n=1100, m=300, y_exp=8, y_start=7, k_exp=0, k_zero=0.0, seed=2
)
@example(  # both grids one node past whole tiles
    n_rows=1, complex_rows=True, n=2 * kernels._TILE + 2, m=2 * kernels._TILE + 1,
    y_exp=6, y_start=0, k_exp=3, k_zero=1.0, seed=3,
)
def test_filon_linear_matches_the_dense_sums(
    n_rows, complex_rows, n, m, y_exp, y_start, k_exp, k_zero, seed
):
    # dyadic steps, so that the dense form's step y[1] − y[0] is exact as
    # well; the k grid runs through 0, where the end factors switch to
    # their series
    dy, dk = 2.0**-y_exp, 2.0**-k_exp
    y = (y_start + np.arange(n)) * dy
    k = (np.arange(m) - round(k_zero * (m - 1))) * dk
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, n))
    if complex_rows:
        rows = rows + 1j * rng.standard_normal((n_rows, n))
    dense = filon_linear_dense(y, rows, k)
    assert np.max(np.abs(kernels._filon_linear(y, rows, k) - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_glm_synthesis_meets_the_dense_sums_and_mpmath(sw_wiener):
    # the raw synthesis (1/π)∫R₊(k)e^{2ikw}dk of the default square well on
    # the GLM grid w = −2 … 34: the whole grid against the dense sums, and
    # three points (the window's ends and the kink at w = 1) against the
    # same rule summed in 25 digits
    sd = sw_wiener[0]
    k, R = sd.k_grid, np.asarray(sd.R_plus, dtype=complex)
    w = np.arange(-2.0, 34.0 + kernels._GLM_W_STEP, kernels._GLM_W_STEP)
    F = kernels._filon_linear(k, R, w) / np.pi
    scale = np.max(np.abs(F))
    assert np.max(np.abs(F - filon_linear_dense(k, R, w) / np.pi)) <= 1e-12 * scale
    with mpmath.workdps(25):
        kn = [mpmath.mpf(float(v)) for v in k]
        h = (kn[-1] - kn[0]) / (len(kn) - 1)
        a = [mpmath.mpc(complex(v)) for v in R]
        for i in (0, int(np.argmin(np.abs(w - 1.0))), w.size - 1):
            wi = mpmath.mpf(float(w[i]))
            iu = 2j * wi * h
            e = mpmath.exp(iu)
            m0, m1 = (e - 1) / iu, (e * (iu - 1) + 1) / iu**2
            s = mpmath.fsum(
                (a[j] * m0 + (a[j + 1] - a[j]) * m1) * mpmath.expj(2 * kn[j] * wi)
                for j in range(len(kn) - 1)
            )
            ref = complex(h * s / mpmath.pi)
            assert abs(F[i] - ref) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["poeschl_teller", "square_well", "gaussian_well"])
@pytest.mark.parametrize("side", [+1, -1])
def test_eta_masses_meet_a_tight_quadrature(name, side):
    # the tail masses the stage reads (potentials.eta): η± at 600
    # points of the two ranges it asks for, in one call, against one
    # adaptive quad per point run to 1e-13 relative out to where the tail
    # bound is below 1e-30
    pot = catalog(name)
    bps = sorted(side * b for b in pot.breakpoints)
    for u_lo, u_hi in ((0.0, 16.0), (-2.0, 18.0)):
        X = max(cutoff_for_eta(pot, 1e-30), u_hi + 1.0)
        us = np.linspace(u_lo, u_hi, 600)
        ref = np.array([
            quad(
                lambda t: abs(float(pot(side * t))), u, X,
                points=[b for b in bps if u < b < X] or None,
                limit=400, epsabs=0.0, epsrel=1e-13,
            )[0]
            for u in us
        ])
        got = eta(pot, side * us, side)
        pos = ref > 0.0
        assert np.max(np.abs(got[pos] - ref[pos]) / ref[pos]) < 1e-12
        assert np.all(got[~pos] == 0.0)
