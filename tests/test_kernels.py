from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from scatterlab.jost import compute_h
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
from scatterlab.potentials import catalog
from scatterlab.scattering import scattering_data

from conftest import K_WIENER, XS_KERNEL

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
    jf = compute_h(pt_pot, rows, np.array([0.0, 1.0]), side)
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
    jf = compute_h(pt_pot, np.array([0.0]), np.array([0.5, 1.0, 1.5]), +1)
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
