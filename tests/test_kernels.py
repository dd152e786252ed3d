from __future__ import annotations

import numpy as np
import pytest

from scatterlab.jost import compute_h
from scatterlab.kernels import (
    b_kernel,
    functionals_json,
    glm_residual,
    half_line_transform,
    kd_kernels,
    kernel_bound_report,
    kernel_table_csv,
    resonance_functionals,
    roundtrip_residual,
)
from scatterlab.potentials import catalog

from conftest import XS_KERNEL

# The sech² well has closed forms for the whole chain (B, K, D, ∂ₓB, H),
# so it pins absolute accuracy.  The square well exercises jump transport
# along characteristics, the gaussian well the smooth path where the
# kernel bound is sharp at y = 0.


def test_half_line_transform_gaussian_pair():
    k = np.linspace(-60.0, 60.0, 24001)
    g = np.exp(-(k**2))
    y, G = half_line_transform(g, k, y_max=8.0)
    assert np.max(np.abs(G.real - np.exp(-(y**2)) / np.sqrt(np.pi))) < 1e-11
    assert np.max(np.abs(G.imag)) < 1e-9
    stacked = np.stack([g, 2.0 * g])
    _, G2 = half_line_transform(stacked, k, y_max=8.0)
    assert G2.shape == (2, y.size)
    assert np.max(np.abs(G2[1] - 2.0 * G2[0])) == 0.0


def test_half_line_transform_rejects_nonuniform_grid():
    k = np.array([-1.0, -0.5, 0.1, 1.0])
    with pytest.raises(ValueError):
        half_line_transform(np.ones(4), k, y_max=1.0)


def _pt_closed_forms(side, y_abs):
    """(B, K, D, ∂ₓB) tables for V = −2 sech²x on XS_KERNEL × y_abs."""
    xs = side * XS_KERNEL  # reflected abscissa; side − follows by parity
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
    assert kt.imag_residual < 1e-12


def test_pt_resampled_table(pt_pot, pt_wiener):
    _, jp, _ = pt_wiener
    y_req = np.linspace(0.0, 6.0, 121)
    kt = b_kernel(jp, y_grid=y_req, pot=pt_pot)
    B, *_ = _pt_closed_forms(+1, y_req)
    assert np.max(np.abs(kt.B - B)) < 2e-9
    with pytest.raises(ValueError):
        b_kernel(jp, y_grid=np.array([-0.5, 0.5]), pot=pt_pot)


def test_pt_roundtrip(pt_pot, pt_wiener):
    _, jp, _ = pt_wiener
    kt = b_kernel(jp, pot=pt_pot, pad=32)  # resolving 1e-6 needs a dense table
    assert roundtrip_residual(kt, jp) < 1e-6


def test_kd_kernels_validation(pt_pot, pt_wiener, pt_scatter):
    _, jp, _ = pt_wiener
    resampled = b_kernel(jp, y_grid=np.linspace(0.0, 4.0, 61), pot=pt_pot)
    with pytest.raises(ValueError):
        kd_kernels(resampled, jp, pot=pt_pot)
    _, jp_coarse, _ = pt_scatter  # different k grid than the table
    with pytest.raises(ValueError):
        kd_kernels(b_kernel(jp, pot=pt_pot), jp_coarse, pot=pt_pot)


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
    # margins sit at the window-leak scale: the table is synthesized from
    # |k| ≤ 60, so B is not exactly zero outside the support triangle
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


def test_glm_grid_validation(pt_pot, pt_tables, pt_scatter):
    sd_coarse, *_ = pt_scatter
    with pytest.raises(ValueError):
        glm_residual(pt_tables[0], sd_coarse, pot=pt_pot)


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
