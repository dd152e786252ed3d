from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab import jost
from scatterlab.errors import ResonanceError
from scatterlab.jost import (
    ODE_ATOL,
    ODE_RTOL,
    compute_h,
    compute_h_bound,
    zero_energy_scan,
    zero_energy_state,
)
from scatterlab.potentials import catalog

import oracles

XS = np.array([-3.0, -1.2, 0.0, 0.7, 2.5])
KS = np.array([-7.5, -2.0, -0.3, 0.0, 0.3, 2.0, 7.5, 40.0])


def test_free_is_exact():
    jf = compute_h(catalog("free"), XS, KS, +1)
    assert np.max(np.abs(jf.h - 1.0)) < 1e-14
    assert np.max(np.abs(jf.h_prime)) < 1e-14


def test_pt_closed_form_both_sides():
    pt = catalog("poeschl_teller")
    for side, h_ref, hp_ref in (
        (+1, oracles.pt_h_plus, oracles.pt_hprime_plus),
        (-1, oracles.pt_h_minus, oracles.pt_hprime_minus),
    ):
        jf = compute_h(pt, XS, KS, side)
        H = h_ref(XS[:, None], KS[None, :])
        HP = hp_ref(XS[:, None], KS[None, :])
        assert np.max(np.abs(jf.h - H)) < 1e-8
        assert np.max(np.abs(jf.h_prime - HP)) < 1e-8


def test_square_well_breakpoints():
    sw = catalog("square_well")
    ks = np.array([0.4, 1.3, 5.0])
    jf = compute_h(sw, XS, ks, +1)
    for j, k in enumerate(ks):
        f_ref, fp_ref = oracles.square_well_f_plus(np.pi**2 / 4, 1.0, XS, k)
        f, fp = jf.f_at_x(XS[2])  # x = 0
        assert abs(f[j] - f_ref[2]) < 1e-9
        assert abs(fp[j] - fp_ref[2]) < 1e-9
        f, fp = jf.f_at_x(XS[0])  # x = -3, past the left edge
        assert abs(f[j] - f_ref[0]) < 1e-9
        assert abs(fp[j] - fp_ref[0]) < 1e-9


def _direct(pot, ks, side):
    """h, h′ on XS with every k, negative ones too, integrated as given
    (compute_h integrates |k| only), in compute_h's |k| bands."""
    x_inf = jost._cutoff(pot, XS, side)
    h = np.empty((XS.size, ks.size), dtype=complex)
    hp = np.empty_like(h)
    for _, _, sel in jost._band_split(np.abs(ks)):
        h[:, sel], hp[:, sel], _ = jost._inward(pot, XS, ks[sel], side, ODE_RTOL, ODE_ATOL, x_inf)
    return h, hp


def test_conjugation_folding_matches_direct_integration():
    pt = catalog("poeschl_teller")
    ks = np.array([-4.0, -1.0, -0.2, 0.3, 2.2])
    a = compute_h(pt, XS, ks, +1)
    h, hp = _direct(pt, ks, +1)
    assert np.max(np.abs(a.h - h)) < 1e-12
    assert np.max(np.abs(a.h_prime - hp)) < 1e-12


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


def test_f_at_x_phases():
    pt = catalog("poeschl_teller")
    jf = compute_h(pt, XS, KS, -1)
    f, fp = jf.f_at_x(2.5)
    ref = np.exp(-1j * KS * 2.5) * oracles.pt_h_minus(2.5, KS)
    assert np.max(np.abs(f - ref)) < 1e-8
    step = np.exp(-1j * KS * 2.5) * (
        -1j * KS * oracles.pt_h_minus(2.5, KS) + oracles.pt_hprime_minus(2.5, KS)
    )
    assert np.max(np.abs(fp - step)) < 1e-8


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


def test_zero_energy_scan_pt():
    zed = zero_energy_scan(catalog("poeschl_teller"))
    assert zed.resonant
    assert abs(zed.w0) < 1e-9
    assert zed.gamma == pytest.approx(-1.0, abs=1e-8)
    assert zed.gamma_residual < 1e-8


def test_zero_energy_scan_nonresonant():
    zed = zero_energy_scan(catalog("gaussian_well"))
    assert not zed.resonant
    with pytest.raises(ResonanceError):
        zero_energy_state(catalog("gaussian_well"), zed)


def test_zero_energy_scan_target_on_breakpoint():
    # a = 1.1 puts the scan-grid point −1.0999999999999996 within the target
    # tolerance of the breakpoint −1.1, just outside its segment
    a = 1.1
    zed = zero_energy_scan(catalog("square_well", a=a, v0=(np.pi / (2 * a)) ** 2))
    assert zed.resonant


def test_zero_energy_state_pt():
    st = zero_energy_state(catalog("poeschl_teller"))
    assert st.c_plus == pytest.approx(1.0, abs=1e-8)
    assert st.c_minus == pytest.approx(-1.0, abs=1e-8)
    i = int(np.argmin(np.abs(st.x_grid - 1.23)))
    assert st.f0[i] == pytest.approx(np.tanh(st.x_grid[i]), abs=1e-9)
    assert st.normalization_residual < 1e-8
    assert st.ode_residual < 1e-7  # independent Volterra-form check


def test_zero_energy_state_free():
    st = zero_energy_state(catalog("free"))
    assert st.gamma == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(st.f0 - 1.0)) < 1e-12  # f₀ ≡ 1 on the line


def test_band_report():
    pt = catalog("poeschl_teller")
    jf = compute_h(pt, XS, np.linspace(-20, 20, 81), +1)
    lows = [b[0] for b in jf.report.bands]
    assert lows == sorted(lows)
    assert all(nfev > 0 for _, _, nfev in jf.report.bands)
