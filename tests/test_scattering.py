from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from scatterlab.errors import CrossCheckError
from scatterlab.jost import compute_h
from scatterlab.potentials import catalog
from scatterlab.scattering import (
    bound_states,
    classify_resonance,
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
            fp, _ = jp.f_at_x(x)
            fm, _ = jm.f_at_x(x)
            res = sd.T * fp - sd.R_minus * fm - np.conj(fm)
            assert float(np.max(np.abs(res))) < 1e-6


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


def test_resonant_k0_needs_data(gw_pot):
    # non-resonant: the direct ratio at k = 0, with T(0) exactly 0
    jp = compute_h(gw_pot, [-2.0, 0.0, 2.0], np.array([-0.4, 0.0, 0.4]), +1)
    jm = compute_h(gw_pot, [-2.0, 0.0, 2.0], np.array([-0.4, 0.0, 0.4]), -1)
    w, wp, wm, _ = wronskians(jp, jm)
    sd = scattering_matrix(w, (wp, wm), jp.k_grid, resonance=classify_resonance(gw_pot))
    assert sd.T[1] == 0.0
    assert sd.R_plus[1] == pytest.approx(-1.0, abs=1e-6)


def test_unexplained_zero_wronskian_raises(gw_pot):
    # W(0) = 0 on the grid contradicts a non-resonant report
    rep = classify_resonance(gw_pot)
    assert not rep.resonant
    jp = compute_h(gw_pot, [0.0], np.array([-0.4, 0.0, 0.4]), +1)
    jm = compute_h(gw_pot, [0.0], np.array([-0.4, 0.0, 0.4]), -1)
    w, wp, wm, _ = wronskians(jp, jm, x_check=(0.0,))
    w[1] = 0.0
    with pytest.raises(CrossCheckError):
        scattering_matrix(w, (wp, wm), jp.k_grid, resonance=rep)


def test_bound_states_pt():
    states = bound_states(catalog("poeschl_teller"))
    assert len(states) == 1
    st = states[0]
    kappa, energy, psi_ref, c_ref = oracles.pt_bound_state()
    assert st.kappa == pytest.approx(kappa, abs=1e-8)
    assert st.energy == pytest.approx(energy, abs=1e-8)
    assert st.c_plus == pytest.approx(c_ref, abs=1e-6)
    assert st.c_minus == pytest.approx(c_ref, abs=1e-6)  # even state
    assert np.max(np.abs(st.psi - psi_ref(st.x_grid))) < 1e-6
    assert not st.near_threshold
    assert np.trapezoid(st.psi**2, st.x_grid) == pytest.approx(1.0, abs=1e-6)


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
    assert not st.near_threshold
    assert np.trapezoid(st.psi**2, st.x_grid) < 1.0  # visible tail mass outside the box


def test_bound_states_free_empty():
    assert bound_states(catalog("free")) == ()
