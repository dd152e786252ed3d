from __future__ import annotations

import numpy as np
import pytest

from scatterlab.decay import decay_fit, run_experiment, weighted_norm
from scatterlab.propagator import KernelSlice, pac_slices


def _slice_of(G, t=10.0, x=None):
    x = np.linspace(-2.0, 2.0, G.shape[0]) if x is None else x
    z = np.zeros_like(G)
    return KernelSlice(x_grid=x, y_grid=x, t=t, pac=G, p0_term=z, G=G,
                       quadrature_error=np.zeros(G.shape))


def test_decay_fit_exact_power_law():
    t = np.geomspace(10.0, 1000.0, 12)
    exp, conf = decay_fit(t, t**-1.5)
    assert abs(exp - 1.5) < 1e-12
    assert conf < 1e-12


def test_decay_fit_approaches_asymptote():
    model = lambda t: 3.0 * t**-1.5 * (1.0 + 0.1 / np.sqrt(t))
    t1 = np.geomspace(10.0, 1000.0, 12)
    t2 = np.geomspace(1e4, 1e6, 12)
    e1 = decay_fit(t1, model(t1))[0]
    e2 = decay_fit(t2, model(t2))[0]
    assert abs(e2 - 1.5) < abs(e1 - 1.5)
    assert abs(e2 - 1.5) < 1e-3
    assert abs(e1 - 1.5) < 0.02  # the contamination is mild even early


def test_decay_fit_validation():
    t = np.geomspace(10.0, 1000.0, 12)
    with pytest.raises(ValueError):
        decay_fit(t[:6], t[:6] ** -1.5)
    with pytest.raises(ValueError):
        decay_fit(np.geomspace(10.0, 100.0, 12), np.geomspace(10.0, 100.0, 12) ** -1.5)
    with pytest.raises(ValueError):
        decay_fit(t, np.zeros(12))
    with pytest.raises(ValueError):
        decay_fit(t, t[:-1] ** -1.5)
    bumped = t**-1.5
    bumped[5] *= 3.0
    with pytest.warns(RuntimeWarning):
        exp, _ = decay_fit(t, bumped)
    assert 1.0 < exp < 2.0


def test_weighted_norm_zero_kernel():
    assert weighted_norm(_slice_of(np.zeros((9, 9), dtype=complex)), 2.0) == 0.0


def test_weighted_norm_picks_weighted_max():
    G = np.zeros((5, 5), dtype=complex)
    G[2, 2] = 1.0  # at x = y = 0 the weight is 1
    ks = _slice_of(G, x=np.linspace(-2.0, 2.0, 5))
    assert weighted_norm(ks, 2.0) == pytest.approx(1.0)
    assert weighted_norm(ks, 0.0) == pytest.approx(1.0)


def test_weighted_norm_free_phase_bound(free_pd):
    # |e^{iθ}−1| ≤ |θ| turns the free G into an explicit pointwise bound
    ks = pac_slices(free_pd, [100.0])[0]
    b = ks.y_grid[None, :] - ks.x_grid[:, None]
    w = (1.0 + np.abs(ks.x_grid)) ** -2.0
    bound = np.max(w[:, None] * (b * b / 400.0) / np.sqrt(400.0 * np.pi) * w[None, :])
    norm = weighted_norm(ks, 2.0)
    assert 0.0 < norm <= bound * (1.0 + 1e-12)


def test_free_experiment(free_pd):
    rep = run_experiment(free_pd)
    assert rep.potential_label == "free"
    assert rep.resonant
    assert abs(rep.fitted_exponent - 1.5) < 0.05
    assert abs(rep.control_exponent - 0.5) < 0.05
    assert not rep.error_dominated
    assert rep.times.size == 12 and rep.fit_window == (10.0, 1000.0)
    assert np.all(rep.weighted_norms > 0.0) and np.all(np.diff(rep.weighted_norms) < 0.0)
    assert rep.grid_spec["x_step"] == pytest.approx(0.25)
    assert rep.confidence > 0.0
    assert rep.exterior_coefficient is not None and rep.exterior_coefficient < 1.0
    assert rep.runtime_seconds > 0.0


def test_pt_two_point_ratio(pt_pd):
    slices = pac_slices(pt_pd, [10.0, 100.0, 1000.0])
    n10, n100, n1000 = (weighted_norm(ks, 2.0) for ks in slices)
    assert abs(n100 / n10 / 10.0**-1.5 - 1.0) < 0.3
    assert abs(n1000 / n100 / 10.0**-1.5 - 1.0) < 0.3


def test_exponent_stable_under_grid_refinement(pt_pd, pt_pd_fine):
    coarse = run_experiment(pt_pd, n_times=8)
    fine = run_experiment(pt_pd_fine, n_times=8)
    assert abs(coarse.fitted_exponent - fine.fitted_exponent) < 0.05
