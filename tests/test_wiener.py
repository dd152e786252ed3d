from __future__ import annotations

import numpy as np
import pytest

from scatterlab.wiener import _taper, a_norm, derivative_a_norms, difference_quotient_norm

import oracles

K = np.linspace(-60.0, 60.0, 24001)


def test_analytic_pairs():
    # profile of 1/(1+k²) is e^{−|p|}/2, of e^{−k²} is e^{−p²/4}/(2√π)
    est = a_norm(K, 1.0 / (1.0 + K**2))
    assert est.hat_l1 == pytest.approx(1.0, abs=1e-6)
    assert est.converged
    assert est.tail_fraction < 1e-9
    est = a_norm(K, np.exp(-(K**2)))
    assert est.hat_l1 == pytest.approx(1.0, abs=1e-12)
    assert est.converged


def test_constant_function():
    est = a_norm(K, np.ones_like(K), 1.0)
    assert est.hat_l1 == 0.0
    assert est.a1_norm == 1.0
    assert est.converged


def test_grid_validation():
    with pytest.raises(ValueError):
        a_norm(np.array([-1.0, -0.4, 0.3, 1.0]), np.ones(4))
    with pytest.raises(ValueError):
        a_norm(np.linspace(0.0, 2.0, 21), np.ones(21))  # not symmetric


def test_taper_fraction_lies_in_zero_to_one():
    # 0 leaves the window untapered and 1 tapers all of it; outside [0, 1]
    # the window is not a taper (1.5 turns the cosine past its zero, and a
    # negative fraction would silently leave the window untapered) and raises
    assert np.array_equal(_taper(K, 0.0), np.ones_like(K))
    w = _taper(K, 1.0)
    assert w[K.size // 2] == 1.0 and abs(w[0]) < 1e-30 and np.all((w >= 0.0) & (w <= 1.0))
    for frac in (1.5, -0.5, np.nan):
        with pytest.raises(ValueError, match="taper fraction"):
            _taper(K, frac)
        with pytest.raises(ValueError, match="taper fraction"):
            a_norm(K, 1.0 / (1.0 + K**2), taper_frac=frac)


def test_pt_transmission_derivative_norms():
    # T − 1 = 2i/(k−i): profile −2e^p on p < 0, so the norms are 2, 2, 4
    T = oracles.pt_transmission(K)
    ests = derivative_a_norms(K, T, 2, limit_at_infinity=1.0)
    assert ests[0].hat_l1 == pytest.approx(2.0, abs=0.05)
    assert ests[1].hat_l1 == pytest.approx(2.0, abs=0.01)
    assert ests[2].hat_l1 == pytest.approx(4.0, abs=0.01)
    assert all(e.converged for e in ests)
    with pytest.raises(ValueError):
        derivative_a_norms(K, T, 4)


def test_quotient_trivial():
    # a constant has the zero quotient, and the quotient of a bounded f has
    # no constant part
    est = difference_quotient_norm(K, np.full(K.size, 2.5 + 1j), 2.5 + 1j)
    assert est.hat_l1 == 0.0
    assert est.a1_norm == 0.0
    assert est.converged


def test_quotient_pt_transmission():
    # (T(k) − T(0))/k = 2/(k−i) has norm 2
    T = oracles.pt_transmission(K)
    est = difference_quotient_norm(K, T, -1.0)
    assert est.hat_l1 == pytest.approx(2.0, abs=0.05)
    assert est.converged


def test_quotient_needs_zero_on_grid():
    k = np.linspace(-1.0, 1.0, 24)  # symmetric but skips 0
    with pytest.raises(ValueError):
        difference_quotient_norm(k, np.ones(24, complex), 1.0)
    # 0 on the grid, but without room for the k = 0 stencil
    with pytest.raises(ValueError, match="away from its ends"):
        difference_quotient_norm(np.linspace(-1.0, 1.0, 3), np.ones(3, complex), 1.0)


def test_h_quotient_norm_bounded_along_x():
    # (h₊(x,k) − h₊(x,0))/k = i(1−tanh x)/(ik−1): norm 1−tanh x.  The
    # uniform-in-x statement is about the bound (the x = 0 value); the
    # norms themselves decay as x grows.
    norms = []
    for x in (0.0, 1.0, 5.0):
        h = oracles.pt_h_plus(x, K)
        est = difference_quotient_norm(K, h, np.tanh(x))
        assert est.hat_l1 == pytest.approx(1.0 - np.tanh(x), abs=0.02)
        norms.append(est.hat_l1)
    assert norms[0] > norms[1] > norms[2]
    assert max(norms) == norms[0]


def test_submultiplicative_on_random_pairs():
    rng = np.random.default_rng(7)

    def bump_mix():
        c = rng.uniform(-3.0, 3.0, 4)
        w = rng.uniform(0.5, 2.0, 4)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        return np.sum(
            a[:, None] * np.exp(-((K[None, :] - c[:, None]) ** 2) / w[:, None] ** 2),
            axis=0,
        )

    for _ in range(6):
        f, g = bump_mix(), bump_mix()
        nf = a_norm(K, f).hat_l1
        ng = a_norm(K, g).hat_l1
        nfg = a_norm(K, f * g).hat_l1
        assert nfg <= nf * ng * 1.05 + 1e-12


def test_wiener_lemma_proxy():
    f = 2.0 + 1.0 / (1.0 + K**2)  # nonvanishing, in the unital algebra
    est = a_norm(K, 1.0 / f, limit_at_infinity=0.5)
    assert est.converged
    assert est.hat_l1 < 0.5  # 1/f − 1/2 is small and smooth
