from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import fresnel

from scatterlab.oscquad import (
    _restrict,
    fresnel_weights,
    full_line_integral,
    truncation_tail,
)


def _quad_oracle(amp, t, b, lo, hi, pieces=40):
    """Adaptive reference for ∫ e^{−i(tk²−bk)} amp(k) dk, piecewise so the
    oscillation count per call stays small."""
    edges = np.linspace(lo, hi, pieces + 1)
    total = 0.0 + 0.0j
    for a, c in zip(edges[:-1], edges[1:]):
        re = quad(lambda k: (np.exp(-1j * (t * k * k - b * k)) * amp(k)).real,
                  a, c, epsabs=1e-13, limit=400)[0]
        im = quad(lambda k: (np.exp(-1j * (t * k * k - b * k)) * amp(k)).imag,
                  a, c, epsabs=1e-13, limit=400)[0]
        total += re + 1j * im
    return total


def test_full_line_closed_form():
    # t = 1, b = 0 is the classical Fresnel value √π e^{−iπ/4}
    v = full_line_integral(1.0, 0.0)
    assert abs(v - np.sqrt(np.pi) * np.exp(-0.25j * np.pi)) < 1e-15
    # |∫| = √(π/t) for every b
    for t, b in ((0.5, 1.3), (12.0, -4.0), (900.0, 0.2)):
        assert abs(abs(full_line_integral(t, b)) - np.sqrt(np.pi / t)) < 1e-13


@pytest.mark.parametrize("t,b", [(1.0, 0.0), (10.0, 3.0), (37.0, -2.5), (1000.0, 0.7)])
def test_unit_amplitude_matches_adaptive_quad(t, b):
    # amplitude ≡ 1: the weight sum is the panel-moment telescoping, compare
    # against scipy's adaptive rule on a window with a few hundred oscillations
    K = max(3.0, 40.0 / np.sqrt(t))
    k = np.linspace(-K, K, 41)  # deliberately coarse: weights are exact here
    got = complex(np.sum(fresnel_weights(k, t, b)))
    ref = _quad_oracle(lambda k: 1.0, t, b, -K, K, pieces=120)
    assert abs(got - ref) < 5e-13


def test_linear_amplitude_exact_on_irregular_nodes():
    rng = np.random.default_rng(7)
    k = np.sort(rng.uniform(-5.0, 5.0, 9))
    k[0], k[-1] = -5.0, 5.0
    t, b = 6.0, 1.1
    amp = 0.7 - 0.3 * k
    got = complex(fresnel_weights(k, t, b) @ amp)
    ref = _quad_oracle(lambda k: 0.7 - 0.3 * k, t, b, -5.0, 5.0, pieces=80)
    assert abs(got - ref) < 5e-13  # exact up to roundoff despite huge panels


def _linear_oracle(alpha, beta, t, b, lo, hi):
    """∫_lo^hi e^{−i(tk²−bk)} (α + βk) dk without erf: the part along
    φ′ = 2tk − b integrates in closed form, the constant part through the
    Fresnel integrals C, S."""
    c1, c0 = beta / (2.0 * t), alpha + beta * b / (2.0 * t)
    phase = lambda k: np.exp(-1j * (t * k * k - b * k))  # noqa: E731
    along = 1j * (phase(hi) - phase(lo))
    sc = np.sqrt(2.0 * t / np.pi)
    S, C = fresnel(np.array([lo, hi]) * sc - b / (2.0 * t) * sc)
    const = np.exp(1j * b * b / (4.0 * t)) * np.diff(C - 1j * S)[0] / sc
    return c1 * along + c0 * const


@settings(max_examples=60, deadline=None)
@given(
    start=st.floats(-6.0, 0.0),
    gaps=st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=39),
    t=st.floats(1.0, 100.0),
    b=st.floats(-10.0, 10.0),
    alpha=st.floats(-2.0, 2.0),
    beta=st.floats(-2.0, 2.0),
)
def test_linear_amplitude_exact_on_random_nodes(start, gaps, t, b, alpha, beta):
    k = start + np.concatenate([[0.0], np.cumsum(gaps)])
    got = complex(fresnel_weights(k, t, b) @ (alpha + beta * k))
    ref = _linear_oracle(alpha, beta, t, b, k[0], k[-1])
    assert abs(got - ref) <= 1e-13 * (1.0 + abs(alpha) + 6.0 * abs(beta))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-4.0, 0.0),
    h=st.floats(0.05, 0.5),
    panels=st.integers(1, 16),
    t=st.floats(1.0, 1000.0),
    b=st.floats(-10.0, 10.0),
)
def test_restriction_equals_coarse_weights(lo, h, panels, t, b):
    # a coarse hat function is piecewise linear on the fine nodes, so the
    # restricted weights are the weights of the 2h and 4h node sets.  The
    # weights' own roundoff grows like max|k − b/2t|/h (k·m0 − m1 cancels),
    # so the node sets keep that ratio below 250.
    k = lo + h * np.arange(4 * panels + 1)
    w = fresnel_weights(k, t, b)
    scale = np.max(np.abs(w))
    w2 = _restrict(w)
    assert np.max(np.abs(w2 - fresnel_weights(k[::2], t, b))) <= 1e-12 * scale
    assert np.max(np.abs(_restrict(w2) - fresnel_weights(k[::4], t, b))) <= 1e-12 * scale


def test_gaussian_amplitude_closed_form():
    # ∫ e^{−i(tk²−bk)} e^{−k²} dk = √(π/(1+it)) e^{−b²/(4(1+it))}
    t, b, K = 3.0, 1.5, 60.0
    k = np.linspace(-K, K, 24001)
    got = complex(fresnel_weights(k, t, b) @ np.exp(-k * k))
    ref = np.sqrt(np.pi / (1.0 + 1j * t)) * np.exp(-b * b / (4.0 * (1.0 + 1j * t)))
    assert abs(got - ref) < 1e-5  # h²·∫|A''|/8 scale at h = 0.005 (measured 3.3e-6)


def test_interpolation_error_order():
    # halving h divides the error by ~4 (piecewise-linear amplitude model)
    t, b, K = 3.0, 1.5, 12.0
    ref = np.sqrt(np.pi / (1.0 + 1j * t)) * np.exp(-b * b / (4.0 * (1.0 + 1j * t)))
    errs = []
    for n in (401, 801, 1601):
        k = np.linspace(-K, K, n)
        errs.append(abs(complex(fresnel_weights(k, t, b) @ np.exp(-k * k)) - ref))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_weights_reflection_symmetry():
    # k → −k sends b → −b: flipped weights for −b equal the weights for b
    k = np.linspace(-9.0, 9.0, 301)
    wp = fresnel_weights(k, 5.0, 2.2)
    wm = fresnel_weights(k, 5.0, -2.2)
    assert np.max(np.abs(wp - wm[::-1])) < 1e-11


def test_truncation_tail_value_and_guard():
    assert truncation_tail(0.3, 0.1, 2.0, 1.0, 10.0) == pytest.approx(0.4 / 39.0)
    with pytest.raises(ValueError):
        truncation_tail(0.3, 0.1, 0.01, 50.0, 10.0)  # phase turns inside the cut


def test_subnormal_gap_raises():
    # 1/h overflows for a subnormal gap; the smallest normal gap is fine
    with pytest.raises(ValueError):
        fresnel_weights([0.0, 2.225e-311], 1.0, 0.0)
    assert np.all(np.isfinite(fresnel_weights([0.0, np.finfo(float).tiny], 1.0, 0.0)))


def test_validation():
    k = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        full_line_integral(0.0, 1.0)
    with pytest.raises(ValueError):
        fresnel_weights(k, -2.0, 0.0)
    with pytest.raises(ValueError):
        fresnel_weights(np.array([0.0, 0.0, 1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        fresnel_weights(np.array([0.5]), 1.0, 0.0)
    with pytest.raises(ValueError):
        _restrict(np.ones(4))
