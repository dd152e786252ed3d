from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import fresnel

import oracles
from oracles import fresnel_weights
from scatterlab.oscquad import (
    PanelTables,
    _half_nodes,
    _refined,
    _restrict,
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


def test_validation():
    with pytest.raises(ValueError):
        full_line_integral(0.0, 1.0)
    with pytest.raises(ValueError):
        _restrict(np.ones(4))
    # a non-finite time fails before its refinement level is sought
    k = np.linspace(-1.0, 1.0, 9)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^ts:"):
            PanelTables(k, np.array([2.0, t]), 1.0)


# the decay stage's default k grid, and the whole line refined twice
_DECAY_GRID = np.linspace(-60.0, 60.0, 24001)
_DECAY_NODES = np.linspace(-60.0, 60.0, 96001)


def _unfold(v):
    """The nodal weights w behind V = (4w − E·Rw)/3: w = 3V/4 on the odd
    nodes, and on the even ones V = w − (w₋₁ + w₊₁)/6, one-sided at the ends."""
    w = 0.75 * v
    w[::2] = v[::2]
    w[2::2] += w[1::2] / 6.0
    w[:-1:2] += w[1::2] / 6.0
    return w


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_weights_match_mpmath_on_decay_grid(t):
    # t·k² reaches 3.6e6 rad on the finest nodes k >= 0: the weights must
    # carry that phase to ~1e-12 rad.  25 drawn nodes (ends, k = 0 and
    # k = 30 included) per (t, ±b); the direct rule and the table rule (its
    # weights unfolded from V) against the same references.  The whole
    # line at b is the half line at b and at −b
    k = _half_nodes(_DECAY_GRID)
    rng = np.random.default_rng(int(t))
    idx = np.r_[0, k.size // 2, k.size - 1, rng.integers(1, k.size - 1, 22)]
    tables = PanelTables(_DECAY_GRID, np.array([t]), 16.0)
    for b in (0.0, 4.0, 16.0):
        v = next(tables._richardson(b))[0]
        for row, sb in enumerate((b, -b) if b else (b,)):
            ref = np.array([oracles.fresnel_weight_mp(k, j, t, sb) for j in idx])
            for w in (fresnel_weights(k, t, sb), _unfold(v[row])):
                assert np.max(np.abs(w[idx] - ref)) <= 1e-11 * np.max(np.abs(w))


def test_grid_weights_memory_bounded():
    # one anchor's weights on the decay stage's default grid and times are
    # built one time at a time and written straight into the (48, 12 001)
    # output of 8.8 MiB: measured peak 17.0 MiB (1.9×).  The whole V and U
    # matrices, taken onto the grid nodes afterwards, peaked at 44.0 MiB (5.0×)
    tables = PanelTables(_DECAY_GRID, np.geomspace(10.0, 1000.0, 12), 16.0)
    tracemalloc.start()
    try:
        out = tables.grid_weights(2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (48, 12001)
    assert peak <= 2.5 * out.nbytes


def _richardson_reference(k, t, b):
    """V = (4w − E·Rw)/3 and U = (4Rw − E·RRw)/3 from the direct rule."""
    w = fresnel_weights(k, t, b)
    rw = _restrict(w)
    out = []
    for x, rx in ((w, rw), (rw, _restrict(rw))):
        y = 4.0 * x
        y[::2] -= rx
        out.append(y / 3.0)
    return out


# the propagator's default and coarse k grids
_GRIDS = [_DECAY_GRID, np.linspace(-20.0, 20.0, 2001)]
# ... and its 201-node grid, where tσ̄² = 0.0056·t on the finest nodes:
# the tables of t = 10, 100 and 1000 sit on those refined 2, 4 and 16 times
_COARSE_GRID = np.linspace(-60.0, 60.0, 201)
_COARSE_NODES = _half_nodes(_COARSE_GRID)


def test_refined_nodes_keep_the_originals():
    k = _COARSE_NODES
    for level in (1, 2, 4):
        fine = _refined(k, level)
        assert fine.size == (k.size - 1) * 2**level + 1
        assert np.array_equal(fine[:: 2**level], k)
        assert np.max(np.abs(np.diff(fine) * 2**level / np.diff(k)[0] - 1.0)) < 1e-12


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_refined_weights_match_mpmath_on_coarse_grid(t):
    # a coarse panel's weights come from the tables on the refined node set,
    # restricted back; on these nodes the erf closed form was off by up to
    # 1.3e-13 · max|w|.  25 drawn nodes, ends included, per (t, b)
    k = _COARSE_NODES
    rng = np.random.default_rng(int(t))
    idx = np.r_[0, k.size - 1, rng.integers(1, k.size - 1, 23)]
    tables = PanelTables(_COARSE_GRID, np.array([t]), 16.0)
    for b in (0.0, 5.5, 16.0):
        ref = np.array([oracles.fresnel_weight_mp(k, j, t, b) for j in idx])
        w = _unfold(next(tables._richardson(b))[0][0])
        assert np.max(np.abs(w[idx] - ref)) <= 1e-14 * np.max(np.abs(w))


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([0, 1]), t=st.floats(1.0, 1000.0), b=st.floats(-16.0, 16.0))
@example(grid=0, t=1000.0, b=16.0)
@example(grid=1, t=1.0, b=-16.0)
def test_table_weights_equal_the_direct_rule(grid, t, b):
    # the per-time tables, shifted along the α lattice, summed over the
    # offset series and corrected to first order for each float panel's own
    # α, give the direct rule's V and U at b and at −b.  Without the
    # first-order term they differ by 6e-12 · max at t = 1000
    k = _half_nodes(_GRIDS[grid])
    v, u = next(PanelTables(_GRIDS[grid], np.array([t]), abs(b))._richardson(b))
    for row, sb in enumerate((b, -b)):
        for got, ref in zip((v[row], u[row]), _richardson_reference(k, t, sb)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_restriction_equals_coarse_weights_on_decay_grid(t):
    # the propagator's coarse Richardson levels come by restriction.  It is
    # exact when every second node halves its coarse panel, as on a dyadic
    # grid of the same size.  The decay grid's nodes miss those midpoints
    # by δ (up to 7e-15); the restricted hat then differs from the coarse
    # hat by a tent of height |δ|/g on a panel pair of width g, whose
    # integral against a unimodular phase is at most |δ|, once per level
    dyadic = (np.arange(_DECAY_NODES.size) - _DECAY_NODES.size // 2) / 1024.0
    for k, exact in ((dyadic, True), (_DECAY_NODES, False)):
        slack = [0.0]
        for fine in (k, k[::2]):
            dev = fine[1::2] - 0.5 * (fine[:-1:2] + fine[2::2])
            slack.append(slack[-1] + (0.0 if exact else float(np.max(np.abs(dev)))))
        for b in (0.0, 4.0, 16.0):
            w = fresnel_weights(k, t, b)
            scale = np.max(np.abs(w))
            w2 = _restrict(w)
            assert np.max(np.abs(w2 - fresnel_weights(k[::2], t, b))) <= 1e-12 * scale + slack[1]
            assert np.max(np.abs(_restrict(w2) - fresnel_weights(k[::4], t, b))) <= 1e-12 * scale + slack[2]
