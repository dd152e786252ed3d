from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from scatterlab.errors import CrossCheckError, TruncationError
from scatterlab.potentials import (
    Potential,
    TailBound,
    catalog,
    cutoff_for_eta,
    eta,
    from_spec,
    gamma_moment,
    load_sampled,
    moment_norm,
    scale_potential,
    to_spec,
)

import oracles


def test_catalog_defaults():
    sw = catalog("square_well")
    assert sw.params == {"v0": pytest.approx(np.pi**2 / 4), "a": 1.0}
    assert sw.breakpoints == (-1.0, 1.0)
    gw = catalog("gaussian_well")
    assert gw.params == {"depth": 0.1, "width": 1.0}
    with pytest.raises(ValueError):
        catalog("nope")
    with pytest.raises(ValueError):
        catalog("square_well", v0=-1.0)
    with pytest.raises(ValueError):
        catalog("square_well", junk=2.0)


def test_evaluators_vectorised():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(catalog("free")(x), 0.0)
    assert np.allclose(catalog("poeschl_teller")(x), -2.0 / np.cosh(x) ** 2)
    sw = catalog("square_well", v0=2.0, a=0.5)
    assert np.allclose(sw(np.array([-0.4, 0.0, 0.6])), [-2.0, -2.0, 0.0])
    assert float(sw(0.5)) == -2.0  # closed well includes the edge


def test_moment_norms_closed_form():
    pt = catalog("poeschl_teller")
    sw = catalog("square_well")
    gw = catalog("gaussian_well")
    # ∫ 2 sech² = 4 and ∫ (1+|x|) 2 sech² = 4 + 4 ln 2
    assert moment_norm(pt, 0.0) == pytest.approx(4.0, abs=1e-10)
    assert moment_norm(pt, 1.0) == pytest.approx(4.0 + 4.0 * math.log(2.0), abs=1e-10)
    assert moment_norm(sw, 0.0) == pytest.approx(np.pi**2 / 2, abs=1e-10)
    assert moment_norm(sw, 1.0) == pytest.approx(3 * np.pi**2 / 4, abs=1e-10)
    assert moment_norm(gw, 0.0) == pytest.approx(0.1 * math.sqrt(math.pi), abs=1e-12)


def test_two_quadrature_schemes_agree():
    # the moment rule against adaptive quadpack, reaching out to where the
    # weighted tail bound is below 1e-16
    for pot in (catalog("poeschl_teller"), catalog("square_well"), catalog("gaussian_well")):
        for sigma in (0.0, 1.0, 2.0):
            x_max = max(pot.tail.radius, 1.0)
            while pot.tail.weighted_tail(x_max, sigma) > 1e-16:
                x_max *= 1.5
            a = moment_norm(pot, sigma)
            b = oracles.moment_norm_quad(pot, pot.breakpoints, sigma, x_max)
            assert abs(a - b) < 1e-8 * max(1.0, a)


def test_eta_gamma_closed_form():
    pt = catalog("poeschl_teller")
    sw = catalog("square_well")
    assert eta(pt, 0.0, +1) == pytest.approx(2.0, abs=1e-10)
    assert eta(pt, 0.0, -1) == pytest.approx(2.0, abs=1e-10)
    # ±∫_0^{±∞} y · 2 sech²y dy = 2 ln 2
    assert gamma_moment(pt, 0.0, +1) == pytest.approx(2 * math.log(2), abs=1e-10)
    assert gamma_moment(pt, 0.0, -1) == pytest.approx(2 * math.log(2), abs=1e-10)
    assert eta(sw, 0.0, +1) == pytest.approx(np.pi**2 / 4, abs=1e-12)
    assert gamma_moment(sw, -1.0, +1) == pytest.approx(np.pi**2 / 2, abs=1e-10)
    # η decreases and vanishes past the support
    assert eta(sw, 2.0, +1) == 0.0
    assert eta(pt, 8.0, +1) < eta(pt, 2.0, +1) < eta(pt, 0.0, +1)


def _gw_tails(depth, width, x):
    """η₊ and γ₊ of the Gaussian well in 40 digits: the erfc forms."""
    eta_ref, gamma_ref = [], []
    with mpmath.workdps(40):
        for xi in x:
            z = mpmath.mpf(float(xi)) / width
            mass = depth * width * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfc(z)
            eta_ref.append(float(mass))
            gamma_ref.append(float(depth * width**2 / 2 * mpmath.exp(-z * z) - float(xi) * mass))
    return np.array(eta_ref), np.array(gamma_ref)


def _tail_closed_forms():
    # (potential, x, η₊(x), γ₊(x)); η₋(x) = η₊(−x) and γ₋ likewise, all
    # three being even
    x = np.linspace(-4.0, 16.0, 401)
    cases = [(catalog("poeschl_teller"), x, 4.0 / (1.0 + np.exp(2.0 * x)),
              2.0 * np.log1p(np.exp(-2.0 * x)))]
    sw = catalog("square_well")
    v0, xs = sw.params["v0"], np.linspace(-3.0, 3.0, 601)
    sw_gamma = np.where(xs <= -1.0, -2.0 * v0 * xs, v0 * np.clip(1.0 - xs, 0.0, None) ** 2 / 2)
    cases.append((sw, xs, v0 * np.clip(1.0 - xs, 0.0, 2.0), sw_gamma))
    for width in (1.0, 0.1, 0.01):
        xg = width * np.linspace(-4.0, 6.0, 401)
        cases.append((catalog("gaussian_well", width=width), xg, *_gw_tails(0.1, width, xg)))
    return cases


@pytest.mark.parametrize(
    "case", range(5), ids=["pt", "sw", "gw_width_1", "gw_width_0.1", "gw_width_0.01"]
)
@pytest.mark.parametrize("side", [+1, -1])
def test_eta_gamma_match_closed_forms(case, side):
    # η within 1e-13 and γ within 1e-12 relative wherever they are ≥ 1e-12,
    # evaluated in one call on the whole array
    pot, x, eta_ref, gamma_ref = _tail_closed_forms()[case]
    got_eta, got_gamma = eta(pot, side * x, side), gamma_moment(pot, side * x, side)
    assert got_eta.shape == got_gamma.shape == x.shape
    for got, ref, tol in ((got_eta, eta_ref, 1e-13), (got_gamma, gamma_ref, 1e-12)):
        big = ref >= 1e-12
        assert np.max(np.abs(got[big] - ref[big]) / ref[big]) < tol
        assert np.max(np.abs(got[~big]), initial=0.0) < 2e-12
    # a point alone meets the array's value
    assert eta(pot, float(side * x[7]), side) == pytest.approx(got_eta[7], rel=1e-13)


def test_cutoff_for_eta_honours_tolerance():
    pt = catalog("poeschl_teller")
    X = cutoff_for_eta(pt, 1e-10)
    assert pt.tail.eta_tail(X) <= 1e-10
    assert eta(pt, X, +1) <= 1e-10  # the true tail respects the bound
    sw = catalog("square_well")
    assert cutoff_for_eta(sw, 1e-14) == 1.0  # compact support


def test_truncation_error_for_slow_tails():
    slow = Potential(
        label="slow_power",
        evaluator=lambda x: (1.0 + np.abs(np.asarray(x, float))) ** -1.5,
        tail=TailBound("power", 0.0, 1.0, 1.5),
    )
    assert slow.moment_order == pytest.approx(0.5)
    assert moment_norm(slow, 0.0) > 0  # σ = 0 integrable: 2/(0.5) = 4
    with pytest.raises(TruncationError):
        moment_norm(slow, 1.0)  # (1+|x|)^{-0.5} is not integrable
    with pytest.raises(TruncationError):
        gamma_moment(slow, 0.0, +1)  # nor is (y − x)|V|


def test_moment_rule_raises_where_halving_cannot_converge():
    # an oscillation far below the cell scale fails every halving check: the
    # rule raises once too many cells are left, instead of halving on
    fast = Potential(
        label="fast",
        evaluator=lambda x: np.sin(1e9 * np.asarray(x, float)),
        tail=TailBound("compact", 1.0),
    )
    with pytest.raises(CrossCheckError):
        eta(fast, 0.0, +1)


def test_scale_potential():
    pt = catalog("poeschl_teller")
    half = scale_potential(pt, 0.5)
    x = np.linspace(-2, 2, 9)
    assert np.allclose(half(x), 0.5 * pt(x))
    assert half.tail.coef == pytest.approx(4.0)
    assert moment_norm(half, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_spec_round_trip():
    sw = catalog("square_well", v0=3.0, a=0.7)
    back = from_spec(to_spec(sw))
    x = np.linspace(-1, 1, 11)
    assert np.allclose(back(x), sw(x))
    assert back.breakpoints == sw.breakpoints

    sc = from_spec(to_spec(scale_potential(sw, -2.0)))
    assert np.allclose(sc(x), -2.0 * sw(x))
    assert sc.breakpoints == sw.breakpoints

    xs = np.linspace(-6, 6, 121)
    sampled = load_sampled(xs, -2.0 / np.cosh(xs) ** 2)
    back = from_spec(to_spec(sampled))
    probe = np.linspace(-8, 8, 33)
    assert np.array_equal(back(probe), sampled(probe))
    assert back.tail == sampled.tail


def test_scaled_spec_honours_tail_bound():
    # the spec's tail_bound replaces the scaled one, as for catalog and
    # sampled potentials; the CLI's potential.tail_bound key reads it
    spec = to_spec(scale_potential(catalog("square_well", v0=2.0, a=1.3), 2.0))
    spec["tail_bound"]["radius"] = 5.0
    pot = from_spec(spec)
    assert pot.tail == TailBound("compact", 5.0, 0.0, 0.0)
    assert cutoff_for_eta(pot, 1e-10) == 5.0
    assert to_spec(pot) == spec


_CATALOG = st.one_of(
    st.sampled_from(["free", "poeschl_teller"]).map(catalog),
    st.builds(
        lambda v0, a: catalog("square_well", v0=v0, a=a),
        st.floats(0.1, 20.0),
        st.floats(0.1, 3.0),
    ),
    st.builds(
        lambda d, w: catalog("gaussian_well", depth=d, width=w),
        st.floats(0.01, 5.0),
        st.floats(0.2, 3.0),
    ),
)


def _sampled(start, gaps, v):
    try:
        return load_sampled(start + np.cumsum([0.0] + gaps), v[: len(gaps) + 1])
    except ValueError:  # no finite tail fit: the loader asks for a TailBound
        reject()


_SAMPLED = st.builds(
    _sampled,
    st.floats(-6.0, 0.0),
    st.lists(st.floats(0.05, 1.0), min_size=3, max_size=23),
    st.lists(st.floats(-3.0, 3.0), min_size=24, max_size=24),
)


@st.composite
def _potentials(draw):
    pot = draw(st.one_of(_CATALOG, _SAMPLED))
    for s in draw(st.lists(st.floats(-4.0, 4.0).filter(lambda s: s != 0.0), max_size=2)):
        pot = scale_potential(pot, s)
    return pot


@settings(max_examples=40, deadline=None)
@given(pot=_potentials())
def test_spec_round_trip_drawn(pot):
    spec = to_spec(pot)
    back = from_spec(spec)
    probe = np.linspace(-8.0, 8.0, 41)
    assert np.array_equal(back(probe), pot(probe))
    assert back.label == pot.label
    assert back.tail == pot.tail
    assert back.breakpoints == pot.breakpoints
    assert to_spec(back) == spec


def test_sampled_tail_fit_near_underflow():
    # a subnormal sample stays out of the fit: no inf coef, no NaN past the
    # samples
    pot = load_sampled([-4.0, -3.0, -2.0, -1.0], [0.0, 0.0, 2.225e-311, 1.0])
    assert math.isfinite(pot.tail.coef) and math.isfinite(pot.tail.rate)
    probe = np.concatenate([np.linspace(-8.0, -5.0, 7), np.linspace(2.0, 8.0, 13)])
    assert np.all(np.isfinite(pot(probe)))

    # a fit that extrapolates past the largest double asks for a TailBound
    xs = np.array([100.0, 101.0, 102.0, 103.0])
    with pytest.raises(ValueError, match="TailBound"):
        load_sampled(xs, np.exp(-10.0 * (xs - 100.0)))
    assert load_sampled(xs, np.exp(-10.0 * (xs - 100.0)), tail=TailBound("compact", 103.0))


def test_sampled_spec_from_csv_equals_arrays(tmp_path):
    xs = np.linspace(-6, 6, 121)
    vs = -2.0 / np.cosh(xs) ** 2
    path = tmp_path / "well.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",")
    probe = np.linspace(-8, 8, 33)
    for tb in (None, {"kind": "compact", "radius": 6.0, "coef": 0.0, "rate": 0.0}):
        extra = {} if tb is None else {"tail_bound": tb}
        from_csv = from_spec({"name": "sampled", "params": {"csv": str(path)}, **extra})
        from_arrays = from_spec(
            {"name": "sampled", "params": {"x": xs.tolist(), "v": vs.tolist()}, **extra}
        )
        assert to_spec(from_csv) == to_spec(from_arrays)
        assert np.array_equal(from_csv(probe), from_arrays(probe))


def test_sampled_envelope_on_arrays():
    # TailBound.envelope takes arrays; the sampled evaluator applies it only
    # past the window: inside it is the spline bit for bit, outside it
    # meets the pointwise math form to 1e-15
    from scipy.interpolate import CubicSpline

    for tail in (TailBound("exp", 6.0, 3.0, 2.0), TailBound("power", 6.0, 3.0, 4.0)):
        z = np.linspace(-30.0, 30.0, 241)
        pointwise = np.array([
            tail.coef * (math.exp(-tail.rate * abs(t)) if tail.kind == "exp"
                         else (1.0 + abs(t)) ** -tail.rate)
            for t in z
        ])
        assert np.max(np.abs(tail.envelope(z) - pointwise) / pointwise) <= 1e-15
    assert np.array_equal(TailBound("compact", 1.0).envelope(z), np.zeros_like(z))

    xs = np.linspace(-6.0, 6.0, 121)
    vs = -2.0 / np.cosh(xs) ** 2
    pot = load_sampled(xs, vs)
    z = np.linspace(-20.0, 20.0, 4001)
    inside = (z >= xs[0]) & (z <= xs[-1])
    got = pot(z)
    assert np.array_equal(got[inside], CubicSpline(xs, vs)(z[inside]))
    edge = np.where(z < 0, abs(vs[0]), abs(vs[-1]))
    env = np.array([pot.tail.coef * math.exp(-pot.tail.rate * abs(t)) for t in z])
    ref = -np.minimum(env, edge)
    assert np.max(np.abs(got[~inside] - ref[~inside]) / np.abs(ref[~inside])) <= 1e-15
    assert pot(np.array(-20.0)).shape == () and float(pot(-20.0)) == pytest.approx(ref[0], rel=1e-15)


def test_load_sampled_arrays_and_csv(tmp_path):
    xs = np.linspace(-10, 10, 801)
    vs = -2.0 / np.cosh(xs) ** 2
    pot = load_sampled(xs, vs)
    probe = np.linspace(-5, 5, 101)
    assert np.max(np.abs(pot(probe) + 2.0 / np.cosh(probe) ** 2)) < 1e-6
    assert pot.tail.kind == "exp"
    # fitted envelope must dominate the true tail beyond the samples
    assert pot.tail.envelope(12.0) >= 2.0 / np.cosh(12.0) ** 2

    path = tmp_path / "well.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",")
    pot2 = load_sampled(str(path))
    assert np.allclose(pot2(probe), pot(probe))

    # explicit tail override wins
    pot3 = load_sampled(xs, vs, tail=TailBound("compact", 10.0))
    assert float(pot3(12.0)) == 0.0

    with pytest.raises(ValueError):
        load_sampled(xs[:3], vs[:3])


# η± and γ± of the CSV-sampled sech² well below, by adaptive quadpack
# (epsabs 1e-14, epsrel 1e-12) split at every knot and kink
_SAMPLED_QUADPACK = {
    ("eta", -12.0, +1): 4.000000011127585,
    ("eta", -12.0, -1): 3.020108322271669e-10,
    ("eta", 0.0, +1): 2.0000000057140506,
    ("eta", 0.0, -1): 2.0000000057140497,
    ("eta", 3.0, +1): 0.009890477436588118,
    ("eta", 3.0, -1): 3.9901095339930084,
    ("gamma_moment", -12.0, +1): 48.00000013730619,
    ("gamma_moment", -12.0, -1): 1.510054221827411e-10,
    ("gamma_moment", 0.0, +1): 1.3862949872327597,
    ("gamma_moment", 0.0, -1): 1.3862949872327595,
    ("gamma_moment", 3.0, +1): 0.004951403413671831,
    ("gamma_moment", 3.0, -1): 12.004951437702456,
}


def test_sampled_tail_moments_converge_with_the_kinks(tmp_path):
    # the CSV-sampled sech² well with the automatic exponential tail: |V| is a
    # C² spline up to the window edges, then min(envelope, |edge sample|).
    # Split at every knot and kink, each cell passes its first halving
    # check: V is evaluated three times (cells, left halves, right halves).
    # Without the kinks the cells around them are halved further.
    import dataclasses

    xs = np.linspace(-10.0, 10.0, 201)
    path = tmp_path / "well.csv"
    np.savetxt(path, np.column_stack([xs, -2.0 / np.cosh(xs) ** 2]), delimiter=",")
    pot = from_spec({"name": "sampled", "params": {"csv": str(path)}})

    def counted(p):
        calls = []
        return dataclasses.replace(p, evaluator=lambda z: calls.append(1) or p.evaluator(z)), calls

    for fn in (eta, gamma_moment):
        for x in (-12.0, 0.0, 3.0):
            for side in (+1, -1):
                kinked, calls = counted(pot)
                value = fn(kinked, x, side)
                assert len(calls) == 3
                blind, blind_calls = counted(dataclasses.replace(pot, kinks=()))
                before = fn(blind, x, side)
                if side * x < 10.0:  # the path [side·x, ∞) crosses the window
                    assert len(blind_calls) > 3
                for ref in (before, _SAMPLED_QUADPACK[fn.__name__, x, side]):
                    assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
