"""Potential models and weighted tail moments.

Everything downstream sees a potential through point evaluation and through
the tail moments

    η±(x) = ±∫_x^{±∞} |V(y)| dy,
    γ±(x) = ±∫_x^{±∞} (y − x) |V(y)| dy,

so a ``Potential`` bundles a vectorised evaluator with enough tail metadata
(compact support, exponential bound, or power bound) to truncate those
integrals at a controlled error.  The catalog carries the standard models
used throughout: the free line, the reflectionless sech² well, the finite
square well, and a shallow Gaussian well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import TruncationError

__all__ = [
    "TailBound",
    "Potential",
    "catalog",
    "scale_potential",
    "moment_norm",
    "eta",
    "gamma_moment",
    "cutoff_for_eta",
    "from_spec",
    "to_spec",
    "load_sampled",
]

CATALOG_NAMES = ("free", "poeschl_teller", "square_well", "gaussian_well")

_REL_TAIL = 1e-12  # relative tail contribution allowed when truncating moments


@dataclass(frozen=True)
class TailBound:
    """Pointwise bound on |V| valid for |x| >= radius.

    kind:
        "compact" — V vanishes for |x| > radius;
        "exp"     — |V(x)| <= coef * exp(-rate*|x|);
        "power"   — |V(x)| <= coef * (1+|x|)**(-rate).
    """

    kind: str
    radius: float = 0.0
    coef: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("compact", "exp", "power"):
            raise ValueError(f"tail bound kind must be compact, exp or power, got {self.kind!r}")
        for name in ("radius", "coef", "rate"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"tail bound {name} must be finite and >= 0, got {val!r}")

    def envelope(self, x: float) -> float:
        if self.kind == "compact":
            return 0.0
        if self.kind == "exp":
            return self.coef * math.exp(-self.rate * abs(x))
        return self.coef * (1.0 + abs(x)) ** (-self.rate)

    def weighted_tail(self, X: float, weight_power: float) -> float:
        """Upper bound for ∫_X^∞ (1+y)^weight_power * envelope(y) dy, X >= radius."""
        X = max(X, self.radius)
        if self.kind == "compact":
            return 0.0
        if self.kind == "exp":
            # ∫ (1+y)^w C e^{-ry} dy; crude but safe: (1+y)^w <= (1+X)^w e^{w(y-X)/(1+X)}
            r_eff = self.rate - max(weight_power, 0.0) / (1.0 + X)
            if r_eff <= 0:
                return math.inf
            return self.coef * (1.0 + X) ** weight_power * math.exp(-self.rate * X) / r_eff
        p = self.rate - weight_power
        if p <= 1.0:
            return math.inf
        return self.coef * (1.0 + X) ** (1.0 - p) / (p - 1.0)

    def eta_tail(self, X: float) -> float:
        return self.weighted_tail(X, 0.0)


@dataclass(frozen=True)
class Potential:
    """A real potential on the line with tail metadata.

    evaluator must accept scalars and numpy arrays.  breakpoints lists any
    discontinuities of V (the ODE integrators split there); kinks lists
    points where V is continuous but not smooth (a sampled potential's
    spline knots and the points where its tail takes over), where the tail
    moments split their quadrature as they do at breakpoints.  moment_order is
    the largest σ with ∫(1+|x|)^σ |V| < ∞ guaranteed by the tail bound
    (math.inf for compact/exponential tails).
    """

    label: str
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    tail: TailBound = TailBound("compact", 0.0)
    breakpoints: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)
    kinks: tuple[float, ...] = ()

    def __call__(self, x):
        return self.evaluator(x)

    @property
    def moment_order(self) -> float:
        if self.tail.kind in ("compact", "exp"):
            return math.inf
        return self.tail.rate - 1.0


# ---------------------------------------------------------------------------
# catalog


def catalog(name: str, **params) -> Potential:
    """Construct a named catalog potential.

    free; poeschl_teller (V = -2 sech² x, reflectionless, one bound state);
    square_well(v0, a) (V = -v0 on [-a, a]); gaussian_well(depth, width)
    (V = -depth * exp(-(x/width)²)).
    """
    if name in ("free", "poeschl_teller"):
        _reject_extras(name, params)
    if name == "free":
        return Potential(
            label="free",
            evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            tail=TailBound("compact", 0.0),
        )
    if name == "poeschl_teller":
        # |V| = 2 sech² x <= 8 e^{-2|x|}
        return Potential(
            label="poeschl_teller",
            evaluator=lambda x: -2.0 / np.cosh(np.asarray(x, dtype=float)) ** 2,
            tail=TailBound("exp", 0.0, 8.0, 2.0),
        )
    if name == "square_well":
        v0 = float(params.pop("v0", np.pi**2 / 4))
        a = float(params.pop("a", 1.0))
        _reject_extras(name, params)
        if v0 <= 0 or a <= 0:
            raise ValueError("square_well needs v0 > 0 and a > 0")

        def well(x, _v0=v0, _a=a):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= _a, -_v0, 0.0)

        return Potential(
            label=f"square_well(v0={v0:g},a={a:g})",
            evaluator=well,
            tail=TailBound("compact", a),
            breakpoints=(-a, a),
            params={"v0": v0, "a": a},
        )
    if name == "gaussian_well":
        depth = float(params.pop("depth", 0.1))
        width = float(params.pop("width", 1.0))
        _reject_extras(name, params)
        if depth <= 0 or width <= 0:
            raise ValueError("gaussian_well needs depth > 0 and width > 0")

        def gauss(x, _d=depth, _w=width):
            x = np.asarray(x, dtype=float)
            return -_d * np.exp(-((x / _w) ** 2))

        # e^{-(x/w)²} <= C e^{-2|x|/w} with C = e (valid for all x)
        return Potential(
            label=f"gaussian_well(depth={depth:g},width={width:g})",
            evaluator=gauss,
            tail=TailBound("exp", 0.0, depth * math.e, 2.0 / width),
            params={"depth": depth, "width": width},
        )
    raise ValueError(f"unknown catalog potential {name!r}; known: {CATALOG_NAMES}")


def _reject_extras(name, params):
    if params:
        raise ValueError(f"unknown parameters for {name}: {sorted(params)}")


def scale_potential(pot: Potential, s: float) -> Potential:
    """Amplitude-scaled potential s·V with tail metadata scaled to match."""
    s = float(s)
    tail = TailBound(pot.tail.kind, pot.tail.radius, abs(s) * pot.tail.coef, pot.tail.rate)
    return Potential(
        label=f"scaled({pot.label},s={s:g})",
        evaluator=lambda x, _p=pot.evaluator, _s=s: _s * _p(x),
        tail=tail,
        breakpoints=pot.breakpoints,
        params={"base": to_spec(pot), "s": s},
        kinks=pot.kinks,
    )


# ---------------------------------------------------------------------------
# moments


def _truncation_radius(pot: Potential, weight_power: float, scale: float, tol_rel: float) -> float:
    """Smallest convenient X with weighted tail below tol_rel * scale."""
    tail = pot.tail
    if tail.kind == "compact":
        return tail.radius
    target = tol_rel * max(scale, 1e-300)
    X = max(tail.radius, 1.0)
    for _ in range(200):
        if tail.weighted_tail(X, weight_power) <= target:
            return X
        X *= 1.5
        if not math.isfinite(tail.weighted_tail(X, weight_power)):
            break
    raise TruncationError(
        f"{pot.label}: weighted tail (power {weight_power}) cannot reach "
        f"relative tolerance {tol_rel:g}"
    )


def _adaptive(f, a, b, pts):
    inner = sorted(p for p in pts if a < p < b)
    limit = max(400, 4 * len(inner))
    val, err = quad(f, a, b, points=inner or None, limit=limit, epsabs=1e-14, epsrel=1e-12)
    return val, err


def _splits(pot: Potential) -> tuple[float, ...]:
    """Points where |V| is not smooth: breakpoints and kinks."""
    return pot.breakpoints + pot.kinks


def moment_norm(pot: Potential, sigma: float, p: float = 1.0) -> float:
    """Weighted norm ( ∫ (1+|x|)^{pσ} |V|^p dx )^{1/p}.

    Truncates at a radius where the tail-bound contribution is below 1e-12
    of the accumulated integral; raises TruncationError if the tail bound
    cannot deliver that (slowly decaying potentials with σ too close to
    their moment order).
    """
    if p <= 0:
        raise ValueError("p must be positive")

    def integrand(x):
        return (1.0 + abs(x)) ** (sigma * p) * abs(float(pot(x))) ** p

    # first pass on a provisional window to get the scale, then enforce the tail
    X0 = max(pot.tail.radius, 1.0) * 4
    rough, _ = _adaptive(integrand, -X0, X0, _splits(pot))
    X = _truncation_radius(pot, sigma * p, max(rough, 1e-30), _REL_TAIL)
    val, err = _adaptive(integrand, -X, X, _splits(pot))
    return val ** (1.0 / p)


def eta(pot: Potential, x: float, side: int) -> float:
    """Tail mass η±(x) = ±∫_x^{±∞} |V| dy."""
    side = _check_side(side)
    scale0 = max(abs(float(pot(x))), pot.tail.envelope(x), 1e-30)
    X = _truncation_radius(pot, 0.0, scale0, _REL_TAIL)
    if side > 0:
        if x >= X:
            return pot.tail.eta_tail(x)
        val, _ = _adaptive(lambda y: abs(float(pot(y))), x, X, _splits(pot))
    else:
        if -x >= X:
            return pot.tail.eta_tail(-x)
        val, _ = _adaptive(lambda y: abs(float(pot(y))), -X, x, _splits(pot))
    return val


def gamma_moment(pot: Potential, x: float, side: int) -> float:
    """First tail moment γ±(x) = ±∫_x^{±∞} (y − x) |V(y)| dy (nonnegative)."""
    side = _check_side(side)
    scale0 = max(abs(float(pot(x))), pot.tail.envelope(x), 1e-30)
    X = _truncation_radius(pot, 1.0, scale0, _REL_TAIL)
    if side > 0:
        lo, hi = x, max(X, x + 1.0)
        val, _ = _adaptive(lambda y: (y - x) * abs(float(pot(y))), lo, hi, _splits(pot))
    else:
        lo, hi = min(-X, x - 1.0), x
        val, _ = _adaptive(lambda y: (x - y) * abs(float(pot(y))), lo, hi, _splits(pot))
    return val


def cutoff_for_eta(pot: Potential, tol: float) -> float:
    """Smallest convenient X with η±(±X) (tail-bound estimate, the same on
    both sides) below tol."""
    tail = pot.tail
    if tail.kind == "compact":
        return tail.radius
    X = max(tail.radius, 1.0)
    for _ in range(400):
        if tail.eta_tail(X) <= tol:
            return X
        X *= 1.25
    raise TruncationError(f"{pot.label}: η tail cannot reach {tol:g}")


def _check_side(side: int) -> int:
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    return side


# second, independent quadrature scheme (composite Gauss-Legendre); used by the
# test suite to cross-validate the adaptive scheme at 1e-8


def _moment_norm_gl(pot: Potential, sigma: float, p: float = 1.0, nodes: int = 40) -> float:
    X = _truncation_radius(pot, sigma * p, max(moment_norm(pot, sigma, p) ** p, 1e-30), _REL_TAIL)
    edges = np.unique(
        np.concatenate(
            [
                np.array([-X, X]),
                np.asarray(pot.breakpoints, dtype=float),
                np.linspace(-X, X, 65),
            ]
        )
    )
    edges = edges[(edges >= -X) & (edges <= X)]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        y = mid + half * xg
        total += half * np.sum(wg * (1.0 + np.abs(y)) ** (sigma * p) * np.abs(pot(y)) ** p)
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# serialization and sampled data


def to_spec(pot: Potential) -> dict:
    """JSON-ready description {name, params, tail_bound}."""
    name = pot.label.split("(")[0]
    return {
        "name": name,
        "params": dict(pot.params),
        "tail_bound": {
            "kind": pot.tail.kind,
            "radius": pot.tail.radius,
            "coef": pot.tail.coef,
            "rate": pot.tail.rate,
        },
    }


def from_spec(spec: dict) -> Potential:
    """Build a potential from a {name, params, tail_bound} mapping.  A
    sampled potential takes its samples as params {x, v} or from the CSV
    file params {csv: path}."""
    name = spec["name"]
    params = dict(spec.get("params", {}))
    if name == "scaled":
        base = from_spec(params["base"])
        return scale_potential(base, params["s"])
    if name == "sampled":
        tb = spec.get("tail_bound")
        tail = TailBound(**tb) if tb else None
        if "csv" in params:  # a two-column file of (x, V) samples
            return load_sampled(params["csv"], tail=tail)
        x = np.asarray(params["x"], dtype=float)
        v = np.asarray(params["v"], dtype=float)
        return load_sampled(x, v, tail=tail)
    pot = catalog(name, **params)
    tb = spec.get("tail_bound")
    if tb:
        pot = Potential(pot.label, pot.evaluator, TailBound(**tb), pot.breakpoints, pot.params)
    return pot


def load_sampled(x, v=None, tail: TailBound | None = None) -> Potential:
    """Potential from samples (cubic interpolation inside, extrapolated tail).

    x may be a path to a two-column CSV (x, V) or an array of abscissae with
    v the matching values.  Outside the sampled window the potential follows
    the fitted (or supplied) tail envelope with the sign of the nearest
    samples; pass an explicit TailBound when the automatic exponential fit
    would misrepresent the decay (e.g. power-law tails).
    """
    from scipy.interpolate import CubicSpline

    if v is None:
        data = _read_two_column(str(x))
        x, v = data[:, 0], data[:, 1]
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.size < 4:
        raise ValueError("need matching 1D arrays with at least 4 samples")
    order = np.argsort(x)
    x, v = x[order], v[order]
    spline = CubicSpline(x, v)
    lo, hi = x[0], x[-1]

    if tail is None:
        tail = _fit_exponential_tail(x, v)

    sign_lo = math.copysign(1.0, v[0]) if v[0] != 0 else 0.0
    sign_hi = math.copysign(1.0, v[-1]) if v[-1] != 0 else 0.0

    def evaluator(z, _s=spline):
        z = np.asarray(z, dtype=float)
        out = np.asarray(_s(np.clip(z, lo, hi)), dtype=float)
        if tail.kind != "compact":
            env = np.vectorize(tail.envelope)(z)
            out = np.where(z < lo, sign_lo * np.minimum(env, abs(v[0])), out)
            out = np.where(z > hi, sign_hi * np.minimum(env, abs(v[-1])), out)
        else:
            out = np.where((z < lo) | (z > hi), 0.0, out)
        return out

    # past each edge |V| is min(envelope(|z|), |edge sample|): kinks where
    # the two meet, and at z = 0 when the envelope's |z| is used there
    kinks = list(x) + ([0.0] if not lo <= 0.0 <= hi else [])
    for val, outside in ((v[0], lambda z: z < lo), (v[-1], lambda z: z > hi)):
        meet = _envelope_meets(tail, abs(val))
        if meet is not None:
            kinks += [z for z in (-meet, meet) if outside(z)]
    return Potential(
        label=f"sampled(n={x.size})",
        evaluator=evaluator,
        tail=tail,
        params={"x": x.tolist(), "v": v.tolist()},
        kinks=tuple(float(k) for k in kinks),
    )


def _envelope_meets(tail: TailBound, level: float) -> float | None:
    """The |x| where the tail envelope falls to level (None if it never does)."""
    if tail.kind == "compact" or level <= 0.0 or tail.coef <= level or tail.rate <= 0.0:
        return None
    decay = (math.log(tail.coef) - math.log(level)) / tail.rate  # rate·|x| or rate·log(1+|x|)
    if tail.kind == "exp":
        return decay
    return math.expm1(decay) if decay < 700.0 else None


def _read_two_column(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        return np.loadtxt(path, ndmin=2)


def _fit_exponential_tail(x, v) -> TailBound:
    """Fit C e^{-r|x|} to the outer decades of the samples (both sides pooled).

    Samples below the smallest normal double are left out (their logarithm
    is not resolved); a fit whose C or r is not finite raises ValueError.
    """
    n = x.size
    m = max(4, n // 10)
    xs = np.concatenate([np.abs(x[:m]), np.abs(x[-m:])])
    vs = np.concatenate([np.abs(v[:m]), np.abs(v[-m:])])
    mask = vs >= np.finfo(float).tiny
    if mask.sum() < 4:
        return TailBound("compact", float(np.max(np.abs(x))))
    slope, intercept = np.polyfit(xs[mask], np.log(vs[mask]), 1)
    rate = max(-slope, 1e-3)
    with np.errstate(over="ignore"):
        coef = float(np.exp(intercept)) * 2.0  # headroom so the fit stays an upper bound
    if not (math.isfinite(coef) and math.isfinite(rate)):
        raise ValueError(
            f"exponential tail fit failed (coef={coef}, rate={rate}); pass an explicit TailBound"
        )
    return TailBound("exp", float(np.max(np.abs(x))), coef, rate)
