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

One rule integrates V (_v_integrals).  It sums an integrand of |V| over
the cells between sorted points, split at V's breakpoints and kinks and
graded to about 0.2(1 + |t|); each cell's 12-point Gauss–Legendre sum is
checked against the sum over its two halves, and a cell is halved until
the two agree.  η± and γ± at an array of x are reversed cumulative sums of
|V| and t|V| out to cutoff_for_eta(pot, 1e-30), with γ = M₁ − x·M₀;
moment_norm sums (1 + |t|)^σ |V|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import CrossCheckError, TruncationError

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

_REL_TAIL = 1e-12  # relative tail contribution allowed when truncating moment_norm
# the moment rule (_v_integrals): 12-point Gauss–Legendre cells about
# _CELL·(1 + |t|) wide, halved until a cell's sum and its halves' agree to
# _CELL_REL of ∫|integrand|; η and γ reach out to where the tail mass of V
# is below _FLOOR
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_CELL = 0.2
_CELL_REL = 1e-12  # above V's own rounding, e^{-z} at z ≤ 745 is off by up to 1.7e-13
_FLOOR = 1e-30
_MAX_HALVINGS = 64
_MAX_CELLS = 100_000


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

    def envelope(self, x):
        """The bound on |V| at x, a point or an array."""
        ax = np.abs(x)
        if self.kind == "compact":
            return np.zeros_like(ax, dtype=float)
        if self.kind == "exp":
            return self.coef * np.exp(-self.rate * ax)
        return self.coef * (1.0 + ax) ** (-self.rate)

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


def _tail_radius(tail: TailBound, weight_power: float, target: float) -> float | None:
    """The one tail-radius search: the first X = max(radius, 1)·1.25ⁿ,
    n < 400, whose weighted tail (TailBound.weighted_tail) is at most
    target; the radius itself for a compact tail, None when no X is."""
    if tail.kind == "compact":
        return tail.radius
    X = max(tail.radius, 1.0)
    for _ in range(400):
        if tail.weighted_tail(X, weight_power) <= target:
            return X
        X *= 1.25
    return None


def _v_integrals(pot: Potential, side: int, points, integrand) -> np.ndarray:
    """∫ integrand(t, |W(t)|) dt over [p_i, p_{i+1}] for the sorted points p,
    W(t) = V(side·t): an (m, n − 1) array for an integrand of m rows.

    The cells between the points are split at W's breakpoints and kinks and
    at t = 0, and graded to about _CELL·(1 + |t|).  A cell's 12-point
    Gauss–Legendre sum is checked against the sum over its two halves; a
    cell whose two sums differ by more than _CELL_REL of ∫|integrand| (or
    than the smallest normal double, where |V| underflows) is halved, and an
    accepted cell adds its halves' sum.  A jump of V missing from its
    breakpoints is halved down to rounding, within _MAX_HALVINGS rounds;
    CrossCheckError when that is not enough, or when more than _MAX_CELLS
    cells are left to halve (V is not smooth between its listed points).
    """
    p = np.asarray(points, dtype=float)
    ends = np.sign(p[[0, -1]]) * np.log1p(np.abs(p[[0, -1]]))  # grading variable
    u = np.linspace(ends[0], ends[1], max(1, int(np.ceil((ends[1] - ends[0]) / _CELL))) + 1)
    splits = [side * s for s in pot.breakpoints + pot.kinks] + [0.0]
    inner = np.concatenate([np.sign(u) * np.expm1(np.abs(u)), splits])
    edges = np.union1d(p, inner[(inner > p[0]) & (inner < p[-1])])
    lo, hi = edges[:-1], edges[1:]
    owner = np.searchsorted(p, lo, side="right") - 1

    def gauss(a, b):
        half = 0.5 * (b - a)[:, None]
        t = a[:, None] + half * (1.0 + _GL_X)
        f = integrand(t, np.abs(np.asarray(pot(side * t), dtype=float))) * half
        return f @ _GL_W, np.abs(f) @ _GL_W

    whole = gauss(lo, hi)[0]
    sums = np.zeros((whole.shape[0], p.size - 1))
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        (left, l_abs), (right, r_abs) = gauss(lo, mid), gauss(mid, hi)
        halves = left + right
        tol = _CELL_REL * (l_abs + r_abs) + np.finfo(float).tiny
        done = np.all(np.abs(whole - halves) <= tol, axis=0)
        for row, vals in zip(sums, halves):
            row += np.bincount(owner[done], vals[done], p.size - 1)
        rest = ~done
        if not rest.any():
            return sums
        if np.count_nonzero(rest) > _MAX_CELLS:
            break
        lo, hi = np.concatenate([lo[rest], mid[rest]]), np.concatenate([mid[rest], hi[rest]])
        owner = np.tile(owner[rest], 2)
        whole = np.concatenate([left[:, rest], right[:, rest]], axis=1)
    raise CrossCheckError(f"{pot.label}: V is not smooth between its breakpoints and kinks")


def moment_norm(pot: Potential, sigma: float) -> float:
    """Weighted norm ∫ (1+|x|)^σ |V| dx.

    Truncates at a radius where the tail-bound contribution is below 1e-12
    of the integral on a provisional window; raises TruncationError if the
    tail bound cannot deliver that (slowly decaying potentials with σ too
    close to their moment order).
    """

    def integrand(t, v_abs):
        return ((1.0 + np.abs(t)) ** sigma * v_abs)[None]

    X0 = max(pot.tail.radius, 1.0) * 4
    rough = float(np.sum(_v_integrals(pot, +1, [-X0, X0], integrand)))
    X = _tail_radius(pot.tail, sigma, _REL_TAIL * max(rough, 1e-30))
    if X is None:
        raise TruncationError(
            f"{pot.label}: weighted tail (power {sigma}) cannot reach "
            f"relative tolerance {_REL_TAIL:g}"
        )
    return float(np.sum(_v_integrals(pot, +1, [-X, X], integrand)))


def _tail_moments(pot: Potential, x, side: int):
    """(M₀, M₁, u): ∫_u^R (1, t)|V(side·t)| dt at u = side·x, shaped as x,
    as reversed cumulative sums out to R = cutoff_for_eta(pot, _FLOOR)."""
    u = side * np.asarray(x, dtype=float)
    pts, where = np.unique(u, return_inverse=True)
    reach = max(cutoff_for_eta(pot, _FLOOR), pts[-1])
    cells = _v_integrals(pot, side, np.append(pts, reach), lambda t, v: np.stack([v, t * v]))
    m0, m1 = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1][:, where.ravel()].reshape((2,) + u.shape)
    return m0, m1, u


def eta(pot: Potential, x, side: int):
    """Tail mass η±(x) = ±∫_x^{±∞} |V| dy at a point or an array of x."""
    m0, _, _ = _tail_moments(pot, x, _check_side(side))
    return m0 if np.ndim(x) else float(m0)


def gamma_moment(pot: Potential, x, side: int):
    """First tail moment γ±(x) = ±∫_x^{±∞} (y − x) |V(y)| dy (nonnegative)
    at a point or an array of x, as M₁ − u·M₀ (_tail_moments).  Raises
    TruncationError when the tail bound leaves γ infinite."""
    side = _check_side(side)
    if not math.isfinite(pot.tail.weighted_tail(cutoff_for_eta(pot, _FLOOR), 1.0)):
        raise TruncationError(f"{pot.label}: first tail moment γ is not finite")
    m0, m1, u = _tail_moments(pot, x, side)
    gam = np.maximum(m1 - u * m0, 0.0)
    return gam if np.ndim(x) else float(gam)


def cutoff_for_eta(pot: Potential, tol: float) -> float:
    """Smallest convenient X with η±(±X) (tail-bound estimate, the same on
    both sides) below tol (_tail_radius)."""
    X = _tail_radius(pot.tail, 0.0, tol)
    if X is None:
        raise TruncationError(f"{pot.label}: η tail cannot reach {tol:g}")
    return X


def _check_side(side: int) -> int:
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    return side


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
    file params {csv: path}.  A given tail_bound replaces the built one
    for every kind (a scaled potential's too)."""
    name = spec["name"]
    params = dict(spec.get("params", {}))
    tb = spec.get("tail_bound")
    tail = TailBound(**tb) if tb else None
    if name == "sampled":
        if "csv" in params:  # a two-column file of (x, V) samples
            return load_sampled(params["csv"], tail=tail)
        x = np.asarray(params["x"], dtype=float)
        v = np.asarray(params["v"], dtype=float)
        return load_sampled(x, v, tail=tail)
    if name == "scaled":
        pot = scale_potential(from_spec(params["base"]), params["s"])
    else:
        pot = catalog(name, **params)
    return replace(pot, tail=tail) if tail else pot


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
        out = np.array(_s(np.clip(z, lo, hi)), dtype=float)
        for outside, sign, edge in ((z < lo, sign_lo, abs(v[0])), (z > hi, sign_hi, abs(v[-1]))):
            if tail.kind == "compact":
                out[outside] = 0.0
            else:
                out[outside] = sign * np.minimum(tail.envelope(z[outside]), edge)
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
