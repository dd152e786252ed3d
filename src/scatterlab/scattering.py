"""Wronskians, transmission/reflection data, bound states, and the
zero-energy resonance dichotomy.

With h±(k) = h±(0,k), h′±(k) = ∂ₓh±(0,k) the Wronskians are

    W(k)  = 2ik h₊(k)h₋(k) + h₋(k)h′₊(k) − h′₋(k)h₊(k),
    W±(k) = h∓(k)h′±(−k) − h±(−k)h′∓(k),

and T(k) = 2ik/W(k), R±(k) = ∓W±(k)/W(k), W holding at every x (the phases
of f± = e^{±ikx}h± cancel).  scattering_data is the one place that checks
a k grid (wiener._mirrored_grid) and that W is constant on every row of
the fields (wronskians).  A potential is resonant when
W(0) = 0, i.e. when the two zero-energy Jost solutions are proportional
(f₊(·,0) = γ f₋(·,0)); then the k → 0 values follow from γ alone:
T(0) = 2γ/(1+γ²), R±(0) = ±(1−γ²)/(1+γ²).  Otherwise T(0) = 0 and
R±(0) = −1.  classify_resonance decides the dichotomy from one Jost solve
of both sides (jost.compute_h_pair) on |x| ≤ 2 whose k grid is k = 0 and
a few small probe k: the k = 0 column gives W(0) and γ, the probe columns
the k → 0 extrapolation that checks the algebra.

Bound states sit at the real zeros of κ ↦ W(iκ) at x = 0: on log-spaced
brackets from κ = 1e-4 up, whose Sturm node count drops by two or more
are split first, and on [0, 1e-4] when W(0) is not resonant.  Every
sign change is refined at once, one batch of W(iκ) per round.  At
κₙ, f₊ = βf₋ and ∫f₊f₋ dx = ∂W/∂E (Deift & Trubowitz, CPAM 32, 1979),
so the norming constants need no eigenfunction: c₊ = (−βẆ/2κₙ)^{−1/2},
c₋ = βc₊, Ẇ = dW/dκ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError
from .jost import (
    _CUTOFF_TOL,
    ODE_ATOL,
    ODE_RTOL,
    JostField,
    _wronskian,
    compute_h_bound,
    compute_h_pair,
    unfold,
)
from .potentials import Potential, cutoff_for_eta, eta
from .wiener import _derivative, _mirrored_grid

__all__ = [
    "ScatteringData",
    "ResonanceReport",
    "BoundState",
    "RESONANCE_EPS",
    "wronskians",
    "scattering_matrix",
    "scattering_data",
    "classify_resonance",
    "bound_states",
]

RESONANCE_EPS = 1e-6  # |W(0)| below this multiple of the natural scale => resonant
# floor for the resonance scale so V ≡ 0 (all Wronskian terms vanish
# identically) still classifies as resonant
_SCALE_FLOOR = 1e-6
_WRONSKIAN_SPREAD_TOL = 1e-6
_SPREAD_BLOCK = 1 << 16  # (x, k) entries per block of the Wronskian spread
# bound-state search: log-spaced κ brackets from _KAPPA_MIN, rounds of
# Sturm bracket splits, rounds and tolerances (relative, and absolute in
# units of κ₀) of the root refinement, and the dW/dκ stencil step
# relative to κ or to the gap to the neighbouring root
_KAPPA_MIN = 1e-4
_N_BRACKETS = 64
_SPLIT_ROUNDS = 40
_REFINE_ROUNDS = 60
_KAPPA_RTOL = 8.9e-16
_KAPPA_XTOL = 1e-12
_DW_STEP = 3e-4
_CHECK_X = (-2.0, 0.0, 2.0)  # rows scattering_data always integrates


@dataclass(frozen=True)
class ResonanceReport:
    """Outcome of the zero-energy dichotomy for one potential."""

    label: str
    resonant: bool
    ambiguous: bool
    w0: float
    scale: float
    threshold: float
    gamma: float
    gamma_consistency: float  # residual of γ-constancy across x
    T0: complex
    R0_plus: complex
    R0_minus: complex
    limit_consistency: float  # |k→0 extrapolation of T, R± − algebraic values|


@dataclass(frozen=True)
class BoundState:
    kappa: float
    energy: float
    c_plus: float   # ψ(x) ~ c₊ e^{−κx}, x → +∞
    c_minus: float  # ψ(x) ~ c₋ e^{+κx}, x → −∞


@dataclass(frozen=True)
class ScatteringData:
    k_grid: np.ndarray
    T: np.ndarray
    R_plus: np.ndarray
    R_minus: np.ndarray
    W: np.ndarray
    W_plus: np.ndarray
    W_minus: np.ndarray
    unitarity_residual: np.ndarray
    wronskian_spread: float
    resonance: ResonanceReport
    bound_states: tuple[BoundState, ...] = field(default=())


def wronskians(jf_plus: JostField, jf_minus: JostField):
    """W, W₊, W₋ at x = 0 on the fields' shared grid of |k|, plus the
    spread of W across every row the fields hold (CrossCheckError beyond
    1e-6 relative).  Each is conjugate-symmetric in k, so jost.unfold
    carries it onto a grid of ±k.

    Each row's W (jost._wronskian, no phases) is compared with W at x = 0
    relative to the larger |term| sum, which _wronskian gives with W, there
    and on the row, not to |W|, which vanishes at k = 0 for resonant
    potentials; a floor of 1e-3 of the median x = 0 sum keeps the
    denominator alive where the terms degenerate (e.g. tanh-like f₀
    crossing zero).  Rows go in blocks of about _SPREAD_BLOCK entries.
    Fields from one jost.compute_h_pair call share one fundamental matrix,
    so their W varies across x only with its determinant: the check still
    fails a row that is not a solution, and h₋'s error estimate carries
    the independent witness."""
    if not np.array_equal(jf_plus.k_grid, jf_minus.k_grid):
        raise ValueError("Jost fields must share one k grid")
    two_ik = 2j * jf_plus.k_grid
    hp0, hpp0 = jf_plus.at_x(0.0)
    hm0, hmp0 = jf_minus.at_x(0.0)
    w, term_scale = _wronskian(two_ik, hp0, hpp0, hm0, hmp0)
    # h(0,−k) = conj h(0,k) for real k, so W± need no second solve
    w_plus = hm0 * np.conj(hpp0) - np.conj(hp0) * hmp0
    w_minus = hp0 * np.conj(hmp0) - np.conj(hm0) * hpp0

    floor = 1e-3 * float(np.median(term_scale)) + 1e-30
    spread = 0.0
    step = max(1, _SPREAD_BLOCK // two_ik.size)
    for i in range(0, jf_plus.x_grid.size, step):
        rows = slice(i, i + step)
        h = (jf_plus.h[rows], jf_plus.h_prime[rows], jf_minus.h[rows], jf_minus.h_prime[rows])
        w_rows, scale_rows = _wronskian(two_ik, *h)
        denom = np.maximum(np.maximum(term_scale, scale_rows), floor)
        spread = max(spread, float(np.max(np.abs(w_rows - w) / denom)))
    if spread > _WRONSKIAN_SPREAD_TOL:
        raise CrossCheckError(
            f"Wronskian not constant across x: relative spread {spread:.3e}"
        )
    return w, w_plus, w_minus, spread


def scattering_matrix(
    W,
    W_pm,
    k_grid,
    *,
    resonance: ResonanceReport,
    wronskian_spread: float = 0.0,
    bound: tuple[BoundState, ...] = (),
) -> ScatteringData:
    """T(k), R±(k) from precomputed Wronskians.

    A k = 0 grid entry is never formed as 0/0: the resonance report decides
    it.  Resonant: the report's algebraic values T(0), R±(0) from γ.
    Non-resonant: T(0) = 0 exactly and R±(0) = ∓W±(0)/W(0) (≈ −1).  A W
    that vanishes anywhere else, or at k = 0 against a non-resonant report,
    raises CrossCheckError.
    """
    k = np.asarray(k_grid, dtype=float)
    w = np.asarray(W)
    w_plus, w_minus = W_pm
    zero = k == 0.0
    explained = zero & resonance.resonant
    if np.any((np.abs(w) == 0.0) & ~explained):
        raise CrossCheckError("W vanished where the resonance report does not explain it")
    wsafe = np.where(explained, 1.0, w)
    T = 2j * k / wsafe
    R_plus = -w_plus / wsafe
    R_minus = w_minus / wsafe
    if resonance.resonant:
        T[zero] = resonance.T0
        R_plus[zero] = resonance.R0_plus
        R_minus[zero] = resonance.R0_minus
    else:
        T[zero] = 0.0  # 2ik/W would leave signed zeros

    unit = np.maximum(
        np.abs(np.abs(T) ** 2 + np.abs(R_plus) ** 2 - 1.0),
        np.abs(np.abs(T) ** 2 + np.abs(R_minus) ** 2 - 1.0),
    )
    return ScatteringData(
        k_grid=k,
        T=T,
        R_plus=R_plus,
        R_minus=R_minus,
        W=w,
        W_plus=w_plus,
        W_minus=w_minus,
        unitarity_residual=unit,
        wronskian_spread=wronskian_spread,
        resonance=resonance,
        bound_states=bound,
    )


def scattering_data(
    pot: Potential,
    k_grid,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
    extra_x=(),
    with_bound_states: bool = True,
) -> tuple[ScatteringData, JostField, JostField]:
    """One-call pipeline: Jost fields of both sides from one
    jost.compute_h_pair call on the rows {−2, 0, 2} ∪ extra_x, resonance
    classification, bound states, scattering matrix.

    The k grid passes wiener._mirrored_grid first, the one k-grid rule:
    uniform and symmetric about 0 to within 1e-12·max|k|, ValueError before
    any solve otherwise.  It comes back exactly mirrored with its middle
    node exactly 0 for odd n (a symmetric linspace may leave it at ±1e-16),
    so the resonance report, not 2ik/W, decides T and R± there; the Jost
    fields march the n//2 + 1 distinct |k|, and T, W, R± are exact
    conjugate mirrors.  wronskians checks W on every row of the fields,
    and W, W± reach the returned grid by jost.unfold."""
    k_grid, _ = _mirrored_grid(k_grid)
    xs = np.union1d(_CHECK_X, np.asarray(extra_x, float))
    jp, jm = compute_h_pair(pot, xs, k_grid, rtol=rtol, atol=atol)
    rep = classify_resonance(pot, rtol=rtol, atol=atol)
    *ws, spread = wronskians(jp, jm)
    w, w_plus, w_minus = (unfold(v, jp.k_grid, k_grid) for v in ws)
    bound = bound_states(pot, rtol=rtol, atol=atol) if with_bound_states else ()
    sd = scattering_matrix(
        w,
        (w_plus, w_minus),
        k_grid,
        resonance=rep,
        wronskian_spread=spread,
        bound=bound,
    )
    return sd, jp, jm


_PROBE_K = (0.002, 0.004, 0.006, 0.008)
_GAMMA_X = np.linspace(-2.0, 2.0, 401)  # rows of the γ fit; x = 0 is a node


def classify_resonance(
    pot: Potential,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> ResonanceReport:
    """Decide the zero-energy dichotomy and report the k → 0 algebra.

    One compute_h_pair call, both sides, on 401 x in [−2, 2] with
    k ∈ {0} ∪ _PROBE_K.  From the k = 0 column: W(0) at x = 0, and γ, the
    least-squares ratio h₊(x,0)/h₋(x,0) over the rows, with
    gamma_consistency the largest deviation from it relative to max|h₊|.
    resonant ⇔ |W(0)| < RESONANCE_EPS · scale, where scale collects the
    magnitudes of the cancelling Wronskian terms plus η±(0) (floored so
    V ≡ 0 counts as resonant).  A |W(0)| within a factor 10 of the
    threshold flags the classification ambiguous.  limit_consistency is
    the gap between a cubic extrapolation to k = 0 of T(k), R±(k) on the
    probe columns and the algebraic limit values.
    """
    ks = np.concatenate([[0.0], _PROBE_K])
    jp, jm = compute_h_pair(pot, _GAMMA_X, ks, rtol=rtol, atol=atol)
    w, w_plus, w_minus, _ = wronskians(jp, jm)
    (hp0, hpp0), (hm0, hmp0) = (jf.at_x(0.0) for jf in (jp, jm))
    w0 = float(w[0].real)
    scale, threshold = _resonance_threshold(pot, hp0[0], hpp0[0], hm0[0], hmp0[0])
    resonant = abs(w0) < threshold
    ambiguous = threshold / 10.0 < abs(w0) < threshold * 10.0

    hp, hm = jp.h[:, 0].real, jm.h[:, 0].real
    gamma = float(np.sum(hp * hm) / np.sum(hm**2))
    gamma_consistency = float(np.max(np.abs(hp - gamma * hm)) / max(np.max(np.abs(hp)), 1e-30))
    if resonant:
        T0 = 2.0 * gamma / (1.0 + gamma**2)
        R0p = (1.0 - gamma**2) / (1.0 + gamma**2)
        R0m = (gamma**2 - 1.0) / (1.0 + gamma**2)
    else:
        T0, R0p, R0m = 0.0, -1.0, -1.0

    kp = ks[1:]
    lim = 0.0
    for arr, target in (
        (2j * kp / w[1:], T0),
        (-w_plus[1:] / w[1:], R0p),
        (w_minus[1:] / w[1:], R0m),
    ):
        coef = np.polynomial.polynomial.polyfit(kp, arr, deg=3)
        lim = max(lim, abs(coef[0] - target))
    return ResonanceReport(
        label=pot.label,
        resonant=bool(resonant),
        ambiguous=bool(ambiguous),
        w0=w0,
        scale=scale,
        threshold=threshold,
        gamma=gamma,
        gamma_consistency=gamma_consistency,
        T0=complex(T0),
        R0_plus=complex(R0p),
        R0_minus=complex(R0m),
        limit_consistency=float(lim),
    )


def _resonance_threshold(pot, hp0, hpp0, hm0, hmp0):
    """(scale, threshold) of the zero-energy test |W(0)| < threshold from
    h±, h′± at x = 0 and k = 0: scale collects the magnitudes of the
    cancelling Wronskian terms plus η±(0), floored so V ≡ 0 is resonant."""
    scale = float(abs(hm0 * hpp0) + abs(hmp0 * hp0) + eta(pot, 0.0, +1) + eta(pot, 0.0, -1))
    return scale, RESONANCE_EPS * max(scale, _SCALE_FLOOR)


def _w_at_ikappa(pot, kappas, rtol, atol):
    """W(iκ) (real) at x = 0 for a batch of κ ≥ 0, and (h₊, h′₊, h₋, h′₋) there."""
    kappas = np.asarray(kappas, dtype=float)
    hp_, hpp = compute_h_bound(pot, [0.0], kappas, +1, rtol=rtol, atol=atol)
    hm_, hmp = compute_h_bound(pot, [0.0], kappas, -1, rtol=rtol, atol=atol)
    h = (hp_[0], hpp[0], hm_[0], hmp[0])
    return _wronskian(-2.0 * kappas, *h)[0], h


def _node_counts(pot, kappas, half_width, kappa_max, rtol, atol):
    """Sign changes of h₊(·, iκ) on [−half_width, half_width] per κ, two
    grid points per π/κ_max.  Zeros of a solution lie at least π/κ_max
    apart, so no cell holds two; h₊ has the sign of f₊(·, iκ), which by
    Sturm oscillation changes sign once for each bound state with κₙ > κ."""
    n = int(np.ceil(4.0 * half_width * kappa_max / np.pi)) + 1
    x = np.linspace(-half_width, half_width, n)
    h, _ = compute_h_bound(pot, x, kappas, +1, rtol=rtol, atol=atol)
    return np.count_nonzero(np.diff(np.signbit(h), axis=0), axis=0)


def bound_states(
    pot: Potential,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> tuple[BoundState, ...]:
    """All bound states Eₙ = −κₙ² as real zeros of κ ↦ W(iκ) at x = 0,
    with their norming constants.

    κ is bracketed on a log-spaced grid from _KAPPA_MIN (1e-4) up to
    κ_max = sqrt(−min V); every bracket whose Sturm node count
    (_node_counts) drops by 2 or more holds several zeros with no sign
    change, and is split at its geometric midpoint until none is left
    (CrossCheckError after _SPLIT_ROUNDS rounds).  The bracket [0, κ₀],
    κ₀ = min(_KAPPA_MIN, κ_max), counts only when W(0), read in the same
    batch, is not resonant by classify_resonance's threshold (a resonant
    W(0) = 0 is a threshold state).  The sign changes are refined together
    (_refine_roots), one W(iκ) batch per round over the brackets still
    open, each closing once narrower than 2(_KAPPA_RTOL·κ + _KAPPA_XTOL·κ₀)
    (CrossCheckError after _REFINE_ROUNDS rounds).  At κₙ, f₊ = βf₋ with β
    from (f±, f±′) at x = 0 (odd states too, where f±(0) = 0), and
    ‖f₊‖² = β∂W/∂E = −βẆ/(2κₙ), Ẇ = dW/dκ by the fourth-order stencil of
    step _DW_STEP·min(κₙ, gap to the neighbouring κₘ).  c₊ = ‖f₊‖⁻¹ and
    c₋ = βc₊; CrossCheckError when −βẆ/(2κₙ) is not positive and finite.
    """
    X = max(cutoff_for_eta(pot, _CUTOFF_TOL), 6.0)  # half width of the V and node scans
    vmin = float(np.min(pot(np.linspace(-X, X, 4001))))
    kappa_max = float(np.sqrt(max(-vmin, 0.0)))
    if kappa_max == 0.0:
        return ()
    grid = np.geomspace(min(_KAPPA_MIN, kappa_max), kappa_max, _N_BRACKETS)
    w_all, h_all = _w_at_ikappa(pot, np.append(0.0, grid), rtol, atol)
    w_zero, wvals = w_all[0], w_all[1:]
    _, threshold = _resonance_threshold(pot, *(h[0] for h in h_all))
    counts = _node_counts(pot, grid, X, kappa_max, rtol, atol)
    for _ in range(_SPLIT_ROUNDS):
        crowded = np.flatnonzero(counts[:-1] - counts[1:] >= 2)
        if crowded.size == 0:
            break
        mid = np.sqrt(grid[crowded] * grid[crowded + 1])
        grid = np.insert(grid, crowded + 1, mid)
        wvals = np.insert(wvals, crowded + 1, _w_at_ikappa(pot, mid, rtol, atol)[0])
        counts = np.insert(counts, crowded + 1, _node_counts(pot, mid, X, kappa_max, rtol, atol))
    else:
        raise CrossCheckError(f"bound-state brackets still crowded after {_SPLIT_ROUNDS} splits")

    # brackets [lo, grid]; [0, κ₀] counts only when W(0) is not resonant
    lo, w_lo = np.append(0.0, grid[:-1]), np.append(w_zero, wvals[:-1])
    live = np.append(abs(w_zero) >= threshold, np.ones(grid.size - 1, bool))
    cross = live & (w_lo * wvals < 0.0)
    xtol = _KAPPA_XTOL * grid[0]
    refined = _refine_roots(pot, lo[cross], grid[cross], w_lo[cross], wvals[cross], xtol, rtol, atol)
    roots = np.sort(np.append(lo[live & (w_lo == 0.0)], refined)).tolist()

    states = []
    gaps = np.diff(roots)  # W(iκ) changes sign at every κₙ, so it varies on these scales too
    for i, kap in enumerate(roots):
        step = _DW_STEP * min([kap, *gaps[max(i - 1, 0) : i + 1]])
        w, (hp, hpp, hm, hmp) = _w_at_ikappa(pot, kap + step * np.arange(-2.0, 3.0), rtol, atol)
        fp = np.array([hp[2], hpp[2] - kap * hp[2]])  # f₊′ = h₊′ − κh₊ at x = 0
        fm = np.array([hm[2], hmp[2] + kap * hm[2]])  # f₋′ = h₋′ + κh₋
        beta = float(fp @ fm / (fm @ fm))
        norm2 = -beta * float(_derivative(w, step)[0]) / (2.0 * kap)
        if not (np.isfinite(norm2) and norm2 > 0.0):
            raise CrossCheckError(f"bound state at κ = {kap:.12g}: ‖f₊‖² = −βẆ/(2κ) = {norm2:.3e}")
        c_plus = norm2**-0.5
        states.append(BoundState(kap, -kap * kap, c_plus, beta * c_plus))
    return tuple(states)


def _refine_roots(pot, a, b, fa, fb, xtol, rtol, atol):
    """Roots of κ ↦ W(iκ) in the brackets [aᵢ, bᵢ], where W takes the
    opposite signs faᵢ, fbᵢ, by Chandrupatla's hybrid of inverse quadratic
    interpolation and bisection (Adv. Eng. Softw. 28, 1997).  Each round
    reads W once at every bracket still open, in one _w_at_ikappa call; a
    bracket closes on an exact zero or once it is narrower than twice
    _KAPPA_RTOL·|κ| + xtol about its end κ of smaller |W|, its root.
    CrossCheckError when one is still open after _REFINE_ROUNDS rounds."""
    roots, todo = np.empty(a.size), np.arange(a.size)
    c, fc, t = b, fb, np.full(a.size, 0.5)
    for _ in range(_REFINE_ROUNDS):
        if todo.size == 0:
            break
        x = a + t * (b - a)
        fx = _w_at_ikappa(pot, x, rtol, atol)[0]
        same = np.sign(fx) == np.sign(fa)  # [x, b] keeps the sign change, else [a, x]
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = x, fx
        near = np.abs(fa) < np.abs(fb)
        xm, fm = np.where(near, a, b), np.where(near, fa, fb)
        tl = (_KAPPA_RTOL * np.abs(xm) + xtol) / np.abs(b - a)
        done = (tl > 0.5) | (fm == 0.0)
        roots[todo[done]] = xm[done]
        todo, a, b, c, fa, fb, fc, tl = (v[~done] for v in (todo, a, b, c, fa, fb, fc, tl))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        t = np.clip(np.where((phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5), tl, 1.0 - tl)
    if todo.size:
        raise CrossCheckError(
            f"bound-state root at κ ≈ {a[0]:.12g} still bracketed after {_REFINE_ROUNDS} rounds"
        )
    return roots
