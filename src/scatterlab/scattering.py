"""Wronskians, transmission/reflection data, bound states, and the
zero-energy resonance dichotomy.

With h±(k) = h±(0,k), h′±(k) = ∂ₓh±(0,k) the Wronskians are

    W(k)  = 2ik h₊(k)h₋(k) + h₋(k)h′₊(k) − h′₋(k)h₊(k),
    W±(k) = h∓(k)h′±(−k) − h±(−k)h′∓(k),

and T(k) = 2ik/W(k), R±(k) = ∓W±(k)/W(k).  A potential is resonant when
W(0) = 0, i.e. when the two zero-energy Jost solutions are proportional
(f₊(·,0) = γ f₋(·,0)); then the k → 0 values follow from γ alone:
T(0) = 2γ/(1+γ²), R±(0) = ±(1−γ²)/(1+γ²).  Otherwise T(0) = 0 and
R±(0) = −1.  Bound states sit at the real zeros of κ ↦ W(iκ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import CrossCheckError
from .jost import (
    ODE_ATOL,
    ODE_RTOL,
    JostField,
    ZeroEnergyData,
    _scan_half_width,
    _wronskian,
    compute_h,
    compute_h_bound,
    zero_energy_scan,
)
from .potentials import Potential

__all__ = [
    "ScatteringData",
    "ResonanceReport",
    "BoundState",
    "wronskians",
    "scattering_matrix",
    "scattering_data",
    "classify_resonance",
    "bound_states",
]

_WRONSKIAN_SPREAD_TOL = 1e-6
# bound-state search: log-spaced κ brackets, Brent tolerance, eigenfunction
# grid step, and the κ below which a state counts as near threshold
_KAPPA_MIN = 1e-4
_N_BRACKETS = 64
_KAPPA_XTOL = 1e-12
_BOUND_DX = 0.01
_NEAR_THRESHOLD_KAPPA = 1e-3


@dataclass(frozen=True)
class ResonanceReport:
    """Outcome of the zero-energy dichotomy for one potential, with the
    zero-energy scan it was decided from (for f₀; not compared, not shown)."""

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
    zero_energy: ZeroEnergyData = field(compare=False, repr=False)


@dataclass(frozen=True)
class BoundState:
    kappa: float
    energy: float
    c_plus: float   # ψ(x) ~ c₊ e^{−κx}, x → +∞
    c_minus: float  # ψ(x) ~ c₋ e^{+κx}, x → −∞
    x_grid: np.ndarray
    psi: np.ndarray
    near_threshold: bool


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


def wronskians(jf_plus: JostField, jf_minus: JostField, x_check=(-2.0, 0.0, 2.0)):
    """W, W₊, W₋ on the shared k grid, plus the constancy cross-check spread
    of W over the given x values (CrossCheckError beyond 1e-6 relative)."""
    if not np.array_equal(jf_plus.k_grid, jf_minus.k_grid):
        raise ValueError("Jost fields must share one k grid")
    k = jf_plus.k_grid
    hp0, hpp0 = jf_plus.at_x(0.0)
    hm0, hmp0 = jf_minus.at_x(0.0)
    w = _wronskian(2j * k, hp0, hpp0, hm0, hmp0)
    # h(0,−k) = conj h(0,k) for real k, so W± need no second solve
    w_plus = hm0 * np.conj(hpp0) - np.conj(hp0) * hmp0
    w_minus = hp0 * np.conj(hmp0) - np.conj(hm0) * hpp0

    # measure the spread relative to the size of the cancelling terms, not
    # |W| itself, which vanishes at k = 0 for resonant potentials; the median
    # floor keeps the denominator alive where the x-local terms themselves
    # degenerate (e.g. tanh-like f₀ crossing zero)
    term_scale = np.abs(2j * k * hp0 * hm0) + np.abs(hm0 * hpp0) + np.abs(hmp0 * hp0)
    floor = 1e-3 * float(np.median(term_scale)) + 1e-30
    spread = 0.0
    for x in x_check:
        fp, fpp = jf_plus.f_at_x(x)
        fm, fmp = jf_minus.f_at_x(x)
        wx = fm * fpp - fmp * fp
        denom = np.maximum(term_scale, np.abs(fm * fpp) + np.abs(fmp * fp))
        spread = max(spread, float(np.max(np.abs(wx - w) / np.maximum(denom, floor))))
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
    x_check=(-2.0, 0.0, 2.0),
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
    extra_x=(),
    with_bound_states: bool = True,
) -> tuple[ScatteringData, JostField, JostField]:
    """One-call pipeline: Jost fields at {0} ∪ x_check ∪ extra_x, resonance
    classification, bound states, scattering matrix."""
    xs = np.unique(
        np.concatenate([[0.0], np.asarray(x_check, float), np.asarray(extra_x, float)])
    )
    jp = compute_h(pot, xs, k_grid, +1, rtol=rtol, atol=atol)
    jm = compute_h(pot, xs, k_grid, -1, rtol=rtol, atol=atol)
    rep = classify_resonance(pot, rtol=rtol, atol=atol)
    w, w_plus, w_minus, spread = wronskians(jp, jm, x_check)
    bound = bound_states(pot, rtol=rtol, atol=atol) if with_bound_states else ()
    sd = scattering_matrix(
        w,
        (w_plus, w_minus),
        jp.k_grid,
        resonance=rep,
        wronskian_spread=spread,
        bound=bound,
    )
    return sd, jp, jm


_PROBE_K = (0.002, 0.004, 0.006, 0.008)


def classify_resonance(
    pot: Potential,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> ResonanceReport:
    """Decide the zero-energy dichotomy and report the k → 0 algebra.

    resonant ⇔ |W(0)| < RESONANCE_EPS · scale, where scale collects the
    magnitudes of the cancelling Wronskian terms plus η±(0) (floored so
    V ≡ 0 counts as resonant); the test is ZeroEnergyData.resonant.  A
    |W(0)| within a factor 10 of the threshold flags the classification
    ambiguous.  limit_consistency measures the gap between a small-k
    polynomial extrapolation of the computed T(k), R±(k) and the algebraic
    limit values.  The report keeps the scan (zero_energy), from which
    zero_energy_state builds f₀ without solving again.
    """
    zed = zero_energy_scan(pot, rtol=rtol, atol=atol)
    threshold = zed.threshold
    resonant = zed.resonant
    ambiguous = threshold / 10.0 < abs(zed.w0) < threshold * 10.0
    gamma = zed.gamma
    if resonant:
        T0 = 2.0 * gamma / (1.0 + gamma**2)
        R0p = (1.0 - gamma**2) / (1.0 + gamma**2)
        R0m = -R0p
    else:
        T0, R0p, R0m = 0.0, -1.0, -1.0

    kp = np.asarray(_PROBE_K)
    jp = compute_h(pot, [0.0], kp, +1, rtol=rtol, atol=atol)
    jm = compute_h(pot, [0.0], kp, -1, rtol=rtol, atol=atol)
    w, w_plus, w_minus, _ = wronskians(jp, jm, x_check=(0.0,))
    lim = 0.0
    for arr, target in (
        (2j * kp / w, T0),
        (-w_plus / w, R0p),
        (w_minus / w, R0m),
    ):
        coef = np.polynomial.polynomial.polyfit(kp, arr, deg=3)
        lim = max(lim, abs(coef[0] - target))
    return ResonanceReport(
        label=pot.label,
        resonant=bool(resonant),
        ambiguous=bool(ambiguous),
        w0=zed.w0,
        scale=zed.scale,
        threshold=threshold,
        gamma=gamma,
        gamma_consistency=zed.gamma_residual,
        T0=complex(T0),
        R0_plus=complex(R0p),
        R0_minus=complex(R0m),
        limit_consistency=float(lim),
        zero_energy=zed,
    )


def _w_at_ikappa(pot, kappas, rtol, atol):
    """W(iκ) (real) at x = 0 for a batch of κ > 0."""
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    hp_, hpp = compute_h_bound(pot, [0.0], kappas, +1, rtol=rtol, atol=atol)
    hm_, hmp = compute_h_bound(pot, [0.0], kappas, -1, rtol=rtol, atol=atol)
    return _wronskian(-2.0 * kappas, hp_[0], hpp[0], hm_[0], hmp[0])


def bound_states(
    pot: Potential,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> tuple[BoundState, ...]:
    """All bound states Eₙ = −κₙ² as real zeros of κ ↦ W(iκ).

    κ is bracketed on a log-spaced grid up to sqrt(−min V) and each sign
    change is refined by Brent iteration.
    Eigenfunctions come from f₊(·, iκₙ) normalised with analytic e^{−2κ|x|}
    tail corrections, so the norming constants stay reliable for shallow
    wells where κ·X∞ is order one.
    """
    X = _scan_half_width(pot)
    scan = np.linspace(-X, X, 4001)
    vmin = float(np.min(pot(scan)))
    if vmin >= 0.0:
        return ()
    kappa_max = float(np.sqrt(-vmin))
    if kappa_max <= _KAPPA_MIN:
        return ()
    grid = np.geomspace(_KAPPA_MIN, kappa_max, _N_BRACKETS)
    wvals = _w_at_ikappa(pot, grid, rtol, atol)
    roots = []
    for a, b, wa, wb in zip(grid[:-1], grid[1:], wvals[:-1], wvals[1:]):
        if wa == 0.0:
            roots.append(float(a))
        elif wa * wb < 0.0:
            r = brentq(
                lambda kap: float(_w_at_ikappa(pot, [kap], rtol, atol)[0]),
                a,
                b,
                xtol=_KAPPA_XTOL,
                rtol=8.9e-16,
            )
            roots.append(float(r))

    # each Jost solution is accurate on its own side (the h-equation has a
    # mode growing like e^{2κ|x|} when marched past the origin), so ψ is
    # stitched: f₊ for x ≥ 0, β f₋ for x < 0, β fitted on |x| ≤ 2
    n = int(round(X / _BOUND_DX))
    xg = np.linspace(-X, X, 2 * n + 1)
    states = []
    for kap in sorted(roots):
        grid_p = xg[xg >= -2.0 - 1e-12]
        grid_m = xg[xg <= 2.0 + 1e-12]
        hb, _ = compute_h_bound(pot, grid_p, [kap], +1, rtol=rtol, atol=atol)
        f_pl = np.exp(-kap * grid_p) * hb[:, 0]
        hbm, _ = compute_h_bound(pot, grid_m, [kap], -1, rtol=rtol, atol=atol)
        f_mi = np.exp(kap * grid_m) * hbm[:, 0]
        over_p = np.abs(grid_p) <= 2.0
        over_m = np.abs(grid_m) <= 2.0
        beta = float(np.sum(f_pl[over_p] * f_mi[over_m]) / np.sum(f_mi[over_m] ** 2))
        psi_raw = np.concatenate([beta * f_mi[grid_m < 0.0], f_pl[grid_p >= 0.0]])
        # ‖·‖² with analytic e^{−2κ|x|} tail corrections past the box;
        # trapezoid is too coarse here (c² errors get amplified e^{2κ|x|}
        # in anything built from the norming constants)
        anti = CubicSpline(xg, psi_raw**2).antiderivative()
        core = float(anti(X) - anti(-X))
        tail = (hb[-1, 0] ** 2 + (beta * hbm[0, 0]) ** 2) * np.exp(-2 * kap * X) / (2 * kap)
        norm = float(np.sqrt(core + tail))
        states.append(
            BoundState(
                kappa=kap,
                energy=-kap * kap,
                c_plus=1.0 / norm,
                c_minus=beta / norm,
                x_grid=xg,
                psi=psi_raw / norm,
                near_threshold=bool(kap < _NEAR_THRESHOLD_KAPPA),
            )
        )
    return tuple(states)
