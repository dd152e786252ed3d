"""Dispersive-decay experiment: weighted operator norms of G over time.

The operator norm L¹₂ → L^∞₋₂ of an integral operator is the supremum of
(1+|x|)^{−2} |kernel(x,y)| (1+|y|)^{−2}, so each kernel slice contributes
one number and the decay exponent is a least-squares slope in log-log.
For a resonant potential the threshold projection is subtracted (that is
G); the control fit without the subtraction stays near the free-dispersion
rate 1/2, which is the point of the projection.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .propagator import KernelSlice, PropagatorData, pac_slices, s_growth_fit

__all__ = ["DecayReport", "weighted_norm", "decay_fit", "run_experiment"]


@dataclass(frozen=True)
class DecayReport:
    """Result of one weighted-norm decay run.

    error_ratios holds, per time, the worst quadrature-error share of |G|
    over the candidate region of the supremum (entries within a factor two
    of the max); error_dominated flags any ratio above 10%.
    control_exponent is the fit without the threshold subtraction (None
    when the potential is not resonant, where the two fits coincide).
    exterior_coefficient is the growth-envelope constant
    max ‖S(x,y,·)‖_𝒜 / (1+|x|+|y|)², reported as a diagnostic for what the
    truncated (x,y) window leaves out; it is not added to the norms.
    """

    potential_label: str
    resonant: bool
    times: np.ndarray
    weighted_norms: np.ndarray
    fitted_exponent: float
    confidence: float
    fit_window: tuple[float, float]
    grid_spec: dict
    sigma: float
    error_ratios: np.ndarray
    error_dominated: bool
    control_exponent: float | None
    exterior_coefficient: float | None
    runtime_seconds: float


def _weighted_abs(mat, ks: KernelSlice, sigma: float) -> np.ndarray:
    """(1+|x|)^{−σ} |mat(x,y)| (1+|y|)^{−σ} on the slice grid."""
    wx = (1.0 + np.abs(ks.x_grid)) ** (-sigma)
    wy = (1.0 + np.abs(ks.y_grid)) ** (-sigma)
    return wx[:, None] * np.abs(mat) * wy[None, :]


def weighted_norm(ks: KernelSlice, sigma: float = 2.0) -> float:
    """sup over the slice grid of (1+|x|)^{−σ} |G(x,y)| (1+|y|)^{−σ}."""
    return float(np.max(_weighted_abs(ks.G, ks, sigma)))


def _norm_and_error_ratio(mat, ks, sigma):
    """Weighted sup of |mat| and the worst error share on the candidate
    region (weighted entries within a factor 2 of the sup)."""
    wmat = _weighted_abs(mat, ks, sigma)
    top = float(np.max(wmat))
    if top == 0.0:
        return 0.0, 0.0
    region = wmat >= 0.5 * top
    ratio = float(np.max(ks.quadrature_error[region] / np.abs(mat)[region]))
    return top, ratio


def decay_fit(times, norms):
    """Least-squares slope of log(norm) against log(t).

    Returns (exponent, confidence) with exponent = −slope and confidence
    twice the slope's standard error from the residual spread.  Requires
    at least 8 samples spanning at least 1.5 decades, all norms positive.
    Non-monotone norms (oscillatory contamination) only warn: the fit is
    still returned, but a wider or later t-window is the fix.
    """
    t = np.asarray(times, dtype=float)
    n = np.asarray(norms, dtype=float)
    if t.ndim != 1 or t.shape != n.shape:
        raise ValueError("times and norms must be matching 1d arrays")
    if t.size < 8:
        raise ValueError("decay fit needs at least 8 time samples")
    if np.any(t <= 0.0) or t[-1] / t[0] < 10.0**1.5:
        raise ValueError("time samples must span at least 1.5 decades")
    if np.any(n <= 0.0) or not np.all(np.isfinite(n)):
        raise ValueError("norms must be positive and finite")
    if np.any(np.diff(n) > 0.0):
        warnings.warn("norms are not monotone decreasing; widen the t-window",
                      RuntimeWarning, stacklevel=2)
    lt, ln = np.log(t), np.log(n)
    coef = np.polynomial.polynomial.polyfit(lt, ln, deg=1)
    resid = ln - (coef[0] + coef[1] * lt)
    dof = max(t.size - 2, 1)
    stderr = np.sqrt(np.sum(resid**2) / dof / np.sum((lt - lt.mean()) ** 2))
    return float(-coef[1]), float(2.0 * stderr)


def run_experiment(
    pd: PropagatorData,
    *,
    t_window: tuple[float, float] = (10.0, 1000.0),
    n_times: int = 12,
    sigma: float = 2.0,
    control: bool = True,
    exterior_proxy: bool = True,
) -> DecayReport:
    """Evolve, take weighted norms on log-spaced times, fit the exponent.

    pd comes from prepare_propagator and fixes the grids, the potential and
    the threshold state; runtime_seconds covers the slices and the fits,
    not that preparation.  The exterior proxy is s_growth_fit on pd's
    integer lattice (ValueError when pd.x_grid misses a point of it).
    """
    t0 = time.perf_counter()
    lo, hi = float(t_window[0]), float(t_window[1])
    ts = np.geomspace(lo, hi, int(n_times))
    slices = pac_slices(pd, ts)

    norms = np.empty(ts.size)
    ratios = np.empty(ts.size)
    ctrl_norms = np.empty(ts.size)
    for i, ks in enumerate(slices):
        norms[i], ratios[i] = _norm_and_error_ratio(ks.G, ks, sigma)
        ctrl_norms[i] = float(np.max(_weighted_abs(ks.pac, ks, sigma)))
    if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("weighted norms must be positive and finite")

    exponent, confidence = decay_fit(ts, norms)
    control_exponent = None
    if control and pd.resonant:
        control_exponent = decay_fit(ts, ctrl_norms)[0]
    c_hat = None
    if exterior_proxy:
        c_hat = s_growth_fit(pd)[0]

    dx = float(pd.x_grid[1] - pd.x_grid[0])
    grid_spec = {
        "x_step": dx,
        "x_max": float(pd.x_grid[-1]),
        "x_count": int(pd.x_grid.size),
        "k_max": float(pd.k_grid[-1]),
        "k_count": int(pd.k_grid.size),
    }
    return DecayReport(
        potential_label=pd.pot.label,
        resonant=pd.resonant,
        times=ts,
        weighted_norms=norms,
        fitted_exponent=exponent,
        confidence=confidence,
        fit_window=(lo, hi),
        grid_spec=grid_spec,
        sigma=sigma,
        error_ratios=ratios,
        error_dominated=bool(np.any(ratios > 0.1)),
        control_exponent=control_exponent,
        exterior_coefficient=c_hat,
        runtime_seconds=time.perf_counter() - t0,
    )
