"""Wiener-algebra norm estimation.

A function lies in the algebra 𝒜 when it is the Fourier transform of an
integrable profile, g(k) = ∫ ǧ(p) e^{ikp} dp, with norm ‖ǧ‖_{L¹}; the
unital variant 𝒜₁ allows an additive constant c and norms by |c| + ‖ǧ‖.
Membership is not decidable from finitely many samples, so every estimate
here is a proxy: the profile is synthesized by FFT from a tapered window
|k| ≤ K and the ℓ¹ mass is declared converged when growing the window from
K/2 to K changes it by less than 5%.  Non-convergence is reported, not
fatal (it is the numerical signature of g ∉ 𝒜).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, next_fast_len

__all__ = [
    "WienerEstimate",
    "a_norm",
    "derivative_a_norms",
    "difference_quotient_norm",
]

GROWTH_TOL = 0.05
TAPER_FRAC = 0.1  # default raised-cosine share of the k window


@dataclass(frozen=True)
class WienerEstimate:
    """ℓ¹ profile mass of a sampled function, with convergence diagnostics.

    tail_fraction is the share of the mass sitting in the outermost tenth
    of the reachable p-window (aliasing indicator); window_growth is the
    relative change of hat_l1 when the k-window doubles from K/2 to K.
    """

    constant_part: complex
    hat_l1: float
    tail_fraction: float
    converged: bool
    window_growth: float = 0.0

    @property
    def a1_norm(self) -> float:
        return abs(self.constant_part) + self.hat_l1


def _uniform_step(grid, name: str) -> float:
    """Step of a uniform increasing 1d grid; ValueError naming the grid
    otherwise."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError(f"{name} must be a 1d grid with at least two points")
    d = np.diff(g)
    if np.any(d <= 0) or np.max(np.abs(d - d[0])) > 1e-9 * max(abs(d[0]), 1e-30):
        raise ValueError(f"{name} must be uniform and increasing")
    return float(d[0])


def _mirrored_grid(k_grid) -> tuple[np.ndarray, float]:
    """The one k-grid rule: (grid, step) of a k grid that is uniform
    (_uniform_step) and symmetric about 0, every mirror pair k[i], k[−1−i]
    within 1e-12·max|k|; ValueError naming the k grid otherwise.  The
    grid comes back exactly mirrored, k[:c] = −k[::-1][:c] with c = n//2,
    and its middle node exactly 0 for odd n, so k and −k are one |k|."""
    k = np.array(k_grid, dtype=float)
    step = _uniform_step(k, "k grid")
    if np.max(np.abs(k + k[::-1])) > 1e-12 * np.max(np.abs(k)):
        raise ValueError("k grid must mirror about 0 to within 1e-12·max|k|")
    c = k.size // 2
    k[:c] = -k[::-1][:c]
    if k.size % 2:
        k[c] = 0.0
    return k, step


def _taper(k: np.ndarray, frac: float) -> np.ndarray:
    """Raised-cosine window over the outer fraction frac of max|k|;
    ValueError for frac outside [0, 1]."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError("taper fraction must lie in [0, 1]")
    kmax = float(np.max(np.abs(k)))
    w = np.ones_like(k)
    if frac == 0.0:
        return w
    edge = (1.0 - frac) * kmax
    out = np.abs(k) > edge
    w[out] = np.cos(0.5 * np.pi * (np.abs(k[out]) - edge) / (kmax - edge)) ** 2
    return w


def _hat_mass(k: np.ndarray, g: np.ndarray, taper_frac: float):
    """(ℓ¹ mass, outer-decile fraction) of the FFT profile of g, zero
    padded to four times the window."""
    gw = np.asarray(g, dtype=complex) * _taper(k, taper_frac)
    n_pad = next_fast_len(4 * k.size)
    dens = np.abs(fft(gw, n=n_pad))
    total = float(np.sum(dens)) / n_pad  # = δp/2π · Σ|spec| · δk summed out
    if total == 0.0:
        return 0.0, 0.0
    # outermost |p| lives in the middle of the unshifted spectrum
    lo, hi = int(0.45 * n_pad), int(np.ceil(0.55 * n_pad))
    tail = float(np.sum(dens[lo:hi])) / n_pad
    return total, tail / total


def a_norm(
    k_grid: np.ndarray,
    values: np.ndarray,
    limit_at_infinity: complex = 0.0,
    *,
    taper_frac: float = TAPER_FRAC,
) -> WienerEstimate:
    """Estimate ‖values − c‖_𝒜 on the sampled window, c = limit_at_infinity.

    The convergence flag compares the mass against the one computed from
    the inner half-window only; growth beyond 5% flags a function whose
    profile keeps accumulating mass as the window opens.  k_grid must
    pass _mirrored_grid; its inner half-window then mirrors too.
    """
    k, _ = _mirrored_grid(k_grid)
    g = np.asarray(values) - limit_at_infinity
    full, tail = _hat_mass(k, g, taper_frac)
    half_sel = np.abs(k) <= 0.5 * np.max(np.abs(k)) + 1e-12
    half, _ = _hat_mass(k[half_sel], g[half_sel], taper_frac)
    growth = (full - half) / max(half, 1e-300)
    # an (almost) identically zero profile is converged by definition; its
    # growth figure is roundoff over roundoff
    return WienerEstimate(
        constant_part=complex(limit_at_infinity),
        hat_l1=full,
        tail_fraction=tail,
        converged=bool(growth < GROWTH_TOL or full < 1e-12),
        window_growth=float(growth),
    )


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order central first derivative; output loses 2 points per side."""
    f = np.asarray(values)
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def _check_max_order(max_order: int) -> None:
    """derivative_a_norms' range of orders, 0..3; the CLI wiener stage
    checks its configured order with it before any solve."""
    if not 0 <= max_order <= 3:
        raise ValueError("derivative orders 0..3 supported")


def derivative_a_norms(
    k_grid: np.ndarray,
    values: np.ndarray,
    max_order: int,
    limit_at_infinity: complex = 0.0,
    *,
    taper_frac: float = TAPER_FRAC,
) -> list[WienerEstimate]:
    """[a_norm(d^l f / dk^l) for l = 0..max_order], stencil differentiation.

    Each differentiation trims two grid points per side, keeping the
    window symmetric.  0 ≤ max_order ≤ 3.
    """
    _check_max_order(max_order)
    k, h = _mirrored_grid(k_grid)
    out = [a_norm(k, values, limit_at_infinity, taper_frac=taper_frac)]
    f = np.asarray(values)
    for _ in range(max_order):
        f = _derivative(f, h)
        k = k[2:-2]
        out.append(a_norm(k, f, 0.0, taper_frac=taper_frac))
    return out


def difference_quotient_norm(
    k_grid: np.ndarray,
    values: np.ndarray,
    value_at_zero: complex,
    *,
    taper_frac: float = TAPER_FRAC,
) -> WienerEstimate:
    """a_norm of the difference quotient (f(k) − f(0))/k, which vanishes
    at infinity for bounded f; _k0_quotient fills its k = 0 sample."""
    k, h = _mirrored_grid(k_grid)
    q = _k0_quotient(k, np.asarray(values, dtype=complex) - value_at_zero, h)
    return a_norm(k, q, taper_frac=taper_frac)


def _k0_quotient(k: np.ndarray, num: np.ndarray, h: float) -> np.ndarray:
    """num/k on a uniform k grid of step h, for num vanishing at k = 0;
    the k = 0 sample is the 4th-order stencil derivative of num there.
    ValueError unless k = 0 is a node at least two from either end."""
    i0 = int(np.argmin(np.abs(k)))
    if abs(k[i0]) > 1e-12 or i0 < 2 or i0 > k.size - 3:
        raise ValueError("k grid must contain 0 away from its ends")
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num / k
    q[i0] = _derivative(num[i0 - 2 : i0 + 3], h)[0]
    return q
