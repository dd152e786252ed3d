"""Wiener-algebra norm estimation.

A function lies in the algebra 𝒜 when it is the Fourier transform of an
integrable profile, g(k) = ∫ ǧ(p) e^{ikp} dp, with norm ‖ǧ‖_{L¹}; the
unital variant 𝒜₁ allows an additive constant c and norms by |c| + ‖ǧ‖.
Membership is not decidable from finitely many samples, so every estimate
here is a proxy: the profile is synthesized by FFT from a tapered window
|k| ≤ K and the ℓ¹ mass is declared converged when growing the window from
K/2 to K changes it by less than 5%.  Non-convergence is reported, not
fatal (it is the numerical signature of g ∉ 𝒜).

The van der Corput check bounds oscillatory integrals by
C₂ (t·min|φ″|)^{−1/2} ‖f‖_{𝒜₁} with the optimal C₂ = 2^{8/3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, next_fast_len

__all__ = [
    "WienerEstimate",
    "a_norm",
    "derivative_a_norms",
    "difference_quotient_norm",
    "vdc_check",
    "vdc_battery",
]

GROWTH_TOL = 0.05
C2_VDC = 2.0 ** (8.0 / 3.0)
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


def _uniform_symmetric(k: np.ndarray) -> float:
    delta = _uniform_step(k, "k grid")
    if abs(k[0] + k[-1]) > 1e-9 * max(abs(k[0]), 1.0):
        raise ValueError("k grid must be symmetric about 0")
    return delta


def _taper(k: np.ndarray, frac: float) -> np.ndarray:
    """Raised-cosine window over the outer fraction frac of max|k|."""
    kmax = float(np.max(np.abs(k)))
    w = np.ones_like(k)
    if frac <= 0:
        return w
    edge = (1.0 - frac) * kmax
    out = np.abs(k) > edge
    w[out] = np.cos(0.5 * np.pi * (np.abs(k[out]) - edge) / (kmax - edge)) ** 2
    return w


def _hat_mass(k: np.ndarray, g: np.ndarray, taper_frac: float):
    """(ℓ¹ mass, outer-decile fraction) of the FFT profile of g, zero
    padded to four times the window."""
    _uniform_symmetric(k)
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
    profile keeps accumulating mass as the window opens.
    """
    k = np.asarray(k_grid, dtype=float)
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
    window symmetric.  max_order ≤ 3.
    """
    if not 0 <= max_order <= 3:
        raise ValueError("derivative orders 0..3 supported")
    k = np.asarray(k_grid, dtype=float)
    h = _uniform_symmetric(k)
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
    limit_at_infinity: complex = 0.0,
    *,
    taper_frac: float = TAPER_FRAC,
) -> WienerEstimate:
    """a_norm of the difference quotient (f(k) − f(0))/k.

    The k = 0 sample of the quotient is filled with the 4th-order stencil
    derivative of f there (the limit value).
    """
    k = np.asarray(k_grid, dtype=float)
    h = _uniform_symmetric(k)
    i0 = int(np.argmin(np.abs(k)))
    if abs(k[i0]) > 1e-12:
        raise ValueError("difference quotient needs k = 0 on the grid")
    f = np.asarray(values, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (f - value_at_zero) / k
    q[i0] = (f[i0 - 2] - 8.0 * f[i0 - 1] + 8.0 * f[i0 + 1] - f[i0 + 2]) / (12.0 * h)
    return a_norm(k, q, limit_at_infinity, taper_frac=taper_frac)


# ------------------------------------------------------------ van der Corput


def _phase_scan(phase: Callable, a: float, b: float, n: int = 4001):
    """min |φ″| on [a,b] by central differences on a dense scan."""
    kk = np.linspace(a, b, n)
    h = kk[1] - kk[0]
    ph = np.asarray(phase(kk), dtype=float)
    pp = (ph[:-2] - 2.0 * ph[1:-1] + ph[2:]) / (h * h)
    dp = (ph[2:] - ph[:-2]) / (2.0 * h)
    return float(np.min(np.abs(pp))), float(np.max(np.abs(dp)))


def _osc_quad(phase, amplitude, a, b, t, max_slope, nodes: int = 12) -> complex:
    """∫_a^b e^{itφ} f dk by composite Gauss–Legendre.

    Panels are at most a quarter period of the fastest oscillation wide,
    so the rule keeps ~13 digits for smooth f; doubling the panel count
    supplies the error estimate used by the battery.
    """
    width = min(b - a, np.pi / (2.0 * max(t * max_slope, 1e-3)))
    n_pan = int(np.ceil((b - a) / width))
    xg, wg = leggauss(nodes)
    edges = np.linspace(a, b, n_pan + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    vals = np.asarray(amplitude(pts), dtype=complex) * np.exp(
        1j * t * np.asarray(phase(pts), dtype=float)
    )
    return complex(np.sum(vals.reshape(-1, nodes) * wg[None, :] * half[:, None]))


def vdc_check(
    phase: Callable,
    amplitude: Callable,
    a: float,
    b: float,
    t: float,
    *,
    f_a1_norm: float,
) -> tuple[float, float, float]:
    """(|I(t)|, bound, ratio) for I(t) = ∫_a^b e^{itφ(k)} f(k) dk.

    bound = 2^{8/3} (t·min|φ″|)^{−1/2} ‖f‖_{𝒜₁}; ratio ≤ 1 is the expected
    outcome for t ≥ 1.  f_a1_norm is ‖f‖_{𝒜₁}, known analytically (a_norm
    estimates it from samples when it is not).
    """
    if t < 1.0:
        raise ValueError("the stationary-phase bound is stated for t >= 1")
    min_pp, max_dp = _phase_scan(phase, a, b)
    if min_pp < 1e-12:
        raise ValueError("phase curvature vanishes on the interval")
    I = _osc_quad(phase, amplitude, a, b, t, max_dp)
    bound = C2_VDC * f_a1_norm / np.sqrt(t * min_pp)
    return abs(I), float(bound), abs(I) / float(bound)


def vdc_battery() -> list[dict]:
    """Standard check set at t = 1, 10, 100: quadratic phases with flat,
    rational and gaussian amplitudes (𝒜₁-norms 1 analytically)."""
    cases = [
        ("flat", lambda k: -(k**2), lambda k: np.ones_like(k), -10.0, 10.0, 1.0),
        ("rational", lambda k: -(k**2), lambda k: 1.0 / (1.0 + k**2), -10.0, 10.0, 1.0),
        (
            "gauss_offset",
            lambda k: k**2 - 3.0 * k,
            lambda k: np.exp(-(k**2)),
            -8.0,
            8.0,
            1.0,
        ),
    ]
    rows = []
    for label, ph, f, a, b, nrm in cases:
        for t in (1.0, 10.0, 100.0):
            abs_I, bound, ratio = vdc_check(ph, f, a, b, t, f_a1_norm=nrm)
            rows.append({"case": label, "t": t, "abs_I": abs_I, "bound": bound, "ratio": ratio})
    return rows
