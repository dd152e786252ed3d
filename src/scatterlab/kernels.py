"""Transformation-operator kernels and the resonance functionals.

The Jost factor h±(x,k) − 1 is the half-line Fourier transform of a real
kernel B±(x,y),

    h±(x,k) = 1 + ∫_0^{±∞} B±(x,y) e^{±2iky} dy,

so B± is recovered by the inverse transform in the 2y variable.  From B±
come the tail integrals K±(x,y) (of B±) and D±(x,y) (of ∂ₓB±), the
zero-energy functional

    H±(y) = K±(y) h′±(0) − D±(y) h±(0),      h±(0) = h±(0,0),

and its transform Ψ±(k), which satisfies Φ±(k) = 2ik Ψ±(k) with
Φ±(k) = h±(0,k) h′±(0) − ∂ₓh±(0,k) h±(0).

Numerics: h−1 decays like B±(x,0)/(2ik), so a hard cutoff at |k| = K rings.
The transform subtracts m(x)/(2i(k+1j)) with m(x) = B±(x,0) = ∫ V over the
relevant half line (adding back its exact transform m e^{−2|y|}), leaving a
1/k² integrand that a mild raised-cosine taper handles cleanly.  ∂ₓB± uses
the integrator's own ∂ₓh±, never finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.fft import fft, next_fast_len
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import CrossCheckError
from .jost import JostField
from .potentials import Potential, cutoff_for_eta, eta, gamma_moment
from .scattering import ScatteringData
from .wiener import TAPER_FRAC, _taper, _uniform_step

__all__ = [
    "KernelTable",
    "ResonanceFunctionals",
    "GlmReport",
    "b_kernel",
    "kd_kernels",
    "roundtrip_residual",
    "resonance_functionals",
    "kernel_bound_report",
    "glm_residual",
    "kernel_table_csv",
    "functionals_json",
]

_IMAG_TOL = 1e-4
_Y_MAX = 16.0  # reach in |y| of every kernel table and of H±
_PSI_Y_STEP = 1e-3  # y step of the Ψ± quadrature
_PSI_K_STRIDE = 20  # Ψ±, Φ± on every 20th grid wavenumber
_GLM_W_STEP = 0.01  # spline grid of the GLM input F±


@dataclass(frozen=True)
class KernelTable:
    """B±(x,y) (and optionally K±, D±, ∂ₓB±) on an x × y grid.

    y_grid is signed (±y ≥ 0 for side ±) but stored with |y| increasing.
    """

    side: int
    x_grid: np.ndarray
    y_grid: np.ndarray
    B: np.ndarray
    imag_residual: float
    K: np.ndarray | None = None
    D: np.ndarray | None = None
    dB: np.ndarray | None = None
    meta: dict | None = None


@dataclass(frozen=True)
class ResonanceFunctionals:
    side: int
    y_grid: np.ndarray
    H: np.ndarray
    k_grid: np.ndarray
    Psi: np.ndarray
    Phi: np.ndarray
    identity_residual: float
    C_hat_estimate: float


@dataclass(frozen=True)
class GlmReport:
    side: int
    x_grid: np.ndarray
    y_grid: np.ndarray
    residual: np.ndarray
    w_grid: np.ndarray
    F: np.ndarray
    max_residual: float


# ---------------------------------------------------------------- transforms


def half_line_transform(g, k_grid, *, y_max: float, pad: int = 1):
    """(y, G) with G(y) ≈ (1/π) ∫ g(k) e^{−2iky} dk on 0 ≤ y ≤ y_max.

    g has shape (..., nk) on a uniform k grid.  Zero padding by `pad`
    refines the output spacing π/(pad·N·δk); a raised-cosine window covers
    the outer tenth (TAPER_FRAC) of the grid.
    """
    k = np.asarray(k_grid, dtype=float)
    delta = _uniform_step(k, "k grid")
    gw = np.asarray(g) * _taper(k, TAPER_FRAC)
    n = k.size
    n_pad = next_fast_len(int(n * max(int(pad), 1)))
    y_all = np.pi * np.arange(n_pad) / (n_pad * delta)
    m = min(int(np.searchsorted(y_all, y_max, side="right")), n_pad // 2)
    spec = fft(gw, n=n_pad, axis=-1)[..., :m]
    y = y_all[:m]
    return y, (delta / np.pi) * np.exp(-2j * k[0] * y) * spec


class _RowModel:
    """Half-line profile model: jumps, kinks and curvature steps at y_j ≥ 0.

    A jump (y_j, J) contributes J e^{−2(u−y_j)} Θ(u−y_j) in y and
    J e^{2iky_j}/(2−2ik) in k; a kink (y_j, G) contributes
    G (u−y_j) e^{−2(u−y_j)} Θ ↔ G e^{2iky_j}/(2−2ik)²; a curvature step
    (y_j, C) contributes C ((u−y_j)²/2) e^{−2(u−y_j)} Θ ↔ C e^{2iky_j}/
    (2−2ik)³.  Subtracting the k-side model before the FFT removes every
    1/k, 1/k² and 1/k³ tail, so the window truncation acts only on a
    rapidly decaying remainder.
    """

    __slots__ = ("jumps", "kinks", "curves")

    def __init__(self, jumps, kinks, curves=()):
        self.jumps = tuple(jumps)
        self.kinks = tuple(kinks)
        self.curves = tuple(curves)

    def on_k(self, k: np.ndarray) -> np.ndarray:
        g = np.zeros(k.size, dtype=complex)
        den = 2.0 - 2j * k
        for y0, cj in self.jumps:
            g += cj * np.exp(2j * k * y0) / den
        for y0, cg in self.kinks:
            g += cg * np.exp(2j * k * y0) / den**2
        for y0, cc in self.curves:
            g += cc * np.exp(2j * k * y0) / den**3
        return g

    def on_y(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        r = np.zeros(y.shape)
        for y0, cj in self.jumps:
            r += cj * np.exp(-2.0 * (y - y0)) * (y >= y0)
        for y0, cg in self.kinks:
            r += cg * (y - y0) * np.exp(-2.0 * (y - y0)) * (y >= y0)
        for y0, cc in self.curves:
            u = y - y0
            r += cc * 0.5 * u * u * np.exp(-2.0 * u) * (y >= y0)
        return r


def _tail_fit(
    model: _RowModel,
    rem: np.ndarray,
    k: np.ndarray,
    band: float = 0.8,
    orders: tuple = (3, 4),
) -> _RowModel:
    """Mop up residual 1/kⁿ tails the analytic model missed.

    Low-order coefficients at interior crossings pick up interaction terms
    between jumps that are hard to track analytically; they are real by the
    k → −k symmetry of the data, so fit them on the outer band (highest
    order per phase is a nuisance column soaking up the next correction)
    and fold the rest back into the model's kink/curvature terms.
    """
    phases = sorted(
        {y0 for y0, _ in model.jumps}
        | {y0 for y0, _ in model.kinks}
        | {y0 for y0, _ in model.curves}
        | {0.0}
    )
    sel = np.abs(k) >= band * np.max(np.abs(k))
    den = 2.0 - 2j * k[sel]
    cols = []
    for order in orders:
        cols += [np.exp(2j * k[sel] * y0) / den**order for y0 in phases]
    A = np.stack(cols).T
    coef, *_ = np.linalg.lstsq(A, rem[sel], rcond=None)
    kinks, curves = list(model.kinks), list(model.curves)
    for pos, order in enumerate(orders[:-1]):
        block = coef[pos * len(phases) : (pos + 1) * len(phases)]
        slot = kinks if order == 2 else curves
        slot.extend((y0, float(c.real)) for y0, c in zip(phases, block))
    return _RowModel(model.jumps, kinks, curves)


def _structured_rows(vals, models, k, *, pad, fit_orders=(3, 4)):
    """Inverse transform with the per-row jump/kink model split off.

    Returns the tail-fitted models alongside the transform so callers can
    reuse the same value/slope/curvature split (resampling, convolutions).
    """
    vals = np.atleast_2d(np.asarray(vals))
    models = [
        _tail_fit(m, row - m.on_k(k), k, orders=fit_orders)
        for m, row in zip(models, vals)
    ]
    g = vals - np.stack([m.on_k(k) for m in models])
    y, G = half_line_transform(g, k, y_max=_Y_MAX, pad=pad)
    G = G + np.stack([m.on_y(y) for m in models])
    return y, G, models


def _limit(f: Callable, t: float, direction: float, eps: float = 1e-7) -> float:
    return float(f(t + direction * eps))


def _v_jumps(pot: Potential, side: int) -> list[tuple[float, float]]:
    """Jumps (t̃_j, ΔW_j) of W(t) = V(side·t) at its breakpoints, t̃ increasing."""

    def w_of(t: float) -> float:
        return float(pot(side * t))

    jumps = []
    for b in sorted(side * b for b in pot.breakpoints):
        dw = _limit(w_of, b, +1.0) - _limit(w_of, b, -1.0)
        if dw != 0.0:
            jumps.append((b, dw))
    return jumps


def _row_models(jf: JostField, kind: str, *, pot: Potential) -> list[_RowModel]:
    """Jump/kink/curvature structure of B± (\"b\") or ∂ₓB± (\"db\") rows
    of jf, from the potential.

    In the reflected frame W(t) = V(side·t), x̃ = side·x the profiles behave
    like r(u) = ∫_{x̃+u} W  (B) and −side·W(x̃+u) (∂ₓB) plus smoother terms;
    the exact expansion gives the y = 0 coefficients
        B:   J₀ = m̃,            G₀ = m̃²/2 − W(x̃⁺)
             Q₀ = m̃³/6 − ∫W² − m̃ W(x̃⁺) − W′(x̃⁺)
        ∂ₓB: J₀ = −side·W(x̃⁺),  G₀ = −side·(W(x̃⁺) m̃ + W′(x̃⁺))
    and every jump of W at t̃_j > x̃ adds, at y_j = t̃_j − x̃, a kink −ΔW
    with curvature step ΔW·∫_{x̃}^{t̃_j}W − ΔW′ to B and a jump −side·ΔW
    to ∂ₓB.  The kink coefficient is exact (the discontinuity transports
    unchanged along the characteristic u = x + y); the curvature step
    follows from one more transport pass on the same line.
    """
    side, X = jf.side, jf.report.cutoff

    def w_of(t: float) -> float:
        return float(pot(side * t))

    def wp_at(t: float) -> float:
        d = 4e-5
        return (w_of(t + d) - w_of(t - d)) / (2.0 * d)

    models = []
    bps = sorted(side * b for b in pot.breakpoints)
    v_jumps = _v_jumps(pot, side)
    for x in jf.x_grid:
        xt = side * float(x)
        inner = [b for b in bps if xt < b < X]
        m_val, _ = quad(w_of, xt, X, points=inner or None, limit=200)
        w0 = _limit(w_of, xt, +1.0)
        wp0 = wp_at(xt + 1e-4)
        jumps, kinks, curves = [], [], []
        if kind == "b":
            msq, _ = quad(lambda t: w_of(t) ** 2, xt, X, points=inner or None, limit=200)
            q0 = m_val**3 / 6.0 - msq - m_val * w0 - wp0
            jumps.append((0.0, m_val))
            kinks.append((0.0, (0.5 * m_val * m_val - w0) + 2.0 * m_val))
            curves.append((0.0, q0 + 4.0 * m_val + 2.0 * m_val * m_val - 4.0 * w0))
        else:
            j0 = -side * w0
            jumps.append((0.0, j0))
            kinks.append((0.0, -side * (w0 * m_val + wp0) + 2.0 * j0))
        for b, dw in v_jumps:
            yj = b - xt
            if yj <= 1e-9:
                continue
            if kind == "b":
                kinks.append((yj, -dw))
                seg, _ = quad(
                    w_of, xt, b, points=[c for c in inner if c < b] or None, limit=200
                )
                dwp = wp_at(b + 1e-4) - wp_at(b - 1e-4)
                curves.append((yj, (dw * seg - dwp) - 4.0 * dw))
            else:
                jb = -side * dw
                jumps.append((yj, jb))
                kinks.append((yj, 2.0 * jb))
        models.append(_RowModel(jumps, kinks, curves))
    return models


def b_kernel(
    jf: JostField,
    y_grid=None,
    *,
    pot: Potential,
    pad: int = 1,
) -> KernelTable:
    """Kernel table B±(x,·) for every x in the field's grid.

    With y_grid = None the table lives on the transform's native y points
    (spacing π/(pad·N·δk), 0 ≤ |y| ≤ 16); an explicit y_grid is filled by
    cubic interpolation in |y|.  pot (the potential jf was computed for)
    pins the y → 0 jump B±(x,0) = ∫V and the kinks its jumps transport.
    """
    k = jf.k_grid
    models = _row_models(jf, "b", pot=pot)
    y_abs, G, models = _structured_rows(jf.h - 1.0, models, k, pad=pad)
    scale = float(np.max(np.abs(G.real))) + 1e-30
    imag_res = float(np.max(np.abs(G.imag))) / scale
    if imag_res > _IMAG_TOL:
        raise CrossCheckError(
            f"imaginary residual {imag_res:.2e} in B: k window too small or aliased"
        )
    B = G.real
    meta = {"pad": pad, "k_grid": k, "models": models}
    if y_grid is not None:
        y_req = np.asarray(y_grid, dtype=float)
        if np.any(jf.side * y_req < -1e-12):
            raise ValueError("y grid must satisfy ±y >= 0 for side ±")
        req_abs = np.abs(y_req)
        # resample the smooth remainder only; the model carries the kinks
        mod_tab = np.stack([m.on_y(y_abs) for m in models])
        mod_req = np.stack([m.on_y(req_abs) for m in models])
        B = CubicSpline(y_abs, B - mod_tab, axis=1)(req_abs) + mod_req
        return KernelTable(jf.side, jf.x_grid, y_req, B, imag_res, meta=meta)
    return KernelTable(jf.side, jf.x_grid, jf.side * y_abs, B, imag_res, meta=meta)


def _tail_cumulative(rows: np.ndarray, y_abs: np.ndarray) -> np.ndarray:
    """∫_{|y|}^{|y|max} rows d|y| via the cubic-spline antiderivative."""
    anti = CubicSpline(y_abs, rows, axis=-1).antiderivative()
    total = np.asarray(anti(y_abs[-1]))[..., None]
    return total - anti(y_abs)


def kd_kernels(kt: KernelTable, jf: JostField, *, pot: Potential) -> KernelTable:
    """Fill K± (tail integral of B±) and D± (tail integral of ∂ₓB±).

    ∂ₓB± is the inverse transform of the integrator's ∂ₓh±, so no
    finite-difference step enters; jf must be the field kt was built from
    and pot its potential, whose value and jumps fix the jumps of ∂ₓB±.
    """
    if kt.meta is None or not np.array_equal(kt.meta["k_grid"], jf.k_grid):
        raise ValueError("kernel table and Jost field disagree on the k grid")
    y_abs = np.abs(kt.y_grid)
    if np.any(np.diff(y_abs) <= 0):
        raise ValueError("kd_kernels needs a native (monotone |y|) table")
    k = jf.k_grid
    models = _row_models(jf, "db", pot=pot)
    y2, Gd, _ = _structured_rows(jf.h_prime, models, k, pad=kt.meta["pad"], fit_orders=(2, 3, 4))
    if y2.size != y_abs.size or abs(y2[-1] - y_abs[-1]) > 1e-9:
        raise ValueError("kernel table was resampled; rebuild it on the native grid")
    dB = Gd.real
    K = _tail_cumulative(kt.B, y_abs)
    D = _tail_cumulative(dB, y_abs)
    return replace(kt, K=K, D=D, dB=dB)


def roundtrip_residual(kt: KernelTable, jf: JostField) -> float:
    """max |forward transform of B − (h−1)| over every 10th wavenumber of
    the interior |k| ≤ K/2.

    The forward direction uses the same linear-Filon rule as Ψ, so the
    check is aliasing-free; resolving 1e-6 needs a padded table (pad ≳ 16).
    """
    k = jf.k_grid
    sel = np.flatnonzero(np.abs(k) <= 0.5 * np.max(np.abs(k)))[::10]
    ks = k[sel]
    y_abs = np.abs(kt.y_grid)
    forward = _filon_linear(y_abs, kt.B, ks)
    return float(np.max(np.abs(forward - (jf.h[:, sel] - 1.0))))


# ---------------------------------------------------------- Ψ, Φ, H and Ĉ


def _filon_linear(y: np.ndarray, rows: np.ndarray, k_eval: np.ndarray, chunk: int = 128):
    """∫ rows(y) e^{2iky} dy on the uniform grid y, exact for piecewise-linear
    amplitude (no aliasing at large k, error set only by interpolation)."""
    h = float(y[1] - y[0])
    out = np.empty(rows.shape[:-1] + (k_eval.size,), dtype=complex)
    a = rows[..., :-1]
    b = rows[..., 1:]
    for lo in range(0, k_eval.size, chunk):
        kc = k_eval[lo : lo + chunk]
        u = 2.0 * kc * h
        iu = 1j * u
        small = np.abs(u) < 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.exp(iu)
            m0 = np.where(small, 1.0 + iu / 2.0 + (iu**2) / 6.0, (e - 1.0) / iu)
            m1 = np.where(
                small, 0.5 + iu / 3.0 + (iu**2) / 8.0, (e * (iu - 1.0) + 1.0) / (iu**2)
            )
        phase = np.exp(2j * np.outer(kc, y[:-1]))  # (nc, ny-1)
        s0 = a @ phase.T
        s1 = (b - a) @ phase.T
        out[..., lo : lo + kc.size] = h * (s0 * m0 + s1 * m1)
    return out


def _eta_interp(
    pot: Potential, side: int, w_lo: float, w_hi: float, n_anchor: int = 600
) -> Callable:
    """η±(w) on [w_lo, w_hi] as a monotone interpolant anchored on exact
    segment integrals (breakpoints included as anchors).

    Works on the reflected axis u = side·w, where both tails read
    η±(w) = ∫_u^∞ |V(side·t)| dt; w may well be negative (the x + y
    arguments of the kernel bounds reach down to min x).
    """
    u_lo, u_hi = sorted((side * w_lo, side * w_hi))
    X = max(cutoff_for_eta(pot, 1e-14, side), u_hi + 1.0)

    def w_abs(t: float) -> float:
        return abs(float(pot(side * t)))

    bps = sorted(side * b for b in pot.breakpoints)
    anchors = np.unique(
        np.concatenate(
            [
                np.linspace(u_lo, u_hi, n_anchor),
                [b for b in bps if u_lo <= b <= u_hi],
            ]
        )
    )
    masses = np.empty(anchors.size)
    for i, u in enumerate(anchors):
        pts = [b for b in bps if u < b < X]
        val, _ = quad(w_abs, u, X, points=pts or None, limit=200)
        masses[i] = val
    interp = PchipInterpolator(anchors, np.maximum(masses, 0.0))
    # beyond the last anchor the mass is below the anchor value there, which
    # the clamp returns; callers keep their arguments inside [w_lo, w_hi]
    return lambda w: np.maximum(interp(np.clip(side * np.asarray(w), u_lo, u_hi)), 0.0)


def resonance_functionals(jf: JostField, pot: Potential) -> ResonanceFunctionals:
    """H±, Ψ±, Φ± at x = 0 with the identity residual max|Φ − 2ikΨ|.

    H± lives on 0 ≤ |y| ≤ 16, the reach of the kernel tables.  Ψ±(k) =
    ∫_0^{±∞} H±(y) e^{±2iky} dy is evaluated by linear-Filon quadrature on
    a y grid of step about 1e-3, so the residual stays meaningful at the
    largest grid wavenumbers; Ψ± and Φ± are kept on every 20th grid
    wavenumber.  Ĉ is the grid maximum of |H±(y)| / η±(y).
    """
    ix = jf.x_index(0.0)
    k = jf.k_grid
    i0 = int(np.argmin(np.abs(k)))
    if abs(k[i0]) > 1e-12:
        raise ValueError("resonance functionals need k = 0 on the grid")
    delta = _uniform_step(k, "k grid")
    pad = max(1, int(np.ceil(np.pi / (_PSI_Y_STEP * k.size * delta))))
    model_b = _row_models(jf, "b", pot=pot)[ix]
    model_d = _row_models(jf, "db", pot=pot)[ix]
    y_abs, Gb, _ = _structured_rows(jf.h[ix] - 1.0, [model_b], k, pad=pad)
    _, Gd, _ = _structured_rows(jf.h_prime[ix], [model_d], k, pad=pad, fit_orders=(2, 3, 4))
    B0 = Gb[0].real
    dB0 = Gd[0].real
    K0 = _tail_cumulative(B0, y_abs)
    D0 = _tail_cumulative(dB0, y_abs)
    h0 = float(jf.h[ix, i0].real)
    hp0 = float(jf.h_prime[ix, i0].real)
    H = K0 * hp0 - D0 * h0

    # in |y| both sides read Ψ±(k) = ∫_0^∞ H±(±u) e^{2iku} du
    k_eval = k[::_PSI_K_STRIDE]
    Psi = _filon_linear(y_abs, H, k_eval)
    Phi = jf.h[ix, ::_PSI_K_STRIDE] * hp0 - jf.h_prime[ix, ::_PSI_K_STRIDE] * h0
    residual = float(np.max(np.abs(Phi - 2j * k_eval * Psi)))

    eta_fn = _eta_interp(pot, jf.side, 0.0, jf.side * _Y_MAX)
    ev = eta_fn(jf.side * y_abs)
    ok = ev > 1e-9 * float(np.max(ev))
    c_hat = float(np.max(np.abs(H[ok]) / ev[ok])) if np.any(ok) else 0.0
    return ResonanceFunctionals(
        side=jf.side,
        y_grid=jf.side * y_abs,
        H=H,
        k_grid=k_eval,
        Psi=Psi,
        Phi=Phi,
        identity_residual=residual,
        C_hat_estimate=c_hat,
    )


def kernel_bound_report(kt: KernelTable, pot: Potential) -> dict:
    """Pointwise margins of the kernel bounds on the table grid.

    est1:  |B±(x,y)| ≤ e^{γ±(x)} η±(x+y)
    est11: |∂ₓB±(x,y) ± V(x+y)| ≤ 2 e^{γ±(x)} η±(x+y) η±(x)

    Margins are reported as max(|lhs| − rhs); ≤ 0 means the bound holds.
    """
    side = kt.side
    y_abs = np.abs(kt.y_grid)
    args = kt.x_grid[:, None] + side * y_abs[None, :]
    eta_fn = _eta_interp(pot, side, float(np.min(args)), float(np.max(args)))
    gam = np.array([gamma_moment(pot, float(x), side) for x in kt.x_grid])
    eta_x = np.array([eta(pot, float(x), side) for x in kt.x_grid])
    eta_xy = eta_fn(args)
    bound1 = np.exp(gam)[:, None] * eta_xy
    margin1 = float(np.max(np.abs(kt.B) - bound1))
    rel1 = float(np.max((np.abs(kt.B) - bound1) / (1.0 + bound1)))
    solid = bound1 > 1e-8  # the ratio is noise where the bound itself is tiny
    ratio = float(np.max(np.abs(kt.B)[solid] / bound1[solid])) if np.any(solid) else 0.0
    out = {
        "est1_margin": margin1,
        "est1_relative_margin": rel1,
        "est1_max_ratio": ratio,
    }
    if kt.dB is not None:
        # ∂ₓB is reconstructed right-continuous in |y|, so probe V with the
        # matching one-sided limit at support edges
        v_arg = np.asarray(pot(args + side * 1e-9), dtype=float)
        lhs = np.abs(kt.dB + side * v_arg)
        bound11 = 2.0 * np.exp(gam)[:, None] * eta_xy * eta_x[:, None]
        out["est11_margin"] = float(np.max(lhs - bound11))
        out["est11_relative_margin"] = float(np.max((lhs - bound11) / (1.0 + bound11)))
    return out


# ------------------------------------------------------------------- GLM


def glm_residual(
    kt: KernelTable,
    sd: ScatteringData,
    *,
    pot: Potential,
    eval_stride: int = 1,
) -> GlmReport:
    """Residual of the inverse-scattering (Marchenko) equation for B±.

    With F±(w) = (1/π) ∫ R±(k) e^{±2ikw} dk + 2 Σₙ cₙ² e^{∓2κₙw} the kernel
    must satisfy F±(x+y) + B±(x,y) ± ∫_0^{±∞} B±(x,t) F±(x+y+t) dt = 0 on
    ±y > 0.  The reflection integral is evaluated by linear-Filon quadrature
    on the scattering grid (no windowing), bound-state terms analytically.
    Each jump ΔV of pot at s puts a kink into F at w = side·s, which carries
    the whole 1/k² tail of R that the finite window would otherwise
    truncate; it is split off R as a _RowModel kink at y₀ = −side·s (with
    the fitted 1/k³ remainder as curvature steps) and F(q) reads the model
    at y = −q.  eval_stride > 1 checks the residual on every stride-th
    table point only; the t integral itself keeps full resolution.
    """
    if kt.meta is None or not np.array_equal(kt.meta["k_grid"], sd.k_grid):
        raise ValueError("kernel table and scattering data disagree on the k grid")
    side = kt.side
    y_abs = np.abs(kt.y_grid)
    # reflect side − onto the side + formulas: x → −x, R → R₋, c → c₋
    xs = side * kt.x_grid
    B = kt.B
    R = np.asarray(sd.R_plus if side > 0 else sd.R_minus, dtype=complex)
    k = sd.k_grid

    w_lo = float(np.min(xs))
    w_hi = float(np.max(xs) + 2.0 * y_abs[-1])
    w = np.arange(w_lo, w_hi + _GLM_W_STEP, _GLM_W_STEP)
    model = _RowModel((), [(-st, dv) for st, dv in _v_jumps(pot, side)])
    R_eff = R - model.on_k(k)
    if model.kinks:
        # the remaining 1/k³ tail (second-order Born terms plus the 2ik vs
        # 2 − 2ik denominator mismatch of the kinks) still rings at the kink
        # points when truncated; fit it per phase on the outer fifth of the
        # window
        sel = np.abs(k) > 0.8 * np.max(np.abs(k))
        den3 = (2.0 - 2j * k[sel]) ** 3
        A = np.stack([np.exp(2j * k[sel] * y0) / den3 for y0, _ in model.kinks]).T
        cfit, *_ = np.linalg.lstsq(A, R_eff[sel], rcond=None)
        curves = [(y0, float(c.real)) for (y0, _), c in zip(model.kinks, cfit)]
        model = _RowModel((), model.kinks, curves)
        R_eff = R - model.on_k(k)
    F_refl = _filon_linear(k, R_eff, w) / np.pi
    imag = float(np.max(np.abs(F_refl.imag)))
    if imag > 1e-3:
        raise CrossCheckError(f"F synthesis not real: imaginary part {imag:.2e}")
    smooth_spline = CubicSpline(w, F_refl.real.astype(float))
    bound_terms = [
        (st.kappa, st.c_plus if side > 0 else st.c_minus) for st in sd.bound_states
    ]

    def F_spline(q):
        # kinked and exponential pieces stay analytic: a spline through a
        # kink rings at exactly the points the residual probes
        out = smooth_spline(q) + model.on_y(-q)
        for kap, c in bound_terms:
            out = out + 2.0 * c * c * np.exp(-2.0 * kap * q)
        return out

    F = F_spline(w)

    # the t integrand is only piecewise smooth (kinks of F and of B cross
    # the panels), so the spline quadrature converges at O(h²) there and
    # the grid has to be pushed well past the table spacing.  Refine the
    # smooth remainder of B only; its kinked model part is restored
    # analytically below.
    dy = float(np.median(np.diff(y_abs)))
    fac = max(1, int(np.ceil(dy / 0.0017)))
    y_t = np.linspace(y_abs[0], y_abs[-1], fac * (y_abs.size - 1) + 1)
    b_models = kt.meta["models"]
    model_tab = np.stack([mo.on_y(y_abs) for mo in b_models])
    model_fine = np.stack([mo.on_y(y_t) for mo in b_models])
    B_t = CubicSpline(y_abs, B - model_tab, axis=1)(y_t) + model_fine
    y_eval = y_abs[::eval_stride]
    B_eval = B[:, ::eval_stride]
    res = np.empty_like(B_eval)
    for i, x in enumerate(xs):
        args = x + y_eval[:, None] + y_t[None, :]  # (y, t)
        prod = F_spline(args) * B_t[i][None, :]
        conv = CubicSpline(y_t, prod, axis=1).antiderivative()(y_t[-1])
        res[i] = F_spline(x + y_eval) + B_eval[i] + conv
    return GlmReport(
        side=side,
        x_grid=kt.x_grid,
        y_grid=kt.y_grid[::eval_stride],
        residual=res,
        w_grid=w,
        F=F,
        max_residual=float(np.max(np.abs(res))),
    )


# ----------------------------------------------------------------- exports


def kernel_table_csv(kt: KernelTable) -> str:
    """CSV rows (x, y, B, K, D); K/D blank when not filled."""
    lines = ["x,y,B,K,D"]
    K = kt.K if kt.K is not None else np.full_like(kt.B, np.nan)
    D = kt.D if kt.D is not None else np.full_like(kt.B, np.nan)
    for i, x in enumerate(kt.x_grid):
        for j, y in enumerate(kt.y_grid):
            kv = "" if np.isnan(K[i, j]) else f"{K[i, j]:.12g}"
            dv = "" if np.isnan(D[i, j]) else f"{D[i, j]:.12g}"
            lines.append(f"{x:.12g},{y:.12g},{kt.B[i, j]:.12g},{kv},{dv}")
    return "\n".join(lines) + "\n"


def functionals_json(rf: ResonanceFunctionals, extra: dict | None = None) -> dict:
    out = {
        "side": rf.side,
        "identity_residual": rf.identity_residual,
        "C_hat_estimate": rf.C_hat_estimate,
        "k_min": float(np.min(rf.k_grid)),
        "k_max": float(np.max(rf.k_grid)),
        "H_max": float(np.max(np.abs(rf.H))),
    }
    if extra:
        out.update(extra)
    return out
