"""Transformation-operator kernels and the resonance functionals.

The Jost factor h±(x,k) − 1 is the half-line Fourier transform of a real
kernel B±(x,y),

    h±(x,k) = 1 + ∫_0^{±∞} B±(x,y) e^{±2iky} dy.

From B± come the tail integrals K±(x,y) (of B±) and D±(x,y) (of ∂ₓB±), the
zero-energy functional

    H±(y) = K±(y) h′±(0) − D±(y) h±(0),      h±(0) = h±(0,0),

and its transform Ψ±(k), which satisfies Φ±(k) = 2ik Ψ±(k) with
Φ±(k) = h±(0,k) h′±(0) − ∂ₓh±(0,k) h±(0).

Numerics: B± depends on V alone.  In the reflected frame W(t) = V(±t) it
solves (Deift & Trubowitz, Comm. Pure Appl. Math. 32, 1979)

    B(x,y) = ∫_{x+y}^∞ W + ∫_0^y dz ∫_{x+y−z}^∞ W(t) B(t,z) dt,
    ∂ₓB(x,y) = −W(x+y) − ∫_0^y W(x+y−z) B(x+y−z,z) dz,

by the trapezoid rule on a uniform (t, y) lattice through the breakpoints
of V, with one Richardson step (_kernel_rows).  The Jost rows never enter,
so roundtrip_residual and the identity Φ = 2ikΨ compare two independent
routes.  Each row is smooth in y between its kinks y = b̃ − x̃;
_piecewise_cubic carries the lattice rows to finer grids and integrates.

The Fourier sums (Ψ±, the roundtrip transform, the GLM synthesis of F±)
are linear-Filon rules on uniform grids, so their panel sums are chirp-z
transforms (Rabiner, Schafer & Rader, IEEE Trans. Audio Electroacoust. 17,
1969).  _filon_linear evaluates them by Bluestein FFTs on tiles of _TILE
nodes in both grids, O(N·M·log(_TILE)/_TILE) work for N inputs and M
outputs, where the dense phase matrix costs N·M complex exponentials; the
short chirps keep the error at a few 1e-15 of max|result|.  The GLM t
sum reads F on one fine grid per row, as a correlation.

scipy.interpolate (CubicSpline, whose banded solve numpy lacks) makes
this the one module that loads a scipy submodule at import; the CLI
imports it inside the kernels stage, so the others start on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft, ifft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.interpolate import CubicSpline

from .errors import CrossCheckError
from .jost import JostField, unfold
from .potentials import Potential, cutoff_for_eta, eta, gamma_moment
from .scattering import ScatteringData
from .wiener import _fast_len, _uniform_step

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

_Y_MAX = 16.0  # reach in |y| of every kernel table and of H±
_H = 0.005  # target step of the kernel lattice in t and y
_TABLE_STRIDE = 5  # tables keep every 5th lattice point in |y|
_ETA_TOL = 1e-14  # tail mass of V past the kernel lattice
_FINE_N = 16001  # points of the Ψ± and roundtrip y grids, a step near 1e-3
_PSI_K_STRIDE = 20  # Ψ±, Φ± on every 20th grid wavenumber
_GLM_W_STEP = 0.01  # spline grid of the GLM input F±
_TILE = 256  # nodes per tile of the chirp-z sums, in y and in k


@dataclass(frozen=True)
class KernelTable:
    """B±(x,y) (and, from kd_kernels, K±, D±, ∂ₓB±) on an x × y grid.

    y_grid is signed (±y ≥ 0 for side ±) but stored with |y| increasing;
    meta keeps the lattice rows the table was taken from.
    """

    side: int
    x_grid: np.ndarray
    y_grid: np.ndarray
    B: np.ndarray
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


# ------------------------------------------------------------ kernel lattice


def _rev_cumsum(v: np.ndarray) -> np.ndarray:
    """Σ_{k ≥ i} v_k."""
    return np.cumsum(v[::-1])[::-1]


def _w_sided(pot: Potential, side: int, t, direction: float) -> np.ndarray:
    """W(t) = V(side·t), with the one-sided limit from `direction` at a breakpoint."""
    t = np.asarray(t, dtype=float)
    bps = np.array([side * b for b in pot.breakpoints])
    at_bp = np.any(np.abs(t[..., None] - bps) < 1e-9, axis=-1)
    return np.asarray(pot(side * np.where(at_bp, t + direction * 1e-9, t)), dtype=float)


def _hat_moments(pot: Potential, side: int, t: np.ndarray):
    """(α, β) per cell of the sorted nodes t: the integrals of W against the
    hats (t_{c+1} − τ)/Δ and (τ − t_c)/Δ over [t_c, t_{c+1}].  Gauss–Legendre
    on each cell, split at the breakpoints of W, so a jump anywhere is
    integrated exactly."""
    inner = [side * b for b in pot.breakpoints if t[0] < side * b < t[-1]]
    cuts = np.union1d(t, [b for b in inner if np.min(np.abs(t - b)) > 1e-9])
    cell = np.searchsorted(t, cuts[:-1], side="right") - 1
    xg, wg = np.polynomial.legendre.leggauss(4)
    half = 0.5 * np.diff(cuts)[:, None]
    tau = cuts[:-1, None] + half * (1.0 + xg)
    wv = np.asarray(pot(side * tau), dtype=float) * half * wg
    lo, hi = t[cell][:, None], t[cell + 1][:, None]
    alpha = np.bincount(cell, np.sum(wv * (hi - tau) / (hi - lo), axis=1), t.size - 1)
    beta = np.bincount(cell, np.sum(wv * (tau - lo) / (hi - lo), axis=1), t.size - 1)
    return alpha, beta


def _solve_lattice(pot: Potential, side: int, t: np.ndarray, f: int, n_y: int, keep):
    """B and E = ∂ₓB + W(x+y) by one trapezoid solve on the uniform nodes t
    refined f times, of step s (column j at y = j·s), at the nodes `keep` of
    t and its first n_y columns, stacked as (2, column, node).

    Column j reads the right-hand side R(u) = ∫_u W + the z-sums of ∫ W B
    through its differences D along u = t + y, which each column updates as
    running sums.  With the diagonal cell implicit, B_i = a_i B_{i+1} + c_i
    in t, one reversed cumulative sum; B vanishes at the lattice's end.  E
    is the z-trapezoid of −W B, its diagonal end at x included.
    """
    t = np.linspace(t[0], t[-1], f * (t.size - 1) + 1)
    s, n, keep = t[1] - t[0], t.size - 1, f * keep
    alpha, beta = _hat_moments(pot, side, t)
    w_right, w_left = _w_sided(pot, side, t, +1.0), _w_sided(pot, side, t, -1.0)
    inv = 1.0 / (1.0 - 0.5 * s * alpha)
    P = np.cumprod(np.concatenate([[1.0], (1.0 + 0.5 * s * beta) * inv]))  # Π_{l<i} a_l
    Q = P[:-1] * inv
    sa, sb, sw = s * alpha, s * beta, 0.5 * s * (w_left + w_right)
    out = np.zeros((2, n_y, keep.size))
    D = alpha + beta  # R(u_i) − R(u_{i+1}); column 0 is B(x,0) = ∫_x W itself
    B = np.append(_rev_cumsum(D), 0.0)
    out[0, 0] = B[keep]
    # the z = 0 end of the trapezoid, with W from below there
    D += 0.5 * (sa * B[:-1] + sb * B[1:])
    acc_e = 0.5 * s * w_left * B  # z-sums of W B along u
    for j in range(1, min(f * (n_y - 1) + 1, n + 1)):
        m = n + 1 - j  # nodes with t + y inside the lattice
        B = np.append(_rev_cumsum(D[j:] * Q[: m - 1]) / P[: m - 1], 0.0)
        if j % f == 0:
            k = keep[keep < m]
            out[:, j // f, keep < m] = B[k], -(acc_e[j + k] + 0.5 * s * w_right[k] * B[k])
        D[j:] += sa[: m - 1] * B[:-1] + sb[: m - 1] * B[1:]
        acc_e[j:] += sw[:m] * B
    return out


def _x_weights(theta: float, i0: int, p: np.ndarray, n_y: int) -> np.ndarray:
    """(n_y, 6) weights on the nodes i0−2 … i0+3 for a row at i0 + θ: per
    column j, up to 4 nodes inside the smooth piece bounded by the singular
    positions p and p − j (index units, both on nodes)."""
    rel = np.concatenate([p[:, None] + np.zeros(n_y), p[:, None] - np.arange(n_y)]) - i0
    lo = np.max(np.where(rel <= theta, rel, -np.inf), axis=0, initial=-np.inf)
    hi = np.min(np.where(rel >= theta, rel, np.inf), axis=0, initial=np.inf)
    lo = np.clip(np.ceil(lo - 1e-9), -2, 0).astype(int)
    hi = np.clip(np.floor(hi + 1e-9), 1, 3).astype(int)
    if theta == 0.0:  # a row on the lattice reads its node
        lo[:], hi[:] = 0, 0
    w = np.zeros((n_y, 6))
    for a, b in set(zip(lo.tolist(), hi.tolist())):
        start = min(max(-1, a), b - 3) if b - a >= 3 else a
        nodes = np.arange(start, min(b, start + 3) + 1)
        vander = np.vander(nodes, increasing=True).T  # Lagrange weights at θ
        lagrange = np.linalg.solve(vander, theta ** np.arange(nodes.size))
        w[np.ix_((lo == a) & (hi == b), nodes + 2)] = lagrange
    return w


def _kernel_rows(pot: Potential, side: int, xs: np.ndarray) -> dict:
    """B, E = ∂ₓB + W(x̃+y) and the kinks y = b̃ − x̃ of the reflected rows xs
    on the lattice y ≤ 16.  The nodes t = b̃_min + i·h with h = (b̃_max −
    b̃_min)/n near _H put every breakpoint b̃ and every b̃ − y on a node; they
    run from the smallest row to the cutoff for _ETA_TOL."""
    bps = sorted(side * b for b in pot.breakpoints)
    anchor = bps[0] if bps else 0.0
    span = bps[-1] - anchor if bps else 0.0
    h = span / max(1, round(span / _H)) if span > 0 else _H
    q = (xs - anchor) / h
    on = np.abs(q - np.round(q)) < 1e-9
    i0 = np.where(on, np.round(q), np.floor(q)).astype(int)
    theta = np.where(on, 0.0, q - i0)
    lo = int(i0.min()) - 2
    hi = max(int(np.ceil((cutoff_for_eta(pot, _ETA_TOL) - anchor) / h)), int(i0.max()) + 3)
    n_y = _TABLE_STRIDE * int(_Y_MAX / (_TABLE_STRIDE * h) + 1e-9) + 1
    keep = (i0[:, None] - lo + np.arange(-2, 4)).ravel()
    t = anchor + h * np.arange(lo, hi + 1)
    coarse, fine = (_solve_lattice(pot, side, t, f, n_y, keep) for f in (1, 2))
    BE = ((4.0 * fine - coarse) / 3.0).reshape(2, n_y, xs.size, 6)  # one Richardson step
    p = (np.array(bps) - anchor) / h
    w = np.stack([_x_weights(float(a), int(b), p, n_y) for a, b in zip(theta, i0)], axis=1)
    B, E = np.einsum("qyrn,yrn->qry", BE, w)
    kinks = [[b - x for b in bps if b - x > 1e-9 * h] for x in xs]
    return {"y": h * np.arange(n_y), "B": B, "E": E, "kinks": kinks}


def _piecewise_cubic(y, rows, kinks, y_new, *, tail: bool = False) -> np.ndarray:
    """Rows sampled on the uniform grid y, one cubic spline per smooth piece
    between each row's kinks: their values at y_new or, with tail, the
    integrals ∫_{y_new}^{y[-1]}."""
    out = np.empty((len(rows), y_new.size))
    for r, (row, ks) in enumerate(zip(rows, kinks)):
        edges = [y[0], *(k for k in ks if y[0] < k < y[-2]), y[-1]]
        acc = 0.0
        for a, b in reversed(list(zip(edges[:-1], edges[1:]))):
            idx = np.flatnonzero((y >= a - 1e-9) & (y <= b + 1e-9))
            ys, vs = y[idx], row[idx]
            if idx.size < 2:  # shorter than a step: closed by the next piece's value at b
                ys, vs = np.append(ys, b), np.append(vs, right)
            spl = CubicSpline(ys, vs)
            right = spl(a)
            at = (y_new >= a) & (y_new <= b)
            if tail:
                spl = spl.antiderivative()
                out[r, at] = acc + spl(b) - spl(y_new[at])
                acc += spl(b) - spl(a)
            else:
                out[r, at] = spl(y_new[at])
    return out


def _tails(pot: Potential, side: int, xs: np.ndarray, lat: dict, y_new: np.ndarray):
    """(K, D) in the reflected frame at y_new (ending at the lattice's last y):
    ∫_y B and ∫_y ∂ₓB = ∫_y E − ∫_{x̃+y} W, piece by piece."""
    K = _piecewise_cubic(lat["y"], lat["B"], lat["kinks"], y_new, tail=True)
    D = _piecewise_cubic(lat["y"], lat["E"], lat["kinks"], y_new, tail=True)
    w_tails = [_rev_cumsum(np.add(*_hat_moments(pot, side, x + y_new))) for x in xs]
    return K, D - np.array([np.append(wt, 0.0) for wt in w_tails])


def b_kernel(jf: JostField, *, pot: Potential) -> KernelTable:
    """Kernel table B±(x,·) for every x in the field's grid, from pot (the
    potential jf was computed for) alone, on every 5th lattice |y| ≤ 16."""
    lat = _kernel_rows(pot, jf.side, jf.side * jf.x_grid)
    y = lat["y"][::_TABLE_STRIDE]
    return KernelTable(jf.side, jf.x_grid, jf.side * y, lat["B"][:, ::_TABLE_STRIDE], meta=lat)


def kd_kernels(kt: KernelTable, jf: JostField, *, pot: Potential) -> KernelTable:
    """Fill K± and D± (tail integrals of B± and ∂ₓB±) and ∂ₓB± of the table
    b_kernel built from jf and pot; ∂ₓB± is right-continuous in |y| on the
    jump lines x + y = b."""
    if kt.side != jf.side or not np.array_equal(kt.x_grid, jf.x_grid):
        raise ValueError("kernel table and Jost field disagree on side or rows")
    side, lat = kt.side, kt.meta
    xs, y = side * kt.x_grid, np.abs(kt.y_grid)
    K, D = _tails(pot, side, xs, lat, y)
    dB = lat["E"][:, ::_TABLE_STRIDE] - _w_sided(pot, side, xs[:, None] + y, +1.0)
    return replace(kt, K=K, D=side * D, dB=side * dB)


def roundtrip_residual(kt: KernelTable, jf: JostField) -> float:
    """max |forward transform of B − (h−1)| over every 10th wavenumber of
    the interior |k| ≤ K/2, by the linear-Filon rule on half Ψ's y step (its
    error, step²/12 times the slope jumps of B, is 1e-6 at Ψ's step), on
    the line of ±k that the field's |k| make (_k_line)."""
    k = _k_line(jf)
    k = k[np.flatnonzero(np.abs(k) <= 0.5 * np.max(np.abs(k)))[::10]]
    lat = kt.meta
    y = np.linspace(0.0, lat["y"][-1], 2 * _FINE_N - 1)
    forward = _filon_linear(y, _piecewise_cubic(lat["y"], lat["B"], lat["kinks"], y), k)
    return float(np.max(np.abs(forward - (unfold(jf.h, jf.k_grid, k) - 1.0))))


def _k_line(jf: JostField) -> np.ndarray:
    """The grid of ±k whose distinct |k| the field holds, k = 0 once."""
    k = jf.k_grid
    return np.concatenate([-k[::-1][: k.size - int(k[0] == 0.0)], k])


# ---------------------------------------------------------- Ψ, Φ, H and Ĉ


def _endpoint_step(v: np.ndarray, name: str) -> float:
    """Step of the uniform increasing grid v, from its endpoints."""
    _uniform_step(v, name)
    return float((v[-1] - v[0]) / (v.size - 1))


def _chirp_sums(c: np.ndarray, y: np.ndarray, dy: float, k: np.ndarray, dk: float):
    """Σ_j c[..., j] e^{2ik y_j} for every k, y and k uniform of steps dy
    and dk: a Bluestein chirp-z transform on tiles of _TILE nodes in y and
    in k.  With y = y_a + p·dy and k = k_b + q·dk inside a tile pair,
    2ky = 2k·y_a + 2k_b·p·dy + θpq with θ = 2·dy·dk, and θpq = θ(p² + q² −
    (q−p)²)/2 makes the sum over p one convolution with the chirp
    e^{−iθd²/2}, |d| < _TILE.  Every input tile of one output tile goes
    through one batched FFT; the start phases e^{2ik·y_a} are taken from
    the grid values, not from the steps."""
    n_in = -(-y.size // _TILE)
    pad = np.zeros(c.shape[:-1] + (n_in * _TILE,), dtype=complex)
    pad[..., : y.size] = c
    pad = pad.reshape(c.shape[:-1] + (n_in, _TILE))
    theta = 2.0 * dy * dk
    p = np.arange(_TILE)
    chirp = np.exp(0.5j * theta * p * p)
    d = np.arange(1 - _TILE, _TILE)
    L = _fast_len(2 * _TILE - 1)
    kernel = np.zeros(L, dtype=complex)
    kernel[d % L] = np.exp(-0.5j * theta * d * d)
    kernel = fft(kernel)
    out = np.empty(c.shape[:-1] + (k.size,), dtype=complex)
    for lo in range(0, k.size, _TILE):
        kb = k[lo : lo + _TILE]
        g = fft(pad * (chirp * np.exp(2j * kb[0] * dy * p)), n=L, axis=-1)
        g = ifft(g * kernel, axis=-1)[..., : kb.size]
        start = np.exp(2j * y[::_TILE, None] * kb)  # (n_in, tile)
        out[..., lo : lo + kb.size] = np.einsum("...aq,aq->...q", g, start) * chirp[: kb.size]
    return out


def _filon_linear(y: np.ndarray, rows: np.ndarray, k_eval: np.ndarray):
    """∫ rows(y) e^{2iky} dy on the uniform grid y, exact for piecewise-linear
    amplitude (no aliasing at large k, error set only by interpolation).

    On panel [y_j, y_j + h] the rule weighs a_j = rows_j and the slope
    b_j − a_j by m0 = (e^{iu} − 1)/(iu) and m1 = (e^{iu}(iu − 1) + 1)/(iu)²,
    u = 2kh, so the panel sums s0 = Σ a_j e^{2iky_j} and s1 = Σ (b_j −
    a_j) e^{2iky_j} are chirp-z transforms (_chirp_sums).  Both steps come
    from the grid endpoints: y[1] − y[0] of a grid through ±60 is off by up
    to 1e-12 relative.  Against the same rule summed in 25 digits the error
    is a few 1e-15 of max|result|; the start phases' arguments, up to about
    4·10³ rad, are rounded as in a dense phase matrix.  y and k_eval must be
    uniform and increasing with at least two points, else ValueError.
    """
    h = _endpoint_step(y, "y")
    dk = _endpoint_step(k_eval, "k_eval")
    iu = 2j * k_eval * h
    small = np.abs(iu) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(iu)
        m0 = np.where(small, 1.0 + iu / 2.0 + (iu**2) / 6.0, (e - 1.0) / iu)
        m1 = np.where(small, 0.5 + iu / 3.0 + (iu**2) / 8.0, (e * (iu - 1.0) + 1.0) / (iu**2))
    a = rows[..., :-1]
    s0, s1 = _chirp_sums(np.stack([a, rows[..., 1:] - a]), y[:-1], h, k_eval, dk)
    return h * (s0 * m0 + s1 * m1)


def resonance_functionals(jf: JostField, pot: Potential) -> ResonanceFunctionals:
    """H±, Ψ±, Φ± at x = 0 with the identity residual max|Φ − 2ikΨ|.

    H± lives on 0 ≤ |y| ≤ 16, the reach of the kernel tables, on a y step
    of about 1e-3 (K± and D± of the x = 0 lattice row, piece by piece).
    Ψ±(k) = ∫_0^{±∞} H±(y) e^{±2iky} dy is evaluated by linear-Filon
    quadrature on that grid, so the residual stays meaningful at the
    largest grid wavenumbers; Ψ± and Φ± are kept on every 20th grid
    wavenumber of the line of ±k that the field's |k| make (_k_line).  Ĉ
    is the grid maximum of |H±(y)| / η±(y), η± from potentials.eta.
    """
    ix = jf.x_index(0.0)
    if jf.k_grid[0] > 1e-12:
        raise ValueError("resonance functionals need k = 0 on the grid")
    side, x0 = jf.side, np.array([0.0])
    lat = _kernel_rows(pot, side, x0)
    y_abs = np.linspace(0.0, lat["y"][-1], _FINE_N)
    K0, D0 = _tails(pot, side, x0, lat, y_abs)
    h0, hp0 = float(jf.h[ix, 0].real), float(jf.h_prime[ix, 0].real)
    H = K0[0] * hp0 - side * D0[0] * h0

    # in |y| both sides read Ψ±(k) = ∫_0^∞ H±(±u) e^{2iku} du
    k_eval = _k_line(jf)[::_PSI_K_STRIDE]
    Psi = _filon_linear(y_abs, H, k_eval)
    Phi = unfold(jf.h[ix] * hp0 - jf.h_prime[ix] * h0, jf.k_grid, k_eval)
    residual = float(np.max(np.abs(Phi - 2j * k_eval * Psi)))

    ev = eta(pot, side * y_abs, side)
    ok = ev > 1e-9 * float(np.max(ev))
    c_hat = float(np.max(np.abs(H[ok]) / ev[ok])) if np.any(ok) else 0.0
    return ResonanceFunctionals(
        side=side,
        y_grid=side * y_abs,
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
    η±(x+y), η±(x) and γ±(x) come from one call each to potentials.eta and
    potentials.gamma_moment, the moment rule that integrates V.
    """
    side = kt.side
    y_abs = np.abs(kt.y_grid)
    args = kt.x_grid[:, None] + side * y_abs[None, :]
    gam = gamma_moment(pot, kt.x_grid, side)
    eta_x = eta(pot, kt.x_grid, side)
    eta_xy = eta(pot, args, side)
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
        # ∂ₓB is right-continuous in |y| on the jump lines x + y = b, so
        # probe V with the matching one-sided limit there
        v_arg = np.asarray(pot(args + side * 1e-9), dtype=float)
        lhs = np.abs(kt.dB + side * v_arg)
        bound11 = 2.0 * np.exp(gam)[:, None] * eta_xy * eta_x[:, None]
        out["est11_margin"] = float(np.max(lhs - bound11))
        out["est11_relative_margin"] = float(np.max((lhs - bound11) / (1.0 + bound11)))
    return out


# ------------------------------------------------------------------- GLM


class _RowModel:
    """Half-line profile model of F's kinks: kinks and curvature steps at y_j.

    A kink (y_j, G) contributes G (u−y_j) e^{−2(u−y_j)} Θ(u−y_j) in y and
    G e^{2iky_j}/(2−2ik)² in k; a curvature step (y_j, C) contributes
    C ((u−y_j)²/2) e^{−2(u−y_j)} Θ ↔ C e^{2iky_j}/(2−2ik)³.  Subtracting the
    k-side model before the synthesis removes the 1/k² and 1/k³ tails, so
    the window truncation acts only on a rapidly decaying remainder.
    """

    __slots__ = ("kinks", "curves")

    def __init__(self, kinks, curves=()):
        self.kinks = tuple(kinks)
        self.curves = tuple(curves)

    def on_k(self, k: np.ndarray) -> np.ndarray:
        g = np.zeros(k.size, dtype=complex)
        den = 2.0 - 2j * k
        for y0, cg in self.kinks:
            g += cg * np.exp(2j * k * y0) / den**2
        for y0, cc in self.curves:
            g += cc * np.exp(2j * k * y0) / den**3
        return g

    def on_y(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        r = np.zeros(y.shape)
        for y0, cg in self.kinks:
            r += cg * (y - y0) * np.exp(-2.0 * (y - y0)) * (y >= y0)
        for y0, cc in self.curves:
            u = y - y0
            r += cc * 0.5 * u * u * np.exp(-2.0 * u) * (y >= y0)
        return r


def _v_jumps(pot: Potential, side: int) -> list[tuple[float, float]]:
    """Jumps (t̃_j, ΔW_j) of W(t) = V(side·t) at its breakpoints, t̃ increasing."""
    bps = np.array(sorted(side * b for b in pot.breakpoints))
    dw = _w_sided(pot, side, bps, +1.0) - _w_sided(pot, side, bps, -1.0)
    return [(float(b), float(d)) for b, d in zip(bps, dw) if d != 0.0]


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
    at y = −q.  The t integral is Simpson's 3/8 rule on a third of the
    lattice step, panels between the kinks of B and F, so it is O(h⁴);
    past the first panel its nodes and the rows y lie on one grid of step
    h/3, so the sum is one correlation per row.
    eval_stride > 1 checks the residual on every stride-th table point only.
    """
    side = kt.side
    y_abs = np.abs(kt.y_grid)
    # reflect side − onto the side + formulas: x → −x, R → R₋, c → c₋
    xs = side * kt.x_grid
    R = np.asarray(sd.R_plus if side > 0 else sd.R_minus, dtype=complex)
    k = sd.k_grid

    w_lo = float(np.min(xs))
    w_hi = float(np.max(xs) + 2.0 * y_abs[-1])
    w = np.arange(w_lo, w_hi + _GLM_W_STEP, _GLM_W_STEP)
    model = _RowModel([(-st, dv) for st, dv in _v_jumps(pot, side)])
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
        model = _RowModel(model.kinks, curves)
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

    # the kinks t = b̃ − x̃ of B and b̃ − x̃ − y of F all lie on (b̃ − x̃ mod h)
    # + m·h (b̃ on the lattice, y on its steps), so each panel is smooth;
    # past the last one B is below the lattice's tail tolerance
    lat = kt.meta
    h = lat["y"][1]
    y_eval = y_abs[::eval_stride]
    B_eval = kt.B[:, ::eval_stride]
    res = np.empty_like(B_eval)
    stride = 3 * _TABLE_STRIDE * eval_stride  # y_eval's step in t steps h/3
    for i, (x, ks) in enumerate(zip(xs, lat["kinks"])):
        edges = np.r_[0.0, np.arange(ks[0] % h if ks else 0.0, lat["y"][-1] - 1e-9, h)]
        width = np.diff(edges)
        t = np.r_[(edges[:-1, None] + np.outer(width, [0.0, 1.0, 2.0]) / 3.0).ravel(), edges[-1]]
        wt = np.r_[np.outer(width, [1.0, 3.0, 3.0]).ravel(), 0.0] / 8.0
        wt[3::3] += width / 8.0
        wB = wt * _piecewise_cubic(lat["y"], lat["B"][i : i + 1], [ks], t)[0]
        n_t = t.size - 3
        fine = F_spline(x + t[3] + (h / 3.0) * np.arange(stride * (y_eval.size - 1) + n_t))
        conv = sliding_window_view(fine, n_t)[::stride] @ wB[3:]
        conv += F_spline(x + y_eval[:, None] + t[:3]) @ wB[:3]
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
