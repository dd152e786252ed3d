"""Panel quadrature for integrals with the quadratic phase e^{−iφ}, φ = tk² − bk.

Nodal weights w with Σ w_j A(k_j) = ∫ e^{−iφ} A dk, exact for
piecewise-linear A, so accuracy is set by how well straight segments
follow the amplitude, whatever t.  With k = c + σs on a panel of midpoint
c and half-width σ, φ = φ(c) + αs + βs² (α = (2tc − b)σ, β = tσ²), and the
panel's two hat pieces are σe^{−iφ(c)}(P₀ ∓ P₁)/2 with P_q =
∫_{−1}^{1} s^q e^{−i(αs + βs²)} ds.  The large phase sits in e^{−iφ(c)}
(double-double reduction of t·c² ~ 10⁷ rad); for β ≤ _BETA_MAX, P₀ and P₁
are short Taylor series in β over exact moments in cos α, sin α and 1/α.
Larger β (coarse grids) keeps the erf closed form, u = k − b/2t, w² = it:

    ∫ e^{−iφ} dk   = e^{ib²/(4t)} √π/(2w) · erf(wu) + const,
    ∫ k e^{−iφ} dk = e^{ib²/(4t)} e^{−itu²}/(−2it) + (b/2t)·(above).

The transcendental factors are per-panel tables (PanelTables): (σ/2)e^{−itc²}
and e^{2itcσ} once per time, e^{ibc} and e^{−ibσ} once per separation (the
conjugates for −b), so a pair (t, b) costs arithmetic only.  On nested
uniform node sets the coarser weights follow from the finest w by
restriction R: a hat of every second node is 1 at its node and ½ at its
two neighbours.  With E placing a coarse vector on every second node,
V = (4w − E·Rw)/3 and U = (4Rw − E·RRw)/3 give the Richardson extrapolants
of the finest and of the fine pair of levels as one sum each.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wofz

__all__ = [
    "PanelTables",
    "full_line_integral",
    "fresnel_weights",
    "truncation_tail",
]

_BETA_MAX = 0.05  # above it the erf closed form; below, at most 8 β terms
_ALPHA_SMALL = 1.0  # below it the moments start from a 10-term series in α
_ODD_FACTORIALS = np.cumprod(np.arange(1.0, 21.0))[::2]
# panels per pass of _panel_weights, so that its work arrays stay in cache
_BLOCK = 8192
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)  # hi + lo


def full_line_integral(t: float, b: float) -> complex:
    """∫_R e^{−i(tk²−bk)} dk = √(π/(it)) e^{ib²/(4t)}."""
    if t <= 0.0:
        raise ValueError("quadratic-phase rule needs t > 0")
    return complex(np.sqrt(np.pi / (1j * t)) * np.exp(1j * b * b / (4.0 * t)))


def fresnel_weights(k_grid, t: float, b: float) -> np.ndarray:
    """Nodal weights w with Σ w_j A(k_j) = ∫ e^{−i(tk²−bk)} A(k) dk for
    piecewise-linear A on the (strictly increasing) node set."""
    if t <= 0.0:
        raise ValueError("quadratic-phase rule needs t > 0")
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or k.size < 2:
        raise ValueError("need at least two nodes")
    # a subnormal gap overflows 1/h in the erf closed form
    if np.any(np.diff(k) < np.finfo(float).tiny):
        raise ValueError("nodes must increase by at least the smallest normal double")
    return next(PanelTables(k, np.array([float(t)])).weights(b))


def _midpoints(k: np.ndarray):
    """(c, c_lo, σ) per panel: the midpoint exactly as c + c_lo, by
    two-sum, and the half-width."""
    lo, hi = k[:-1], k[1:]
    s = lo + hi
    z = s - lo
    return 0.5 * s, 0.5 * ((lo - (s - z)) + (hi - z)), 0.5 * (hi - lo)


def _two_prod(a, b):
    """(p, e) with p = fl(ab) and p + e = ab exactly (Veltkamp splits)."""
    ah, bh = (134217729.0 * v - (134217729.0 * v - v) for v in (a, b))
    al, bl, p = a - ah, b - bh, a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _chirp(t: float, c, c_lo=0.0) -> np.ndarray:
    """e^{−it(c + c_lo)²}, with t·c² and its reduction mod 2π in
    double-double arithmetic: one rounding of t·c² ~ 10⁷ is ~1e-9 rad."""
    sq, sq_err = _two_prod(c, c)
    q, q_err = _two_prod(t, sq)
    n = np.rint(q / _TWO_PI[0])
    g, g_err = _two_prod(n, _TWO_PI[0])
    # q − g is exact (Sterbenz); the small terms carry the rest
    r = (q - g) - g_err - n * _TWO_PI[1] + (q_err + t * sq_err + 2.0 * t * c * c_lo)
    return np.exp(-1j * r)


def _taylor_pieces(alpha, cos_a, sin_a, beta, small: bool):
    """(P₀, P₁) = (2 Σ (−iβ)ⁿ/n! c₂ₙ, −2i Σ (−iβ)ⁿ/n! s₂ₙ₊₁), cut once the
    largest term left out over P₀ ≈ 2, βⁿ⁺¹/((n+1)!(2n+3)), is below 2⁻⁵³.
    The moments c_m = ∫₀¹ sᵐ cos αs and s_m = ∫₀¹ sᵐ sin αs follow from
    c_m = (sin α − m s_{m−1})/α and s_m = (m c_{m−1} − cos α)/α: upward from
    c₀ = sin α/α for |α| ≥ _ALPHA_SMALL (errors grow by m/|α|, but the high
    moments carry powers of β ≤ _BETA_MAX), downward from the Taylor series
    of the last one below it (errors shrink by |α|/m)."""
    bmax = float(np.max(beta))
    n_beta = next(n for n in range(9) if bmax ** (n + 1) / math.factorial(n + 1) / (2 * n + 3) < 2.0**-53)
    top = 2 * n_beta + 1
    if small:
        j = np.arange(_ODD_FACTORIALS.size)
        coef = (-1.0) ** j / (_ODD_FACTORIALS * (top + 2 * j + 2))
        mom, neg_sin = [alpha * np.polynomial.polynomial.polyval(alpha * alpha, coef)], -sin_a
        for m in range(top, 0, -1):
            x = mom[-1] * alpha
            x += cos_a if m % 2 else neg_sin
            x *= (1.0 if m % 2 else -1.0) / m
            mom.append(x)
        mom.reverse()
    else:
        inv = 1.0 / alpha
        mom, scale = [sin_a * inv], (-inv, inv)
        for m in range(1, top + 1):
            x = mom[-1] * m
            x -= cos_a if m % 2 else sin_a
            x *= scale[m % 2]
            mom.append(x)
    p0, p1 = np.zeros((2,) + alpha.shape, dtype=complex)
    q = 2.0
    for n in range(n_beta + 1):
        if n:
            q = q * beta / n
        # the unit (−i)ᵏ cycles 1, −i, −1, i: each term adds to one part
        for p, x, k in ((p0, mom[2 * n] * q, n), (p1, mom[2 * n + 1] * q, n + 1)):
            part = p.imag if k % 2 else p.real
            if k % 4 in (1, 2):
                part -= x
            else:
                part += x
    return p0, p1


def _erf_pieces(k, t: float, b: float):
    """(lo, hi) hat pieces of the panels of k by the erf closed form, with
    erf(wu) = sign(u)(1 − e^{−itu²} w(iw|u|)) (Faddeeva's w): the 1s of a
    panel on one side of u = 0 cancel exactly, and _chirp gives the phase."""
    h, u = np.diff(k), k - b / (2.0 * t)
    w45, pref = np.exp(0.25j * np.pi) * np.sqrt(t), np.exp(1j * b * b / (4.0 * t))
    chirp, sign = _chirp(t, u), np.sign(u)
    d_erf = np.diff(sign) - np.diff(sign * chirp * wofz(1j * w45 * np.abs(u)))
    m0 = pref * (np.sqrt(np.pi) / (2.0 * w45)) * d_erf
    m1 = pref * np.diff(chirp) / (-2j * t) + (b / (2.0 * t)) * m0
    return (k[1:] * m0 - m1) / h, (m1 - k[:-1] * m0) / h


def _panel_weights(k, c, sig, t: float, b: float, chirp_t, chirp_b, spin_t, spin_b) -> np.ndarray:
    """Nodal weights on k from the panels' midpoints c, half-widths sig and
    the factors of (σ/2)e^{−iφ(c)} = chirp_t·chirp_b and e^{iα} =
    spin_t·spin_b.  Panels go in blocks of _BLOCK, each in runs of one
    kind: 0 for |α| ≥ _ALPHA_SMALL, 1 below it, 2 for β > _BETA_MAX (at
    most three runs on a uniform node set: β is constant, α increasing)."""
    w = np.zeros(k.size, dtype=complex)
    for b0 in range(0, c.size, _BLOCK):
        s = sig[b0 : b0 + _BLOCK]
        alpha = (2.0 * t * c[b0 : b0 + _BLOCK] - b) * s
        beta = t * s * s
        kind = np.where(beta > _BETA_MAX, 2, np.abs(alpha) < _ALPHA_SMALL)
        edges = [0, *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), alpha.size]
        for i0, i1 in zip(edges[:-1], edges[1:]):
            run = slice(b0 + i0, b0 + i1)
            if kind[i0] == 2:
                lo, hi = _erf_pieces(k[b0 + i0 : b0 + i1 + 1], t, b)
            else:
                e = spin_t[run] * spin_b[run]
                p0, p1 = _taylor_pieces(alpha[i0:i1], e.real, e.imag, beta[i0:i1], kind[i0] == 1)
                g = chirp_t[run] * chirp_b[run]
                lo, hi = g * (p0 - p1), g * (p0 + p1)
            w[b0 + i0 : b0 + i1] += lo
            w[b0 + i0 + 1 : b0 + i1 + 1] += hi
    return w


class PanelTables:
    """The panel tables of the node set k for the times ts."""

    def __init__(self, k, ts):
        self.k, self.ts = k, ts
        self.c, c_lo, self.sig = _midpoints(k)
        self.chirp = np.array([0.5 * self.sig * _chirp(t, self.c, c_lo) for t in ts])
        self.spin = np.exp(2j * np.multiply.outer(ts, self.c * self.sig))

    def weights(self, b: float):
        """Yield the nodal weights of each time at b, then at −b."""
        chirp_b, spin_b = np.exp(1j * b * self.c), np.exp(-1j * b * self.sig)
        for sb, chirp_sb, spin_sb in ((b, chirp_b, spin_b), (-b, chirp_b.conj(), spin_b.conj())):
            for t, chirp, spin in zip(self.ts, self.chirp, self.spin):
                yield _panel_weights(self.k, self.c, self.sig, t, sb, chirp, chirp_sb, spin, spin_sb)

    def richardson_weights(self, b: float) -> tuple[np.ndarray, np.ndarray]:
        """(V, U) on a uniform node set of 4n − 3 nodes, (2·len(ts), 4n − 3)
        and (2·len(ts), 2n − 1), with rows in the order of weights(b)."""
        v = np.empty((2 * self.ts.size, self.k.size), dtype=complex)
        u = np.empty((2 * self.ts.size, (self.k.size + 1) // 2), dtype=complex)
        for w, wv, wu in zip(self.weights(b), v, u):
            rw = _restrict(w)
            for x, rx in ((w, rw), (rw, _restrict(rw))):  # (4x − E·Rx)/3
                x *= 4.0
                x[::2] -= rx
                x /= 3.0
            wv[...], wu[...] = w, rw
        return v, u


def _restrict(w: np.ndarray) -> np.ndarray:
    """Weights on every second node of a uniform node set from the weights
    on all of them: w_c[J] = w[2J] + ½(w[2J−1] + w[2J+1]), one-sided at the
    ends.  Exact for weights of any rule that is exact on piecewise-linear
    amplitudes, such as fresnel_weights."""
    if w.size % 2 == 0:
        raise ValueError("restriction needs an odd number of nodes")
    out = w[::2].copy()
    half = 0.5 * w[1::2]
    out[:-1] += half
    out[1:] += half
    return out


def truncation_tail(amp_left: float, amp_right: float, t: float, b: float, k_max: float) -> float:
    """First integration by parts bounds the |k| > k_max remainder of an
    amplitude decaying at the ends by |A(±K)| / |φ'(±K)| per side."""
    slope = 2.0 * t * k_max - abs(b)
    if slope <= 0.0:
        raise ValueError("phase not monotone beyond the cut: enlarge k_max")
    return (abs(amp_left) + abs(amp_right)) / slope
