"""Independent reference results used to pin the library's numerics.

Everything here is derived by a different route than the code under test:
closed forms for the sech² (Poeschl–Teller) well, plane-wave transfer
matching for the square well, a transcendental-equation solver for finite
well bound states with the closed-form norms of their eigenfunctions, the
ℓ = 2 sech² norming constants, a brute-force oscillatory quadrature, a
split-step Fourier evolver for e^{−itH}, the evolution-kernel slice rule in its
plain form (three weight vectors per time, one product per time and level,
the whole k line, the anchor phase on the amplitude), the closed-form
Pöschl–Teller G in Faddeeva's w, a DOP853 integration of the Jost factors,
the Volterra form of the zero-energy Jost equation, the linear-Filon
Fourier sum as a dense phase matrix, the quadratic-phase panel weights
by the direct panel rule (β series, erf closed form on coarse panels) and in 40-digit
arithmetic, and the weighted norm ∫(1+|x|)^σ|V| by adaptive quadpack.  No
imports from the package: the slice rule takes the panel-weight function as
an argument, and the Jost and norm references take V, its breakpoints and
their reach.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, simpson, solve_ivp
from scipy.optimize import brentq
from scipy.special import wofz


# ---------------------------------------------------------------- sech² well
# V(x) = −2 sech²x: reflectionless, one bound state at E = −1, zero-energy
# resonant with f₊(x,0) = tanh x = −f₋(x,0).

def pt_h_plus(x, k):
    x, k = np.asarray(x, float), np.asarray(k)
    return (1j * k - np.tanh(x)) / (1j * k - 1.0)


def pt_hprime_plus(x, k):
    x, k = np.asarray(x, float), np.asarray(k)
    return -np.cosh(x) ** -2 / (1j * k - 1.0)


def pt_h_minus(x, k):
    return pt_h_plus(-np.asarray(x, float), k)


def pt_hprime_minus(x, k):
    return -pt_hprime_plus(-np.asarray(x, float), k)


def pt_transmission(k):
    k = np.asarray(k)
    return (k + 1j) / (k - 1j)


def pt_wronskian(k):
    k = np.asarray(k)
    return 2j * k * (k - 1j) / (k + 1j)


def pt_b_plus(x, y):
    """Transformation kernel B₊(x,y) = −2(1 − tanh x)e^{−2y} for y > 0."""
    return -2.0 * (1.0 - np.tanh(np.asarray(x, float))) * np.exp(-2.0 * np.asarray(y, float))


def _pt_pole_integral(t: float, b, sign: int):
    """∫ e^{−i(tk²−bk)} / (k − sign·i) dk over the line, in Faddeeva's w."""
    u = b / (2.0 * t)
    return (
        sign * 1j * np.pi * np.exp(1j * b * b / (4.0 * t))
        * wofz(np.exp(0.25j * np.pi) * np.sqrt(t) * (1j - sign * u))
    )


def pt_g_kernel(x, y, t: float) -> np.ndarray:
    """G(x,y,t) = e^{−itH}P_ac − (4πit)^{−1/2} tanh x tanh y, broadcasting
    over x and y: for x ≤ y the amplitude h₊(y)h₋(x)T − 1 is a sum of the
    two simple poles k = ±i, each integrated in closed form."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    b = hi - lo
    p, q = np.tanh(lo), np.tanh(hi)
    alpha, beta = p * q - 1.0, 1j * (q - p)
    amp_plus = (alpha + 1j * beta) / 2j
    amp_minus = -(alpha - 1j * beta) / 2j
    free = np.sqrt(np.pi / (1j * t)) * np.exp(1j * b * b / (4.0 * t))
    poles = amp_plus * _pt_pole_integral(t, b, +1) + amp_minus * _pt_pole_integral(t, b, -1)
    return (free + poles) / (2.0 * np.pi) - p * q / np.sqrt(4j * np.pi * t)


def pt_bound_state():
    """(κ, E, ψ callable, c₊) for the single bound state."""
    return 1.0, -1.0, (lambda x: 1.0 / (np.sqrt(2.0) * np.cosh(x))), np.sqrt(2.0)


# ---------------------------------------------------------------- square well
# V = −v0 on [−a, a].  Scattering data by matching plane waves across the
# two jumps; valid for real k ≠ 0.

def square_well_scattering(v0, a, k):
    """(T, R₊, R₋) for V = −v0·1[−a,a] at real k ≠ 0."""
    k = np.asarray(k, dtype=complex)
    kt = np.sqrt(k**2 + v0)
    # f₊ = e^{ikx} for x ≥ a; A e^{iκ̃x} + B e^{−iκ̃x} inside
    Aa = np.exp(1j * k * a) * (1.0 + k / kt) / 2.0   # A e^{iκ̃a}
    Ba = np.exp(1j * k * a) * (1.0 - k / kt) / 2.0   # B e^{−iκ̃a}
    Am = Aa * np.exp(-2j * kt * a)                   # A e^{−iκ̃a}
    Bm = Ba * np.exp(2j * kt * a)                    # B e^{+iκ̃a}
    F = Am + Bm
    Fp = 1j * kt * (Am - Bm)
    C = np.exp(1j * k * a) * (F + Fp / (1j * k)) / 2.0
    D = np.exp(-1j * k * a) * (F - Fp / (1j * k)) / 2.0
    T = 1.0 / C
    Rm = T * D
    return T, Rm.copy(), Rm  # even potential: R₊ = R₋


def square_well_f_plus(v0, a, x, k):
    """(f₊, f₊′) for the square well at real k ≠ 0, piecewise closed form."""
    k = complex(k)
    kt = np.sqrt(k**2 + v0)
    A = np.exp(1j * k * a) * (1.0 + k / kt) / 2.0 * np.exp(-1j * kt * a)
    B = np.exp(1j * k * a) * (1.0 - k / kt) / 2.0 * np.exp(1j * kt * a)
    x = np.asarray(x, dtype=float)
    f = np.empty(x.shape, dtype=complex)
    fp = np.empty_like(f)
    right = x >= a
    mid = (np.abs(x) < a) & ~right
    left = x <= -a
    f[right] = np.exp(1j * k * x[right])
    fp[right] = 1j * k * f[right]
    f[mid] = A * np.exp(1j * kt * x[mid]) + B * np.exp(-1j * kt * x[mid])
    fp[mid] = 1j * kt * (A * np.exp(1j * kt * x[mid]) - B * np.exp(-1j * kt * x[mid]))
    Fm = A * np.exp(-1j * kt * a) + B * np.exp(1j * kt * a)
    Fmp = 1j * kt * (A * np.exp(-1j * kt * a) - B * np.exp(1j * kt * a))
    C = np.exp(1j * k * a) * (Fm + Fmp / (1j * k)) / 2.0
    D = np.exp(-1j * k * a) * (Fm - Fmp / (1j * k)) / 2.0
    f[left] = C * np.exp(1j * k * x[left]) + D * np.exp(-1j * k * x[left])
    fp[left] = 1j * k * (C * np.exp(1j * k * x[left]) - D * np.exp(-1j * k * x[left]))
    return f, fp


def jost_f(jf, x):
    """(f, ∂ₓf) at the field row x from h± there: f± = e^{±ikx}h±, on the
    field's |k| (jost.unfold gives k < 0)."""
    h, hp = jf.at_x(x)
    phase = np.exp(jf.side * 1j * jf.k_grid * x)
    return phase * h, phase * (jf.side * 1j * jf.k_grid * h + hp)


def square_well_bound_states(v0, a):
    """Sorted κₙ from the even/odd transcendental equations.

    Even states: κ = q tan(qa); odd states: κ = −q cot(qa), q = √(v0 − κ²).
    """
    qmax = np.sqrt(v0)
    kappas = []

    def even(q):
        return q * np.tan(q * a) - np.sqrt(max(v0 - q * q, 0.0))

    def odd(q):
        return -q / np.tan(q * a) - np.sqrt(max(v0 - q * q, 0.0))

    for func, offset in ((even, 0.0), (odd, 0.5)):
        m = 0
        while True:
            lo = (m + offset) * np.pi / a + 1e-9
            hi = min((m + offset + 0.5) * np.pi / a - 1e-9, qmax - 1e-12)
            if lo >= hi:
                break
            if func(lo) * func(hi) < 0:
                q = brentq(func, lo, hi, xtol=1e-14)
                kappas.append(np.sqrt(v0 - q * q))
            m += 1
    return sorted(k for k in kappas if k > 1e-10)


def square_well_eigenstates(v0, a):
    """[(κ, ψ callable, c₊, c₋)] for each bound state of V = −v0·1[−a,a], in
    the order of square_well_bound_states.

    Inside the well ψ ∝ cos(qx) (even) or sin(qx) (odd), q = √(v0 − κ²);
    outside ψ = ψ(±a)e^{−κ(|x|−a)}.  The norm is the closed-form integral
    of those pieces, and the sign makes c₊ > 0, with ψ ~ c₊e^{−κx} as
    x → +∞ and ψ ~ c₋e^{κx} as x → −∞ (c₋ = c₊ even, −c₊ odd).
    """
    states = []
    for kap in square_well_bound_states(v0, a):
        q = np.sqrt(v0 - kap * kap)
        even = abs(q * np.tan(q * a) - kap) < abs(-q / np.tan(q * a) - kap)
        inner, parity = (np.cos, 1.0) if even else (np.sin, -1.0)
        edge = inner(q * a)
        # ∫_{−a}^{a} cos² = a + sin(2qa)/(2q), ∫ sin² = a − sin(2qa)/(2q); tails edge²/κ
        n2 = a + parity * np.sin(2.0 * q * a) / (2.0 * q) + edge * edge / kap
        scale = np.sign(edge) / np.sqrt(n2)

        def psi(x, q=q, kap=kap, inner=inner, parity=parity, edge=edge, scale=scale):
            x = np.asarray(x, float)
            out = np.where(
                np.abs(x) < a,
                inner(q * x),
                np.where(x > 0, 1.0, parity) * edge * np.exp(-kap * (np.abs(x) - a)),
            )
            return scale * out

        c_plus = abs(edge) * np.exp(kap * a) / np.sqrt(n2)
        states.append((float(kap), psi, float(c_plus), float(parity * c_plus)))
    return states


def pt_l2_norming_constants():
    """[(κ, c₊, c₋)] of V = −6 sech²x, ascending κ: ψ ∝ sech x tanh x at
    κ = 1 (odd, ∫sech²tanh² = 2/3) and ψ ∝ sech²x at κ = 2 (even,
    ∫sech⁴ = 4/3), with sech x ~ 2e^{−|x|}."""
    return [(1.0, np.sqrt(6.0), -np.sqrt(6.0)), (2.0, 2.0 * np.sqrt(3.0), 2.0 * np.sqrt(3.0))]


# ------------------------------------------------- brute-force oscillatory ∫
def osc_integral(g, a, b, freq, *, nodes=12):
    """∫_a^b g(k) dk by composite Gauss–Legendre, panel width tied to the
    oscillation rate.

    freq bounds |d/dk arg g|; panels are ≤ π/(2·freq) wide so each one sees
    at most a quarter period.  Accurate to ~1e-12 for smooth g.
    """
    width = min(b - a, np.pi / (2.0 * max(freq, 1e-3)))
    n_pan = int(np.ceil((b - a) / width))
    edges = np.linspace(a, b, n_pan + 1)
    xg, wg = leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * xg[None, :]
    vals = g(pts.ravel()).reshape(pts.shape)
    return np.sum(vals * wg[None, :] * half[:, None])


# ------------------------------------------------------- split-step evolver
def split_step_evolve(v, psi0, t_final, *, box=64.0, n=4096, dt=0.002,
                      absorb_width=10.0, absorb_strength=0.4):
    """u(·, t_final) = e^{−itH}ψ₀ for H = −d²/dx² + V by Strang splitting.

    Periodic FFT grid with a quadratic complex absorbing layer near the box
    edges.  Returns (x_grid, u).
    """
    x = (np.arange(n) / n - 0.5) * box
    dx = box / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    psi = np.asarray(psi0(x), dtype=complex)
    edge = np.maximum(0.0, np.abs(x) - (box / 2.0 - absorb_width)) / absorb_width
    w_abs = -1j * absorb_strength * edge**2
    steps = int(round(t_final / dt))
    exp_v = np.exp(-1j * dt * (v(x) + w_abs))
    exp_k = np.exp(-0.5j * dt * k**2)
    for _ in range(steps):
        psi = np.fft.ifft(exp_k * np.fft.fft(psi))
        psi *= exp_v
        psi = np.fft.ifft(exp_k * np.fft.fft(psi))
    return x, psi


# ------------------------------------------- quadratic-phase panel weights
_BETA_MAX = 0.05  # above it the erf closed form; below, at most 8 β terms
_ALPHA_SMALL = 1.0  # below it the moments start from a 10-term series in α
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, 40.0)])
_ODD_FACTORIALS = _FACTORIALS[1:21:2]
# panels per pass of _panel_weights, so that its work arrays stay in cache
_BLOCK = 8192
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)  # hi + lo


def fresnel_weights(k_grid, t: float, b: float) -> np.ndarray:
    """Nodal weights w with Σ w_j A(k_j) = ∫ e^{−i(tk²−bk)} A(k) dk for
    piecewise-linear A on the (strictly increasing) node set, by the direct
    panel rule: with k = c + σs on a panel of midpoint c and half-width σ,
    φ = φ(c) + αs + βs² (α = (2tc − b)σ, β = tσ²), and the panel's two hat
    pieces are σe^{−iφ(c)}(P₀ ∓ P₁)/2 with P_q = ∫₋₁¹ s^q e^{−i(αs + βs²)} ds,
    short Taylor series in β for β ≤ _BETA_MAX.  Panels with larger β take
    the erf closed form, u = k − b/2t, w² = it:
    ∫ e^{−iφ} dk = e^{ib²/(4t)} √π/(2w) · erf(wu) + const and
    ∫ k e^{−iφ} dk = e^{ib²/(4t)} e^{−itu²}/(−2it) + (b/2t)·(above).
    One (t, b) at a time, on any node set: the library's PanelTables
    instead shifts per-time tables along the α lattice of a uniform node
    set and refines its coarse panels."""
    k = np.asarray(k_grid, dtype=float)
    c, c_lo, sig = _midpoints(k)
    return _panel_weights(k, c, sig, t, b, 0.5 * sig * _chirp(t, c, c_lo) * _unit(b * c))


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
    return _unit(-r)


def _unit(x) -> np.ndarray:
    """e^{ix}, from cos and sin (numpy's complex exp is slower)."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _cut(x: float, denom) -> int:
    """The last power n kept of a series Σ xⁿ/n!·(moment): the first
    term left out, xⁿ⁺¹/((n+1)!·denom(n)), is below 2⁻⁵³."""
    return next(n for n in range(40) if x ** (n + 1) / math.factorial(n + 1) / denom(n) < 2.0**-53)


def _p_moments(alpha, beta, count: int) -> np.ndarray:
    """(count, alpha.size) array of P_q = ∫₋₁¹ s^q e^{−i(αs+βs²)} ds, q <
    count: P_q = 2 Σₙ (−i)^{n + q mod 2} βⁿ/n! μ_{q+2n}, cut once the
    largest term left out over P₀ ≈ 2, βⁿ⁺¹/((n+1)!(2n+3)), is below 2⁻⁵³.
    The moments μ_m, c_m = ∫₀¹ sᵐ cos αs for even m and s_m = ∫₀¹ sᵐ sin αs
    for odd m, follow from c_m = (sin α − m s_{m−1})/α and s_m = (m c_{m−1}
    − cos α)/α: upward from c₀ = sin α/α for |α| ≥ _ALPHA_SMALL (errors grow
    by m/|α|, but the high moments carry powers of β ≤ _BETA_MAX), downward
    below it from the Taylor series of s_top, top odd (errors shrink by
    |α|/m)."""
    n_beta = _cut(float(np.max(beta)), lambda n: 2 * n + 3)
    top = count - 1 + 2 * n_beta
    top += 1 - top % 2
    mom = np.empty((top + 1, alpha.size))
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    small = np.abs(alpha) < _ALPHA_SMALL
    for down in (True, False):
        pick = small if down else ~small
        if not pick.any():
            continue
        sel = slice(None) if pick.all() else np.flatnonzero(pick)
        a, ca, sa = alpha[sel], cos_a[sel], sin_a[sel]
        if down:
            j = np.arange(_ODD_FACTORIALS.size)
            coef = (-1.0) ** j / (_ODD_FACTORIALS * (top + 2 * j + 2))
            x = a * np.polynomial.polynomial.polyval(a * a, coef)
            mom[top, sel] = x
            for m in range(top, 0, -1):
                x = x * a
                x += ca if m % 2 else -sa
                x *= (1.0 if m % 2 else -1.0) / m
                mom[m - 1, sel] = x
        else:
            inv = 1.0 / a
            x, scale = sa * inv, (-inv, inv)
            mom[0, sel] = x
            for m in range(1, top + 1):
                x = x * m
                x -= ca if m % 2 else sa
                x *= scale[m % 2]
                mom[m, sel] = x
    out = np.zeros((count, alpha.size), dtype=complex)
    term = 2.0
    for n in range(n_beta + 1):
        if n:
            term = term * beta / n
        for q, p in enumerate(out):
            x = mom[q + 2 * n] * term
            # the unit (−i)ᵏ cycles 1, −i, −1, i: each term adds to one part
            k = n + q % 2
            part = p.imag if k % 2 else p.real
            if k % 4 in (1, 2):
                part -= x
            else:
                part += x
    return out


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


def _panel_weights(k, c, sig, t: float, b: float, g) -> np.ndarray:
    """Nodal weights on k, the direct rule, from the panels' midpoints c,
    half-widths sig and g = (σ/2)e^{−iφ(c)}.  Panels go in blocks of
    _BLOCK, each in runs of one kind: the β series for β ≤ _BETA_MAX, the
    erf closed form above it (one run on a uniform node set)."""
    w = np.zeros(k.size, dtype=complex)
    for b0 in range(0, c.size, _BLOCK):
        s = sig[b0 : b0 + _BLOCK]
        alpha = (2.0 * t * c[b0 : b0 + _BLOCK] - b) * s
        beta = t * s * s
        erf = beta > _BETA_MAX
        edges = [0, *(np.flatnonzero(erf[1:] != erf[:-1]) + 1).tolist(), alpha.size]
        for i0, i1 in zip(edges[:-1], edges[1:]):
            if erf[i0]:
                lo, hi = _erf_pieces(k[b0 + i0 : b0 + i1 + 1], t, b)
            else:
                p0, p1 = _p_moments(alpha[i0:i1], beta[i0:i1], 2)
                gg = g[b0 + i0 : b0 + i1]
                lo, hi = gg * (p0 - p1), gg * (p0 + p1)
            w[b0 + i0 : b0 + i1] += lo
            w[b0 + i0 + 1 : b0 + i1 + 1] += hi
    return w


def fresnel_weight_mp(k, j, t, b, dps=40):
    """Weight of node j of the node set k in the rule Σ w_j A(k_j) =
    ∫ e^{−i(tk²−bk)} A(k) dk for piecewise-linear A, in dps-digit arithmetic
    on the double values of the nodes.  Per panel [p, q] the moments
    m0 = ∫ e^{−iφ} and m1 = ∫ k e^{−iφ} come from the erf closed form along
    the 45° ray (u = k − b/2t, w = e^{iπ/4}√t):
    m0 = e^{ib²/4t} √π/(2w) [erf(wu)], m1 = e^{ib²/4t} [e^{−itu²}]/(−2it)
    + (b/2t) m0; the hat pieces are (q·m0 − m1)/(q − p) at p and
    (m1 − p·m0)/(q − p) at q."""
    with mpmath.workdps(dps):
        t, b = mpmath.mpf(float(t)), mpmath.mpf(float(b))
        w = mpmath.exp(1j * mpmath.pi / 4) * mpmath.sqrt(t)
        pref = mpmath.exp(1j * b * b / (4 * t))
        shift = b / (2 * t)

        def moments(p, q):
            up, uq = p - shift, q - shift
            m0 = pref * mpmath.sqrt(mpmath.pi) / (2 * w) * (mpmath.erf(w * uq) - mpmath.erf(w * up))
            m1 = pref * (mpmath.exp(-1j * t * uq**2) - mpmath.exp(-1j * t * up**2)) / (-2j * t)
            return m0, m1 + shift * m0

        node = mpmath.mpf(float(k[j]))
        total = mpmath.mpc(0)
        if j > 0:
            p = mpmath.mpf(float(k[j - 1]))
            m0, m1 = moments(p, node)
            total += (m1 - p * m0) / (node - p)
        if j < len(k) - 1:
            q = mpmath.mpf(float(k[j + 1]))
            m0, m1 = moments(node, q)
            total += (q * m0 - m1) / (q - node)
        return complex(total)


# ------------------------------------------- evolution-kernel slice rule
def refine_twice(rows):
    """Insert cubic panel midpoints along the last axis twice (uniform
    nodes); length n → 4n − 3, the original nodes at every fourth sample."""
    for _ in range(2):
        n = rows.shape[-1]
        out = np.empty(rows.shape[:-1] + (2 * n - 1,), dtype=rows.dtype)
        out[..., ::2] = rows
        mid = out[..., 1::2]
        mid[..., 1:-1] = (-rows[..., :-3] + 9.0 * rows[..., 1:-2]
                          + 9.0 * rows[..., 2:-1] - rows[..., 3:]) / 16.0
        mid[..., 0] = (5.0 * rows[..., 0] + 15.0 * rows[..., 1]
                       - 5.0 * rows[..., 2] + rows[..., 3]) / 16.0
        mid[..., -1] = (rows[..., -4] - 5.0 * rows[..., -3]
                        + 15.0 * rows[..., -2] + 5.0 * rows[..., -1]) / 16.0
        rows = out
    return rows


def pac_slices_reference(h_plus, h_minus, T, k, dx, ts, weights, stride=1):
    """(pac, error) arrays of shape (len(ts), n, n) for the continuous-
    spectrum kernel on a uniform position grid of step dx.

    For each separation b = d·dx and time t: weights(nodes, t, b₀) on the k
    grid and on its two refinements, at the anchor b₀ = stride·dx·⌊d/stride
    + ½⌋; the amplitude (h₊(y,k)h₋(x,k)T(k) − 1)e^{i(b−b₀)k} on the grid
    nodes of the whole line (stride 1: b₀ = b and no phase), refined twice
    by cubic panel midpoints, one product per level, Richardson on the
    finest pair, and the error |r2 − r1| plus the integration-by-parts tail
    (|A(−K)| + |A(K)|)/(2tK − b) of the unphased amplitude; the free part
    √(π/(it))e^{ib²/4t} is added in closed form."""
    n = h_plus.shape[0]
    nodes = [np.linspace(k[0], k[-1], m) for m in (k.size, 2 * k.size - 1, 4 * k.size - 3)]
    pac = np.empty((len(ts), n, n), dtype=complex)
    err = np.empty((len(ts), n, n))
    for d in range(n):
        b = d * dx
        b0 = stride * dx * math.floor(d / stride + 0.5)
        amp = h_plus[d:] * h_minus[: n - d] * T - 1.0
        finest = refine_twice(amp * np.exp(1j * (b - b0) * k))
        amps = (finest[:, ::4], finest[:, ::2], finest)
        rows = np.arange(n - d)
        for i_t, t in enumerate(ts):
            coarse, fine, finest_sum = (a @ weights(q, t, b0) for a, q in zip(amps, nodes))
            r1 = fine + (fine - coarse) / 3.0
            r2 = finest_sum + (finest_sum - fine) / 3.0
            free = np.sqrt(np.pi / (1j * t)) * np.exp(1j * b * b / (4.0 * t))
            tail = (np.abs(amp[:, 0]) + np.abs(amp[:, -1])) / (2.0 * t * k[-1] - b)
            for i, j in ((rows, rows + d), (rows + d, rows)):
                pac[i_t, i, j] = (free + r2) / (2.0 * np.pi)
                err[i_t, i, j] = (np.abs(r2 - r1) + tail) / (2.0 * np.pi)
    return pac, err


# --------------------------------------------------- Jost factors by DOP853
def jost_h_dop853(v, breakpoints, x_inf, x, k, side, *, rtol=1e-12, atol=1e-14):
    """(h, h′) of h″ ± 2ik h′ = V h, h(±X∞) = 1, h′(±X∞) = 0, at the points
    x (sorted), for one k (real, or iκ), by scipy's DOP853 from side·X∞
    inward, restarted at every breakpoint of V."""
    x = np.asarray(x, dtype=float)
    twoik = side * 2j * complex(k)
    start = side * x_inf
    stop = x[0] if side > 0 else x[-1]
    lo, hi = sorted((start, stop))
    edges = sorted({start, stop, *(b for b in breakpoints if lo < b < hi)}, reverse=side > 0)

    def rhs(s, z):
        return [z[1], float(v(s)) * z[0] - twoik * z[1]]

    y = np.array([1.0, 0.0], dtype=complex)
    h = np.empty(x.size, dtype=complex)
    hp = np.empty_like(h)
    for a, b in zip(edges[:-1], edges[1:]):
        idx = np.flatnonzero((x >= min(a, b)) & (x <= max(a, b)) & (x != b))
        idx = idx[np.argsort(-side * x[idx])]  # in integration order
        sol = solve_ivp(
            rhs, (a, b), y, method="DOP853", t_eval=np.append(x[idx], b), rtol=rtol, atol=atol
        )
        h[idx], hp[idx] = sol.y[0, :-1], sol.y[1, :-1]
        y = sol.y[:, -1]
        h[x == b], hp[x == b] = y
    return h, hp


# --------------------------------------------- zero energy, Volterra form
def volterra_residual(pieces, side, probes=(-2.0, 0.0, 2.0)):
    """Largest |h(x) − 1 − ∫ |s − x| V(s) h(s) ds| over the samples x
    nearest the probes, the integral running from x to the end of the samples on the side ±: the
    Volterra form of h″ = V h, h(±∞) = 1, checked on zero-energy samples of
    h±.  pieces holds (x, v, h) sample arrays, one per piece on which V is
    smooth, in increasing x, with V's one-sided values at the piece ends;
    V is negligible past the last piece.  Simpson's rule on each piece."""
    xs = np.concatenate([p[0] for p in pieces])
    hs = np.concatenate([p[2] for p in pieces])
    worst = 0.0
    for probe in probes:
        i = int(np.argmin(np.abs(xs - probe)))  # the sample nearest the probe
        x0, h_x0, integ = xs[i], hs[i], 0.0
        for x, v, h in pieces:
            keep = x >= x0 - 1e-9 if side > 0 else x <= x0 + 1e-9
            if np.count_nonzero(keep) > 1:
                s = x[keep]
                integ += simpson(np.abs(s - x0) * v[keep] * h[keep], x=s)
        worst = max(worst, abs(h_x0 - 1.0 - integ))
    return worst


# ------------------------------------------------- linear Filon, dense form
def filon_linear_dense(y, rows, k_eval, chunk=128):
    """∫ rows(y) e^{2iky} dy on the uniform grid y, exact for a piecewise-
    linear amplitude: the panel sums s0, s1 as products with the (k × y)
    phase matrix, built in chunks of k."""
    h = float(y[1] - y[0])
    out = np.empty(rows.shape[:-1] + (k_eval.size,), dtype=complex)
    a = rows[..., :-1]
    b = rows[..., 1:]
    for lo in range(0, k_eval.size, chunk):
        kc = k_eval[lo : lo + chunk]
        iu = 2j * kc * h
        small = np.abs(iu) < 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.exp(iu)
            m0 = np.where(small, 1.0 + iu / 2.0 + iu**2 / 6.0, (e - 1.0) / iu)
            m1 = np.where(small, 0.5 + iu / 3.0 + iu**2 / 8.0, (e * (iu - 1.0) + 1.0) / iu**2)
        phase = np.exp(2j * np.outer(kc, y[:-1]))
        out[..., lo : lo + kc.size] = h * ((a @ phase.T) * m0 + ((b - a) @ phase.T) * m1)
    return out


# ----------------------------------------------- weighted norm, quadpack
def moment_norm_quad(v, splits, sigma, x_max):
    """∫_{−x_max}^{x_max} (1+|x|)^σ |V(x)| dx by scipy's adaptive quad, split
    at the points where |V| is not smooth, to 1e-12 relative."""
    inner = sorted(p for p in splits if -x_max < p < x_max)
    val, _ = quad(
        lambda x: (1.0 + abs(x)) ** sigma * abs(float(v(x))),
        -x_max,
        x_max,
        points=inner or None,
        limit=max(400, 4 * len(inner)),
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val
