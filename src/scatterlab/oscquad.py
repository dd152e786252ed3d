"""Panel quadrature for integrals with the quadratic phase e^{−iφ}, φ = tk² − bk.

Nodal weights w with Σ w_j A(k_j) = ∫ e^{−iφ} A dk, exact for
piecewise-linear A, so accuracy is set by how well straight segments
follow the amplitude, whatever t.  With k = c + σs on a panel of midpoint
c and half-width σ, φ = φ(c) + αs + βs² (α = (2tc − b)σ, β = tσ²), and the
panel's two hat pieces are σe^{−iφ(c)}(P₀ ∓ P₁)/2 with P_q =
∫_{−1}^{1} s^q e^{−i(αs + βs²)} ds.  The large phase sits in e^{−iφ(c)}
(double-double reduction of t·c² ~ 10⁷ rad); for β ≤ _BETA_MAX, P_q are
short Taylor series in β over exact moments in cos α, sin α and 1/α.

On a uniform node set of half-width σ̄, PanelTables shares the series
between separations: b only moves the panel α = (2tc − b)σ along the
lattice A_L = 2t(k₀ + (2L+1)σ̄)σ̄ of step Δ = 4tσ̄², by m = round(bσ̄/Δ)
points and ε = bσ̄ − mΔ further.  So each time keeps one table of P_q,
q ≤ N + 1, on every _STRIDE-th lattice point, reaching past the panels by
the largest shift, and the weights at any ±b come from three pieces: the
shift m; the series Σₙ (−iδ)ⁿ/n! P_{q+n} over the offset δ = rΔ − ε from
the nearest table point, r ∈ {−2, …, 1}, with N terms for 2⁻⁵³; and the
first-order term −i·d·P_{q+1}, where d is the true α of the float panel
less its lattice α, which restores each panel's own midpoint and width
(without it the weights are off by ~6e-12 · max|w| at t = 1000).  The
phase factors are per-time tables, (σ/2)e^{−itc²}, and per-separation
ones, e^{ibc} (its conjugate for −b).

A time with tσ̄² > _BETA_MAX keeps its table on the node set refined 2ʲ
times, with j the smallest integer that brings tσ̄²/4ʲ to _BETA_MAX: each
panel gains 2ʲ − 1 evenly spaced nodes and the original nodes stay bit for
bit.  Its weights there are restricted j times onto the original nodes
(below).  On a node set of width L such a table holds between ½ and 1
times L·√(t/_BETA_MAX) panels, whatever the node count, so the refined
panels of one PanelTables, summed over its times, are held to
_PANEL_BUDGET: check_budget raises ValueError naming the time that passes
it.  On the decay stage's default nodes (k ∈ [0, 60], 48 001 of them)
every t ≤ 128 000 is at level 0, and its default times (12, from t_min =
10) admit t_max up to 2.048e6.

On nested uniform node sets the coarser weights follow from the finest w
by restriction R: a hat of every second node is 1 at its node and ½ at
its two neighbours.  With E placing a coarse vector on every second node,
V = (4w − E·Rw)/3 and U = (4Rw − E·RRw)/3 give the Richardson extrapolants
of the finest and of the fine pair of levels as one sum each.

That is the propagator's kernel rule, on the k grid refined once and
twice by cubic panel midpoints: the value is V's sum, the error estimate
its difference from U's.  PanelTables takes the grid and tables the
finest nodes k ≥ 0 (_half_nodes).  For A(−k) = conj A(k) the k < 0 half
of a weight vector, mirrored, is the k ≥ 0 half at −b, and conjugated it
acts on conj A, Σ w A = A·w₊ + conj(A·conj w₋), with its k = 0 weight
added to w₊.  The refinement is linear, so its transpose (_refine_t)
takes V twice and U once onto the grid nodes k ≥ 0, from the line's two
mirror nodes below 0; a weight on a mirror node acts on conj A and moves,
conjugated, onto the row of the same time that acts on conj A.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PanelTables", "full_line_integral", "truncation_tail"]

_BETA_MAX = 0.05  # tables of panels with β above it are refined; below, ≤ 8 β terms
_ALPHA_SMALL = 1.0  # below it the moments start from a 10-term series in α
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, 40.0)])
_ODD_FACTORIALS = _FACTORIALS[1:21:2]
_STRIDE = 4  # lattice points per table row; the offset residues run −2…1
_PANEL_BUDGET = 1 << 19  # refined panels of one PanelTables, over its times
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)  # hi + lo


def full_line_integral(t: float, b: float) -> complex:
    """∫_R e^{−i(tk²−bk)} dk = √(π/(it)) e^{ib²/(4t)}."""
    if t <= 0.0:
        raise ValueError("quadratic-phase rule needs t > 0")
    return complex(np.sqrt(np.pi / (1j * t)) * np.exp(1j * b * b / (4.0 * t)))


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


def _refined(k: np.ndarray, level: int) -> np.ndarray:
    """k with 2^level − 1 evenly spaced nodes added inside each panel; the
    nodes of k stay bit for bit."""
    m = 1 << level
    return np.r_[(k[:-1, None] + np.diff(k)[:, None] * (np.arange(m) / m)).ravel(), k[-1]]


class _NodeSet:
    """The panels of a uniform node set, with the work arrays of the times
    tabled on it."""

    def __init__(self, k: np.ndarray):
        self.k = k
        self.c, self.c_lo, self.sig = _midpoints(k)
        n = self.c.size
        self.sig_bar = 0.5 * (k[-1] - k[0]) / n
        # a panel's α is its lattice α at b = 0, less bσ̄, plus 2t·e − b·dsig;
        # e and dsig are stored complex, as numpy mixes real into complex slowly
        lattice_c = k[0] + (2.0 * np.arange(n) + 1.0) * self.sig_bar
        self.e = (self.c * self.sig - lattice_c * self.sig_bar).astype(complex)
        self.dsig = (self.sig - self.sig_bar).astype(complex)
        self.g, self.d = np.empty((2, n), dtype=complex)

    def table(self, t: float, b_max: float):
        """(Δ, N, ext, table) for the time t: table[i, q] = P_q(A, β) for
        q ≤ N + 1 at every _STRIDE-th point A = A₀ + Δ·_STRIDE·(i − ext) of
        the lattice A_L = 2t(k₀ + (2L+1)σ̄)σ̄, step Δ = 4tσ̄², reaching ext
        rows past the panels on each side for the largest shift.  N keeps
        the shift series to 2⁻⁵³ at the largest offset from a table point,
        (_STRIDE/2 + ½)Δ."""
        beta = t * self.sig_bar**2
        delta = 4.0 * beta
        n_shift = _cut((_STRIDE // 2 + 0.5) * delta, lambda n: n + 2)
        ext = int(b_max * self.sig_bar / delta) // _STRIDE + 2
        i = np.arange(2 * ext + self.c.size // _STRIDE + 3) - ext
        alpha = 2.0 * t * self.sig_bar * (self.k[0] + self.sig_bar) + delta * _STRIDE * i
        return delta, n_shift, ext, _p_moments(alpha, beta, n_shift + 2).T.copy()

    def weights(self, t: float, table, b: float, b_dsig, sums, w) -> None:
        """4/3 of the nodal weights at b into w from a time's table, with
        g = self.g (the 4/3 of V = (4w − E·Rw)/3 rides in the coefficients).
        Panel p sits m = round(bσ̄/Δ) lattice points below its b = 0 place
        and ε = bσ̄ − mΔ further; its table point is the nearest multiple of
        _STRIDE, r points away, so P_q = Σₙ (−iδ)ⁿ/n! P_{q+n} with δ = rΔ − ε.
        Its float midpoint and width move its α by d = 2t·e − b·dsig off the
        lattice: the first-order term −i·d·P_{q+1}.  Each of the four sums
        (P₀ ∓ P₁ and −i(P₁ ∓ P₂), the shift series of each) is one product
        of the table rows with a (N + 2) × _STRIDE coefficient matrix whose
        output, row by row, is the panels in order; sums is their buffer."""
        delta, n, ext, tab = table
        shift = b * self.sig_bar
        m = int(np.rint(shift / delta))
        z = -1j * ((np.arange(_STRIDE) - _STRIDE // 2) * delta - (shift - m * delta))
        coef = np.zeros((n + 4, _STRIDE), dtype=complex)
        coef[2 : n + 3] = z ** np.arange(n + 1)[:, None] * (4.0 / 3.0 / _FACTORIALS[: n + 1, None])
        # over table columns q ≤ N + 1: P_{q+j} in P₀, P₁ and P₂ (one term short)
        c0, c1, c2 = coef[2:], coef[1:-1], coef[:-2]
        j0 = (_STRIDE // 2 - m) // _STRIDE + ext
        f0 = _STRIDE // 2 - m - _STRIDE * (j0 - ext)
        npan = self.c.size
        nr = (f0 + npan + _STRIDE - 1) // _STRIDE
        if j0 < 0 or j0 + nr > tab.shape[0]:
            raise ValueError("separation beyond the tables' b_max")
        rows = tab[j0 : j0 + nr]
        sums = sums[:, :nr]
        for out, c in zip(sums, (c0 - c1, c0 + c1, -1j * (c1 - c2), -1j * (c1 + c2))):
            np.matmul(rows, c, out=out)
        lo, hi, d_lo, d_hi = (x.reshape(-1)[f0 : f0 + npan] for x in sums)
        d = self.d
        np.multiply(self.e, 2.0 * t, out=d)
        d -= b_dsig
        for piece, d_piece in ((lo, d_lo), (hi, d_hi)):
            d_piece *= d
            piece += d_piece
            piece *= self.g
        w[0], w[-1] = lo[0], hi[-1]
        np.add(lo[1:], hi[:-1], out=w[1:-1])


def _half_nodes(k_grid) -> np.ndarray:
    """The nodes k ≥ 0 of the grid refined twice, the finest node set."""
    return np.linspace(k_grid[0], k_grid[-1], 4 * k_grid.size - 3)[2 * k_grid.size - 2 :]


class PanelTables:
    """The panel tables of the finest node set k ≥ 0 of an exactly mirrored
    uniform k grid for the times ts and the separations |b| ≤ b_max."""

    def __init__(self, k_grid, ts, b_max: float):
        k = _half_nodes(k_grid)
        self.k, self.ts = k, ts
        nodes = _NodeSet(k)
        if np.max(np.abs(nodes.sig - nodes.sig_bar)) > 1e-9 * nodes.sig_bar:
            raise ValueError("panel tables need a uniform node set")
        self._levels = self.check_budget(k_grid, ts)
        self._sets = {j: nodes if j == 0 else _NodeSet(_refined(k, j)) for j in set(self._levels)}
        self._chirps, self._tables = [], []
        for t, j in zip(ts, self._levels):
            s = self._sets[j]
            self._chirps.append(0.5 * s.sig * _chirp(t, s.c, s.c_lo))
            self._tables.append(s.table(t, b_max))
        rows = max((tab[3].shape[0] for tab in self._tables), default=0)
        self._sums = np.empty((4, rows, _STRIDE), dtype=complex)

    @staticmethod
    def check_budget(k_grid, ts) -> list[int]:
        """Per time, the level j of its table's node set on k_grid's finest
        nodes k ≥ 0, n panels: the smallest with tσ̄²/4ʲ ≤ _BETA_MAX.
        ValueError naming the first time that is not finite, or that takes
        the refined panels, n·2ʲ summed over the times with j > 0, past
        _PANEL_BUDGET."""
        k = _half_nodes(k_grid)
        n = k.size - 1
        sig_bar = 0.5 * (k[-1] - k[0]) / n
        levels, total = [], 0
        for t in ts:
            if not math.isfinite(t):
                raise ValueError(f"ts: panel tables need finite times, got t={t}")
            j = 0
            while t * sig_bar**2 > _BETA_MAX * 4.0**j:
                j += 1
            levels.append(j)
            total += n << j if j else 0
            if total > _PANEL_BUDGET:
                raise ValueError(f"ts: t={t:g} needs {total} refined panels, past {_PANEL_BUDGET}")
        return levels

    def grid_weights(self, b: float) -> np.ndarray:
        """(V; U) at b on the n grid nodes k ≥ 0, (4·len(ts), n): the rows
        of V at b, at −b (acting on conj A), then those of U; built one
        time at a time."""
        nt = self.ts.size
        out = np.empty((4 * nt, (self.k.size + 3) // 4), dtype=complex)
        for i, (v, u) in enumerate(self._richardson(b)):
            rows = out[i::nt]
            rows[:2], rows[2:] = _onto_grid(v, 2), _onto_grid(u, 1)
        return out

    def _richardson(self, b: float):
        """Per time, (V, U) at b and at −b on the finest nodes, (2, 4n − 3)
        and (2, 2n − 1), in two arrays the next time overwrites: with
        w′ = 4w/3, V = w′ − E·Rw′/4 and U = Rw′ − E·RRw′/4, a refined
        time's w′ restricted from its node set."""
        # per node set e^{ibc} and b·dsig; at −b, their conjugate and negative
        phase = {j: (_unit(b * s.c), b * s.dsig) for j, s in self._sets.items()}
        phases = (phase, {j: (c.conj(), -d) for j, (c, d) in phase.items()})
        v = np.empty((2, self.k.size), dtype=complex)
        u = np.empty((2, (self.k.size + 1) // 2), dtype=complex)
        for t, j, chirp, table in zip(self.ts, self._levels, self._chirps, self._tables):
            s = self._sets[j]
            for w, wu, sb, ph in zip(v, u, (b, -b), phases):
                chirp_sb, sb_dsig = ph[j]
                np.multiply(chirp, chirp_sb, out=s.g)
                x = w if j == 0 else np.empty(s.k.size, dtype=complex)
                s.weights(t, table, sb, sb_dsig, self._sums, x)
                for i in range(j, 0, -1):
                    x = _restrict(x, out=w if i == 1 else None)
                rr = _restrict(_restrict(w, out=wu))
                w[::2] -= wu * 0.25
                wu[::2] -= rr * 0.25
            yield v, u


def _refine_t(w):
    """The transpose of one cubic panel-midpoint refinement of m uniform
    samples (one-sided stencils at the two ends) along the last axis:
    weights on the 2m − 1 refined nodes onto the m nodes, so that
    Σ w·refine(a) = Σ _refine_t(w)·a."""
    mid = w[..., 1::2] / 16.0
    z = w[..., ::2].copy()
    inner = mid[..., 1:-1]
    z[..., :-3] -= inner
    z[..., 3:] -= inner
    inner *= 9.0
    z[..., 1:-2] += inner
    z[..., 2:-1] += inner
    z[..., :4] += mid[..., :1] * np.array([5.0, 15.0, -5.0, 1.0])
    z[..., -4:] += mid[..., -1:] * np.array([1.0, -5.0, 15.0, 5.0])
    return z


def _onto_grid(w: np.ndarray, times: int) -> np.ndarray:
    """One time's rows at b and −b, (2, m) on the nodes k ≥ 0 of the grid
    refined `times` times, folded in place and taken onto the grid nodes
    k ≥ 0 (module docstring); the refined nodes below 0 carry no weight."""
    w[0, 0] += w[1, 0]
    w[1, 0] = 0.0
    np.conjugate(w[1], out=w[1])
    z = np.concatenate([np.zeros((2, 4 * times), dtype=complex), w], axis=1)
    for _ in range(times):
        z = _refine_t(z)
    # z[:, 0] acts on the conjugate of node 2, z[:, 1] of node 1
    mirror = np.conj(z[:, 1::-1])
    z[0, 3:5] += mirror[1]
    z[1, 3:5] += mirror[0]
    return z[:, 2:]


def _restrict(w: np.ndarray, out=None) -> np.ndarray:
    """Weights on every second node of a uniform node set from the weights
    on all of them: w_c[J] = w[2J] + ½(w[2J−1] + w[2J+1]), one-sided at the
    ends, into out when given.  Exact for weights of any rule that is exact
    on piecewise-linear amplitudes."""
    if w.size % 2 == 0:
        raise ValueError("restriction needs an odd number of nodes")
    if out is None:
        out = np.empty((w.size + 1) // 2, dtype=w.dtype)
    out[0] = 0.0
    out[1:] = w[1::2]
    out[:-1] += w[1::2]
    out *= 0.5
    out += w[::2]
    return out


def truncation_tail(amp_left: float, amp_right: float, t: float, b: float, k_max: float) -> float:
    """First integration by parts bounds the |k| > k_max remainder of an
    amplitude decaying at the ends by |A(±K)| / |φ'(±K)| per side."""
    slope = 2.0 * t * k_max - abs(b)
    if slope <= 0.0:
        raise ValueError("phase not monotone beyond the cut: enlarge k_max")
    return (abs(amp_left) + abs(amp_right)) / slope
