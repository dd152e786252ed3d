"""The continuous-spectrum evolution kernel, the threshold projection, and
the integrand of the stationary-phase bound.

For x ≤ y the kernel of e^{−itH}P_ac is the improper integral

    pac(x,y,t) = (1/2π) ∫ e^{−i(tk²−(y−x)k)} h₊(y,k) h₋(x,k) T(k) dk.

The amplitude tends to 1 as k → ±∞, so the evaluation splits: the limit
contributes the free kernel (4πit)^{−1/2} e^{i(y−x)²/(4t)} in closed form
and the decaying remainder h₊h₋T − 1 is integrated over |k| ≤ K with the
quadratic-phase panel rule from oscquad.  On a uniform position grid the
phase depends only on the separation b = y − x, so the pairs of one
diagonal share their weights, and the diagonals share those of a few
anchor separations (below).

The weights are oscquad's (its docstring holds the rule): per anchor,
PanelTables.grid_weights gives them on the grid nodes k ≥ 0 as two
Richardson extrapolants.  The finer one is the value; their difference
plus a first integration-by-parts bound for the |k| > K tail, which
needs 2tK > |b| (ValueError otherwise), is the error estimate.  One pair
(pac_kernel) and whole slices (pac_slices) run through the same routine,
so they share this rule, their values and their error estimates.  The
threshold term (4πit)^{−1/2} f₀(x)f₀(y) has one route,
PropagatorData.f0_x, the k = 0 column of the h₊ field scaled by c₊.

A diagonal at b takes the weights of its anchor b₀ (_anchors), the
multiple of g·dx nearest b, and its rows carry the rest of the phase,
e^{i(b−b₀)k}; the free part and the tail term are taken at b.  The
default grid has 9 anchors, 2.0 apart, for its 65 diagonals; where g = 1
every diagonal is its own anchor and its phase is exactly 1.  The cubic
midpoints of the rule interpolate the whole phased amplitude
(h₊h₋T − 1)e^{i(b−b₀)k}, and the phase keeps A(−k) = conj A(k).
PropagatorData holds the h₊ and h₋ rows on the grid nodes k ≥ 0 as the
Jost solver marches them (the fields hold only |k|), T there, and nothing
else of the fields.  A diagonal's amplitude goes in k-blocks that hold
all its rows, each block one matrix product with the stacked (V; U), and
the blocks bound its memory whatever the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .jost import ODE_ATOL, ODE_RTOL, _grid_index, unfold
from .oscquad import PanelTables, full_line_integral, truncation_tail
from .potentials import Potential
from .scattering import ScatteringData, scattering_data
from . import wiener
from .wiener import _uniform_step

__all__ = [
    "KernelSlice",
    "SField",
    "PropagatorData",
    "prepare_propagator",
    "pac_slices",
    "pac_kernel",
    "threshold_projection_residual",
    "s_field",
    "s_growth_fit",
]

# complex amplitude entries per k-block of a diagonal (16 MiB); the block
# width follows from the diagonal's rows, and on the default grid one block
# holds every diagonal
_CHUNK_ENTRIES = 1 << 20
_ANCHOR_PHASE = 0.01  # θ: per k step, twice the largest turn of e^{i(b−b₀)k}
_FIT_ROWS = 8  # S fields per FFT call in s_growth_fit: one plan per call, few rows held at once


@dataclass(frozen=True)
class KernelSlice:
    """Evolution kernel on a position grid at one time.

    pac is the continuous-spectrum kernel, p0_term the threshold
    projection (4πit)^{−1/2} f₀(x)f₀(y) (zero when non-resonant) and
    G = pac − p0_term.  quadrature_error estimates |error| per entry.
    """

    x_grid: np.ndarray
    y_grid: np.ndarray
    t: float
    pac: np.ndarray
    p0_term: np.ndarray
    G: np.ndarray
    quadrature_error: np.ndarray


@dataclass(frozen=True)
class SField:
    """∂ₖ[(e^{i|y−x|k}h₊(y,k)h₋(x,k)T(k) − h₊(y,0)h₋(x,0)T(0))/k] sampled
    on the inner k grid, with its algebra-norm estimate (made on access)."""

    x: float
    y: float
    k_grid: np.ndarray
    S: np.ndarray

    @property
    def a_norm(self) -> wiener.WienerEstimate:
        return wiener.a_norm(self.k_grid, self.S, 0.0)


@dataclass(frozen=True)
class PropagatorData:
    """Shared read-only inputs for kernel evaluation on one grid.

    hp and hm are h₊(x,·) and h₋(x,·), one row per x_grid point, on the
    grid nodes k ≥ 0 (column j is k_grid[n//2 + j]), as compute_h_pair returns
    them; T_half is T on the same nodes.  No k < 0 column and no refined
    value is kept; A(−k) = conj A(k) gives the former (jost.unfold)."""

    pot: Potential
    x_grid: np.ndarray
    k_grid: np.ndarray
    hp: np.ndarray
    hm: np.ndarray
    sd: ScatteringData
    f0_x: np.ndarray

    @property
    def resonant(self) -> bool:
        return self.sd.resonance.resonant

    @property
    def T(self) -> np.ndarray:
        return self.sd.T

    @property
    def T_half(self) -> np.ndarray:
        return self.sd.T[self.k_grid.size // 2 :]

    def x_index(self, x: float) -> int:
        return _grid_index(self.x_grid, x, "x")


def prepare_propagator(
    pot: Potential,
    x_grid,
    k_grid,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> PropagatorData:
    """Jost fields, scattering matrix and (if resonant) the threshold
    state, tabulated once on a uniform (x, k) grid and shared by every
    kernel evaluation.  Both grids are required; the CLI's default grid
    comes from RunConfig.x_grid() and k_grid().

    One pipeline: scattering_data integrates both Jost fields on x_grid
    and the rows −2, 0, 2, checks the Wronskian on every row and
    classifies the resonance; no kernel reads a bound state, so none is
    searched for (sd.bound_states is empty).  The threshold state is read
    from the k = 0 column of the h₊ field: f₀(x) = c₊ Re h₊(x,0) with
    c₊ = √(2/(1+γ²)), so that |f₀(x)|² + |f₀(−x)|² → 2 (f₀ = 0 when
    non-resonant).  x_grid's rows are taken by index when the fields add
    rows it lacks, so x_grid need not hold 0.  The k grid is the one
    scattering_data returns, exactly mirrored with its middle node exactly
    0, so each field holds its nodes k ≥ 0; hp and hm are those rows of
    x_grid, and the rest of the fields is dropped.  The k grid needs an
    odd node count (the kernel quadrature folds k < 0 onto k ≥ 0) and
    scattering_data's k-grid rule; ValueError otherwise, before any solve."""
    x_grid = np.asarray(x_grid, dtype=float)
    k_grid = np.asarray(k_grid, dtype=float)
    _uniform_step(x_grid, "x_grid")
    if k_grid.size % 2 == 0:
        raise ValueError("k grid needs a node at 0 (an odd number of points)")

    sd, jp, jm = scattering_data(
        pot, k_grid, extra_x=x_grid, rtol=rtol, atol=atol, with_bound_states=False
    )
    # the fields' rows of x_grid: all of them unless they add −2, 0 or 2
    rows = slice(None) if jp.x_grid.size == x_grid.size else np.searchsorted(jp.x_grid, x_grid)
    f0_x = np.zeros(x_grid.size)
    if sd.resonance.resonant:
        c_plus = np.sqrt(2.0 / (1.0 + sd.resonance.gamma**2))
        f0_x = c_plus * jp.h[rows, 0].real
    return PropagatorData(
        pot=pot, x_grid=x_grid, k_grid=sd.k_grid, hp=jp.h[rows], hm=jm.h[rows], sd=sd, f0_x=f0_x
    )


# -- evolution kernel --------------------------------------------------------


def _p0_matrix(pd: PropagatorData, t: float) -> np.ndarray:
    if not pd.resonant:
        return np.zeros((pd.x_grid.size, pd.x_grid.size), dtype=complex)
    return np.outer(pd.f0_x, pd.f0_x) / np.sqrt(4j * np.pi * t)


def _check_times(ts, k_grid, b: float) -> None:
    """The kernel rule's conditions on the times at separation b ≥ 0: at
    least one time, every t finite and ≥ 1, the phase monotone beyond the
    cut at the earliest t (truncation_tail's 2tK > b), and the panel tables
    of the times on k_grid's nodes within oscquad's refinement budget;
    ValueError otherwise.  pac_kernel checks its pair, pac_slices and the
    CLI decay stage the widest separation on the grid, each before any
    work."""
    if ts.size == 0:
        raise ValueError("ts: kernel evaluation needs at least one time")
    if not np.all(np.isfinite(ts)):
        raise ValueError("ts: kernel evaluation needs finite times")
    if np.any(ts < 1.0):
        raise ValueError("kernel evaluation needs t >= 1")
    truncation_tail(0.0, 0.0, float(np.min(ts)), b, float(k_grid[-1]))
    PanelTables.check_budget(k_grid, ts)


def _anchors(pd: PropagatorData, dx: float, d):
    """The anchor of the diagonal d (an index, or an array of them): the
    multiple of g nearest d, halves up, g = max(1, ⌊θ/(h·dx)⌋) for the k
    step h (8 on the default grid; 1e-9 slack for a ratio a rounding below
    an integer), so e^{i(b−b₀)k} turns by at most θ/2 per k step."""
    h = (pd.k_grid[-1] - pd.k_grid[0]) / (pd.k_grid.size - 1)
    g = max(1, int(_ANCHOR_PHASE / (h * dx) * (1.0 + 1e-9)))
    return (d + g // 2) // g * g


def _pac_rows(hp, hm, t_half, k, ts, b: float, b0: float, weights):
    """Continuous-spectrum kernel of row-aligned pairs at separation b ≥ 0
    for every time of ts: (value, error), each (len(ts), rows).  hp holds
    rows of h₊(y,·), hm rows of h₋(x,·) and t_half T, on the grid nodes
    k ≥ 0; weights are PanelTables.grid_weights at the anchor b₀.  The
    amplitude (h₊h₋T − 1)e^{i(b−b₀)k} goes in k-blocks that hold every
    row, each block one product with (V; U).  The tail term reads A(K)
    without the phase, at b."""
    inv2pi = 1.0 / (2.0 * np.pi)
    nt = ts.size
    # K, the last node; |A(−K)| = |A(K)|
    end = np.abs(hp[:, -1] * (hm[:, -1] * t_half[-1]) - 1.0)
    tail = np.array([truncation_tail(end, end, t, b, k[-1]) for t in ts])
    full = np.array([full_line_integral(t, b) for t in ts])
    phase = np.exp(1j * (b - b0) * k)
    t_phased = t_half * phase
    n_rows, n_k = hp.shape
    r = np.zeros((n_rows, 4 * nt), dtype=complex)
    width = min(n_k, max(1, _CHUNK_ENTRIES // n_rows))
    buf = np.empty((n_rows, width), dtype=complex)
    for k0 in range(0, n_k, width):
        k1 = min(k0 + width, n_k)
        amp = buf[:, : k1 - k0]
        np.multiply(hm[:, k0:k1], t_phased[k0:k1], out=amp)
        amp *= hp[:, k0:k1]
        amp -= phase[k0:k1]
        r += amp @ weights[:, k0:k1].T
    r2, r1 = ((s[:, :nt] + np.conj(s[:, nt:])).T for s in (r[:, : 2 * nt], r[:, 2 * nt :]))
    return (full[:, None] + r2) * inv2pi, (np.abs(r2 - r1) + tail) * inv2pi


def pac_slices(pd: PropagatorData, ts) -> list[KernelSlice]:
    """Kernel slices on pd.x_grid × pd.x_grid for every time in ts.

    The weights of one anchor serve all pairs and times of the diagonals
    nearest it, one PanelTables.grid_weights call per anchor.  A
    diagonal's amplitude, with the phase its anchor leaves, is built from
    views of pd's rows and contracted in k-blocks that hold all its rows.
    Raises ValueError for an empty or non-finite ts, for t < 1, when
    2tK ≤ |b| for the widest separation b on the grid (K = max k), as
    pac_kernel does for one pair, and for times whose refined panel tables
    pass oscquad's budget; all before any work."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x = pd.x_grid
    n = x.size
    dx = _uniform_step(x, "x_grid")
    b_max = float(x[-1] - x[0])
    _check_times(ts, pd.k_grid, b_max)
    anchors = _anchors(pd, dx, np.arange(n))
    tables = PanelTables(pd.k_grid, ts, max(b_max, anchors[-1] * dx))
    k = pd.k_grid[pd.k_grid.size // 2 :]
    pac = np.empty((ts.size, n, n), dtype=complex)
    qerr = np.empty((ts.size, n, n))
    for a in np.unique(anchors):
        weights = tables.grid_weights(a * dx)
        for d in np.flatnonzero(anchors == a):
            val, err = _pac_rows(pd.hp[d:], pd.hm[: n - d], pd.T_half, k, ts, d * dx, a * dx, weights)
            rows = np.arange(n - d)
            pac[:, rows, rows + d] = val
            pac[:, rows + d, rows] = val
            qerr[:, rows, rows + d] = err
            qerr[:, rows + d, rows] = err
        del weights  # one anchor's weights alive at a time

    out = []
    for i_t, t in enumerate(ts):
        p0 = _p0_matrix(pd, t)
        out.append(KernelSlice(x, x, float(t), pac[i_t], p0, pac[i_t] - p0, qerr[i_t]))
    return out


def pac_kernel(pd: PropagatorData, x: float, y: float, t: float) -> tuple[complex, float]:
    """Continuous-spectrum evolution kernel at one (x, y, t) triple and its
    error estimate, by the same rule as pac_slices; raises ValueError for
    a non-finite or t < 1 time, when 2tK ≤ |y − x| and for a time past the
    panel tables' refinement budget."""
    lo, hi = (x, y) if x <= y else (y, x)
    i, j = pd.x_index(lo), pd.x_index(hi)
    ts, b = np.array([float(t)]), float(pd.x_grid[j] - pd.x_grid[i])
    _check_times(ts, pd.k_grid, b)
    # the slices' anchor; b₀ = b exactly where the diagonal is its own anchor
    dx = _uniform_step(pd.x_grid, "x_grid")
    b0 = b + (_anchors(pd, dx, j - i) - (j - i)) * dx
    rows = pd.hp[j : j + 1], pd.hm[i : i + 1], pd.T_half, pd.k_grid[pd.k_grid.size // 2 :]
    val, err = _pac_rows(*rows, ts, b, b0, PanelTables(pd.k_grid, ts, b0).grid_weights(b0))
    return complex(val[0, 0]), float(err[0, 0])


def threshold_projection_residual(pd: PropagatorData) -> float:
    """max |f₀(x)f₀(y) − T(0) f₋(x,0) f₊(y,0)| over the grid: the
    normalised-state route against the scattering route to the same
    projection kernel.  f₀ is c₊h₊(·,0) and T(0) = c₊²γ, so the residual is
    c₊² max|h₊(x,0) − γh₋(x,0)|·|h₊(y,0)|: it checks the proportionality
    h₊ = γh₋ on the propagator grid, far past the |x| ≤ 2 that γ is fitted
    on, together with the T(0) of the resonance report."""
    if not pd.resonant:
        raise ResonanceError("threshold projection needs a resonant potential")
    lhs = np.outer(pd.f0_x, pd.f0_x)
    # column 0 of the rows is k = 0
    rhs = pd.T_half[0] * np.outer(pd.hm[:, 0], pd.hp[:, 0])
    return float(np.max(np.abs(lhs - rhs)))


# -- stationary-phase integrand ----------------------------------------------


def s_field(pd: PropagatorData, x: float, y: float) -> SField:
    """Derivative of the once-subtracted kernel amplitude over k.

    With N(k) = e^{i|y−x|k} h₊(y,k)h₋(x,k)T(k) − h₊(y,0)h₋(x,0)T(0) the
    sampled field is S = ∂ₖ(N/k); N(0) = 0, so the quotient extends over
    k = 0 by a fourth-order stencil."""
    lo, hi = (x, y) if x <= y else (y, x)
    i, j = pd.x_index(lo), pd.x_index(hi)
    k = pd.k_grid
    b = float(pd.x_grid[j] - pd.x_grid[i])
    c = k.size // 2
    g = unfold(pd.hp[j] * pd.hm[i] * pd.T_half, k[c:], k)
    h = float(k[1] - k[0])
    # the k grid is symmetric, so its middle node is k = 0
    q = wiener._k0_quotient(k, np.exp(1j * b * k) * g - g[k.size // 2], h)
    return SField(x=float(x), y=float(y), k_grid=k[2:-2], S=wiener._derivative(q, h))


def _growth_lattice(x_grid) -> list[float]:
    """The grid values at the integers m, |m| ≤ 5, that s_growth_fit pairs
    up; ValueError naming the first point missing from x_grid."""
    sel = []
    for v in np.arange(-5.0, 6.0):
        try:
            sel.append(float(x_grid[_grid_index(x_grid, v, "x")]))
        except KeyError:
            raise ValueError(f"lattice point x={v:g} is not on the propagator grid") from None
    return sel


def s_growth_fit(pd: PropagatorData):
    """Growth of ‖S(x,y,·)‖ against s = |x|+|y| over the integer pair
    lattice |x|,|y| ≤ 5.

    The claim under test is an upper bound ≲ (1+s)², so the exponent is
    fitted on the envelope (the per-s maximum of the norm): a scatter fit
    would be dominated by same-side pairs whose norms are tiny.  Returns
    (C, p, pairs, norms) with C = max ‖S‖/(1+s)² and p the least-squares
    slope of the log envelope in log(1+s).  Every integer m with |m| ≤ 5
    must lie on pd.x_grid; _growth_lattice raises ValueError otherwise, and
    the CLI decay stage runs the same check on its configured grid before
    any solve."""
    sel = _growth_lattice(pd.x_grid)
    pairs = [(a, c) for ai, a in enumerate(sel) for c in sel[ai:]]
    # ‖S‖ = a_norm(S).a1_norm, the profile masses of _FIT_ROWS fields per FFT call
    blocks = ([s_field(pd, a, c).S for a, c in pairs[i : i + _FIT_ROWS]] for i in range(0, len(pairs), _FIT_ROWS))
    norms = np.concatenate([wiener._hat_mass(pd.k_grid[2:-2], b, wiener.TAPER_FRAC)[0] for b in blocks])
    s = np.abs([a for a, _ in pairs]) + np.abs([c for _, c in pairs])
    env_s, env_n = [], []
    for sv in np.unique(np.round(s, 9)):
        m = np.abs(s - sv) < 1e-9
        env_s.append(1.0 + sv)
        env_n.append(float(np.max(norms[m])))
    coef = np.polynomial.polynomial.polyfit(np.log(env_s), np.log(env_n), deg=1)
    c_hat = float(np.max(norms / (1.0 + s) ** 2))
    return c_hat, float(coef[1]), pairs, norms
