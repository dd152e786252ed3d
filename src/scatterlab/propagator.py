"""The continuous-spectrum evolution kernel, the threshold projection, and
the integrand of the stationary-phase bound.

For x ≤ y the kernel of e^{−itH}P_ac is the improper integral

    pac(x,y,t) = (1/2π) ∫ e^{−i(tk²−(y−x)k)} h₊(y,k) h₋(x,k) T(k) dk.

The amplitude tends to 1 as k → ±∞, so the evaluation splits: the limit
contributes the free kernel (4πit)^{−1/2} e^{i(y−x)²/(4t)} in closed form
and the decaying remainder h₊h₋T − 1 is integrated over |k| ≤ K with the
quadratic-phase panel rule from oscquad.  On a uniform position grid the
phase depends only on the separation b = y − x, so all pairs of one
diagonal share their weights.

The rule runs on three nested node sets (panel midpoints filled by cubic
interpolation); the value is the Richardson extrapolant of the finest
pair and the error estimate is the difference between the two successive
extrapolants plus a first integration-by-parts bound for the |k| > K
tail.  That bound needs the phase to be monotone beyond the cut, so every
evaluation with 2tK ≤ |b| raises ValueError.  One pair (pac_kernel, which
returns the value with its error estimate) and whole slices (pac_slices)
run through the same routine, so they share this rule, their values and
their error estimates.  The threshold term (4πit)^{−1/2} f₀(x)f₀(y) has
one route, the tabulated f₀ of PropagatorData.f0_x.

Per (t, b) there is one Fresnel weight vector, on the finest node set;
the two coarser levels come from it by restriction.  For a real potential
the amplitude satisfies A(−k) = conj A(k), so only k ≥ 0 is refined and
built, and the k < 0 half of each weight vector, mirrored and conjugated,
acts on conj A: Σ w A = A·w₊ + conj(A·conj w₋).  The weights of all times
and levels of one diagonal form one matrix, so each row chunk of the
diagonal's amplitude costs one matrix product; the chunks keep the
amplitude's memory bounded whatever the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ResonanceError
from .jost import (
    ODE_ATOL,
    ODE_RTOL,
    ZeroEnergyState,
    _grid_index,
    zero_energy_state,
)
from .oscquad import _restrict, fresnel_weights, full_line_integral, truncation_tail
from .potentials import Potential
from .scattering import ScatteringData, scattering_data
from . import wiener
from .wiener import _uniform_step, _uniform_symmetric

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

DEFAULT_X_STEP = 0.25
DEFAULT_X_MAX = 8.0
DEFAULT_K_MAX = 60.0
DEFAULT_K_COUNT = 24001

# complex amplitude entries per row chunk of a diagonal (16 MiB); the rows
# per chunk follow from the number of refined nodes
_CHUNK_ENTRIES = 1 << 20


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
    on the inner k grid, with its algebra-norm estimate."""

    x: float
    y: float
    k_grid: np.ndarray
    S: np.ndarray
    a_norm: wiener.WienerEstimate


@dataclass(frozen=True)
class PropagatorData:
    """Shared read-only inputs for kernel evaluation on one grid."""

    pot: Potential
    x_grid: np.ndarray
    k_grid: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    sd: ScatteringData
    zero_state: ZeroEnergyState | None
    f0_x: np.ndarray

    @property
    def resonant(self) -> bool:
        return self.zero_state is not None

    @property
    def T(self) -> np.ndarray:
        return self.sd.T

    def x_index(self, x: float) -> int:
        return _grid_index(self.x_grid, x, "x")


def prepare_propagator(
    pot: Potential,
    x_grid=None,
    k_grid=None,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> PropagatorData:
    """Jost fields, scattering matrix and (if resonant) the threshold
    state, tabulated once on a uniform (x, k) grid and shared by every
    kernel evaluation.

    One pipeline: scattering_data integrates both Jost fields on x_grid,
    checks the Wronskian at its two ends and its middle, classifies the
    resonance and finds the bound states.  f₀ is then built from the
    zero-energy scan the resonance report was decided from, so a resonant
    potential is scanned once.  The grid point within 1e-12 of 0 is set to
    exactly 0, which keeps the Jost rows aligned with x_grid.  The k grid
    must be symmetric about 0 with a node at 0 (the kernel quadrature folds
    k < 0 onto k ≥ 0); ValueError otherwise, before any solve."""
    if x_grid is None:
        n_half = int(round(DEFAULT_X_MAX / DEFAULT_X_STEP))
        x_grid = np.linspace(-DEFAULT_X_MAX, DEFAULT_X_MAX, 2 * n_half + 1)
    if k_grid is None:
        k_grid = np.linspace(-DEFAULT_K_MAX, DEFAULT_K_MAX, DEFAULT_K_COUNT)
    x_grid = np.asarray(x_grid, dtype=float)
    k_grid = np.asarray(k_grid, dtype=float)
    _uniform_step(x_grid, "x_grid")
    _uniform_symmetric(k_grid)
    if k_grid.size % 2 == 0:
        raise ValueError("k grid needs a node at 0 (an odd number of points)")
    zero = np.abs(x_grid) < 1e-12
    if not np.any(zero):
        raise ValueError("x_grid must contain 0 (Wronskian anchor)")
    # scattering_data adds an exact 0 to the rows it integrates
    x_grid = np.where(zero, 0.0, x_grid)

    probes = tuple(float(x_grid[i]) for i in (0, x_grid.size // 2, x_grid.size - 1))
    sd, jp, jm = scattering_data(
        pot, k_grid, x_check=probes, extra_x=x_grid, rtol=rtol, atol=atol
    )
    zs = None
    f0_x = np.zeros(x_grid.size)
    if sd.resonance.resonant:
        zs = zero_energy_state(pot, sd.resonance.zero_energy)
        f0_x = CubicSpline(zs.x_grid, zs.f0)(x_grid)
    return PropagatorData(
        pot=pot,
        x_grid=x_grid,
        k_grid=k_grid,
        h_plus=jp.h,
        h_minus=jm.h,
        sd=sd,
        zero_state=zs,
        f0_x=f0_x,
    )


# -- evolution kernel --------------------------------------------------------


def _refine_rows(rows):
    """Insert panel midpoints along the last axis twice (uniform spacing
    assumed) by cubic interpolation; returns the interleaved array of
    length 4n−3, whose every second and every fourth sample are the two
    coarser levels."""
    if rows.shape[-1] < 4:
        raise ValueError("need at least four samples to refine")
    for _ in range(2):
        n = rows.shape[-1]
        out = np.empty(rows.shape[:-1] + (2 * n - 1,), dtype=rows.dtype)
        out[..., ::2] = rows
        mid = out[..., 1::2]
        mid[..., 1:-1] = (
            -rows[..., :-3] + 9.0 * rows[..., 1:-2] + 9.0 * rows[..., 2:-1] - rows[..., 3:]
        ) / 16.0
        mid[..., 0] = (
            5.0 * rows[..., 0] + 15.0 * rows[..., 1] - 5.0 * rows[..., 2] + rows[..., 3]
        ) / 16.0
        mid[..., -1] = (
            rows[..., -4] - 5.0 * rows[..., -3] + 15.0 * rows[..., -2] + 5.0 * rows[..., -1]
        ) / 16.0
        rows = out
    return rows


def _refine_half(rows):
    """The k ≥ 0 part of _refine_rows(rows) for rows on a k grid symmetric
    about 0 with a node at 0.  The midpoint stencils next to 0 read the two
    coarse nodes below it, so those are refined along and dropped; the
    values are identical to refining the whole line."""
    c = rows.shape[-1] // 2
    return _refine_rows(rows[..., c - 2 :])[..., 8:]


def _p0_matrix(pd: PropagatorData, t: float) -> np.ndarray:
    if not pd.resonant:
        return np.zeros((pd.x_grid.size, pd.x_grid.size), dtype=complex)
    return np.outer(pd.f0_x, pd.f0_x) / np.sqrt(4j * np.pi * t)


def _level_weights(kff, ts, b: float) -> np.ndarray:
    """Weights of the three Richardson levels for every time, folded onto
    the m finest nodes with k ≥ 0; returns a (2·3·len(ts), m) matrix with
    rows (half, level, time) flattened.

    Half 0 weights A(k); half 1 holds the conjugated weights of −k and acts
    on conj A.  Level 2 (finest) covers every node, level 1 every second,
    level 0 (the k grid) every fourth; the others stay 0.  fresnel_weights
    runs once per time, on the finest nodes; the coarser levels come from
    it by restriction."""
    m = (kff.size + 1) // 2
    wts = np.zeros((2, 3, ts.size, m), dtype=complex)
    for i_t, t in enumerate(ts):
        w = fresnel_weights(kff, t, b)
        for lev, step in ((2, 1), (1, 2), (0, 4)):
            if step > 1:
                w = _restrict(w)
            c = w.size // 2
            wts[0, lev, i_t, ::step] = w[c:]
            wts[1, lev, i_t, step::step] = np.conj(w[c - 1 :: -1])
    return wts.reshape(-1, m)


def _check_times(ts, k_max: float, b: float) -> None:
    """The kernel rule's conditions on the times at separation b ≥ 0: every
    t ≥ 1, and the phase monotone beyond the cut at the earliest t
    (truncation_tail's 2tK > b); ValueError otherwise.  pac_kernel checks
    its pair, pac_slices and the CLI decay stage the widest separation on
    the grid, each before any work."""
    if np.any(ts < 1.0):
        raise ValueError("kernel evaluation needs t >= 1")
    truncation_tail(0.0, 0.0, float(np.min(ts)), b, k_max)


def _pac_rows(hp_ff, hm_ff, t_ff, k, ts, b: float):
    """Continuous-spectrum kernel of row-aligned pairs at one separation
    b ≥ 0 for every time in ts; returns (value, error), each (len(ts), rows).

    hp_ff, hm_ff hold rows of h₊(y,·) and h₋(x,·) and t_ff holds T, all
    refined twice from the symmetric k grid on k ≥ 0 only (_refine_half);
    refinement keeps the original nodes in place, so the finest nodes
    carry all three levels.  The amplitude is built and contracted in row
    chunks of _CHUNK_ENTRIES entries."""
    k_max = float(k[-1])
    inv2pi = 1.0 / (2.0 * np.pi)
    # |A(−K)| = |A(K)| for the two ends of the tail bound
    end = np.abs(hp_ff[:, -1] * hm_ff[:, -1] * t_ff[-1] - 1.0)
    tail = np.array([truncation_tail(end, end, t, b, k_max) for t in ts])
    full = np.array([full_line_integral(t, b) for t in ts])
    wts = _level_weights(np.linspace(k[0], k[-1], 4 * k.size - 3), ts, b)
    n_rows = hp_ff.shape[0]
    val = np.empty((ts.size, n_rows), dtype=complex)
    err = np.empty((ts.size, n_rows))
    chunk = max(1, _CHUNK_ENTRIES // t_ff.size)
    for lo in range(0, n_rows, chunk):
        rows = slice(lo, lo + chunk)
        amp = hp_ff[rows] * hm_ff[rows] * t_ff - 1.0
        s = (amp @ wts.T).reshape(amp.shape[0], 2, 3, ts.size)
        coarse, fine, finest = (s[:, 0] + np.conj(s[:, 1])).transpose(1, 2, 0)
        r1 = fine + (fine - coarse) / 3.0
        r2 = finest + (finest - fine) / 3.0
        val[:, rows] = (full[:, None] + r2) * inv2pi
        err[:, rows] = (np.abs(r2 - r1) + tail[:, rows]) * inv2pi
    return val, err


def pac_slices(pd: PropagatorData, ts) -> list[KernelSlice]:
    """Kernel slices on pd.x_grid × pd.x_grid for every time in ts.

    The weights of one diagonal serve all its pairs and times; the
    amplitude is built per diagonal in row chunks.  Raises ValueError for
    t < 1 and when 2tK ≤ |b| for the widest separation b on the grid
    (K = max k), as pac_kernel does for one pair; both before any work."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x = pd.x_grid
    n = x.size
    dx = _uniform_step(x, "x_grid")
    _check_times(ts, float(pd.k_grid[-1]), float(x[-1] - x[0]))
    hp_ff = _refine_half(pd.h_plus)
    hm_ff = _refine_half(pd.h_minus)
    t_ff = _refine_half(pd.T)
    pac = np.empty((ts.size, n, n), dtype=complex)
    qerr = np.empty((ts.size, n, n))
    for d in range(n):
        val, err = _pac_rows(hp_ff[d:, :], hm_ff[: n - d, :], t_ff, pd.k_grid, ts, d * dx)
        rows = np.arange(n - d)
        pac[:, rows, rows + d] = val
        pac[:, rows + d, rows] = val
        qerr[:, rows, rows + d] = err
        qerr[:, rows + d, rows] = err

    out = []
    for i_t, t in enumerate(ts):
        p0 = _p0_matrix(pd, t)
        out.append(
            KernelSlice(
                x_grid=x,
                y_grid=x,
                t=float(t),
                pac=pac[i_t],
                p0_term=p0,
                G=pac[i_t] - p0,
                quadrature_error=qerr[i_t],
            )
        )
    return out


def pac_kernel(pd: PropagatorData, x: float, y: float, t: float) -> tuple[complex, float]:
    """Continuous-spectrum evolution kernel at one (x, y, t) triple and its
    error estimate, by the same rule as pac_slices; raises ValueError for
    t < 1 and when 2tK ≤ |y − x|."""
    lo, hi = (x, y) if x <= y else (y, x)
    i, j = pd.x_index(lo), pd.x_index(hi)
    ts, b = np.array([float(t)]), float(pd.x_grid[j] - pd.x_grid[i])
    _check_times(ts, float(pd.k_grid[-1]), b)
    val, err = _pac_rows(
        _refine_half(pd.h_plus[j : j + 1, :]),
        _refine_half(pd.h_minus[i : i + 1, :]),
        _refine_half(pd.T),
        pd.k_grid,
        ts,
        b,
    )
    return complex(val[0, 0]), float(err[0, 0])


def threshold_projection_residual(pd: PropagatorData) -> float:
    """max |f₀(x)f₀(y) − T(0) f₋(x,0) f₊(y,0)| over the grid: the
    normalised-state route against the scattering route to the same
    projection kernel."""
    if not pd.resonant:
        raise ResonanceError("threshold projection needs a resonant potential")
    i0 = int(np.argmin(np.abs(pd.k_grid)))
    if abs(pd.k_grid[i0]) > 1e-12:
        raise ValueError("k grid must contain 0")
    lhs = np.outer(pd.f0_x, pd.f0_x)
    rhs = pd.T[i0] * np.outer(pd.h_minus[:, i0], pd.h_plus[:, i0])
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
    i0 = int(np.argmin(np.abs(k)))
    if abs(k[i0]) > 1e-12 or i0 < 2 or i0 > k.size - 3:
        raise ValueError("k grid must contain 0 away from its ends")
    b = float(pd.x_grid[j] - pd.x_grid[i])
    g = pd.h_plus[j, :] * pd.h_minus[i, :] * pd.T
    num = np.exp(1j * b * k) * g - g[i0]
    h = float(k[1] - k[0])
    q = np.empty_like(num)
    nz = np.abs(k) > 1e-12
    q[nz] = num[nz] / k[nz]
    q[i0] = (num[i0 - 2] - 8.0 * num[i0 - 1] + 8.0 * num[i0 + 1] - num[i0 + 2]) / (12.0 * h)
    s = wiener._derivative(q, h)
    k_in = k[2:-2]
    est = wiener.a_norm(k_in, s, 0.0)
    return SField(x=float(x), y=float(y), k_grid=k_in, S=s, a_norm=est)


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
    norms = np.array([s_field(pd, a, c).a_norm.a1_norm for a, c in pairs])
    s = np.abs([a for a, _ in pairs]) + np.abs([c for _, c in pairs])
    env_s, env_n = [], []
    for sv in np.unique(np.round(s, 9)):
        m = np.abs(s - sv) < 1e-9
        env_s.append(1.0 + sv)
        env_n.append(float(np.max(norms[m])))
    coef = np.polynomial.polynomial.polyfit(np.log(env_s), np.log(env_n), deg=1)
    c_hat = float(np.max(norms / (1.0 + s) ** 2))
    return c_hat, float(coef[1]), pairs, norms
