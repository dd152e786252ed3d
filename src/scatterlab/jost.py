"""Jost solutions of −f″ + V f = k² f by inward integration.

The Jost solutions f±(x,k) ~ e^{±ikx} (x → ±∞) are reported through the
slowly varying factors h±(x,k) = e^{∓ikx} f±(x,k), with h±(±∞) = 1 and
h′±(±∞) = 0.  Integration starts at a cutoff X∞ where the tail mass
η±(X∞) = ±∫ |V| is below a tolerance and proceeds inward.

The integrator is the fourth-order Magnus method with two Gauss points,
applied to the first-order form of f″ = (V − k²) f (Blanes, Casas, Oteo &
Ros, Phys. Rep. 2009).  One step of length H maps (f, f′) by exp Ω with

    Ω = [[a, H], [H q̄, −a]],   q̄ = (V₁ + V₂)/2 − k²,   a = √3 H² (V₁ − V₂)/12,

V₁, V₂ being V at the Gauss points.  Ω² = (a² + H² q̄) I, so
exp Ω = C I + (S/s) Ω with cos/sin of s = √|a² + H² q̄| (cosh/sinh where
a² + H² q̄ > 0): a real 2×2 matrix that depends on k only through k².  So
h(x,−k) = conj h(x,k) holds exactly, k = iκ runs in real arithmetic, and a
piecewise-constant V is integrated exactly by steps that end at its
breakpoints.

One step sequence serves every k.  Its edges are the breakpoints of V and
every output x; between them the step is chosen by step doubling.  A
candidate step starts at (1 + |x|)/4 and is halved until one step F and
two half steps P differ by |P − F|/15 <= (rtol + atol)·|H| in the norm that
weighs f′ by 1/max(|k|, 1): at k = 0 for real k, since the error of a
resolved step does not grow with k, and at every κ for k = iκ.  A step is
resolved for real k when |kH| <= 1.2 for the largest |k| or V varies on it
by at most (rtol + atol)/|H|; an unresolved one is halved too.  Steps stay
long where V is small or smooth, so a power-law tail out to X∞ ≈ 10³ is
cheap.  The accepted steps use the Richardson map (16 P − F)/15; the
whole-step solution, marched beside it on up to 64 of the k, gives the
reported error estimate max |P-solution − F-solution|/15 over the outputs.

Only |k| is marched: for a real potential h(x,−k) = conj h(x,k)
(Deift & Trubowitz, CPAM 32, 1979), so a JostField holds the distinct |k|
of the requested grid, h and h′ being the march output itself.  unfold
carries rows on those nodes onto any grid of ±k by conjugation, for the
readers that need k < 0 (scattering.wronskians' callers, s_field, and the
kernels stage's Φ rows and roundtrip check).

Purely imaginary k = iκ give h±(x, iκ) (compute_h_bound): the bound-state
search reads them at x = 0 (W(iκ), and dW/dκ for the norming constants)
and counts the sign changes of h₊ on a grid for Sturm oscillation.  k = 0 is an ordinary column of a real k grid: the
zero-energy solutions f±(·,0) = h±(·,0) that decide the resonance
(scattering.classify_resonance) and give the threshold state f₀
(propagator.prepare_propagator) are read from compute_h's k = 0 column.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError
from .potentials import Potential, cutoff_for_eta

__all__ = [
    "JostField",
    "IntegrationReport",
    "compute_h",
    "compute_h_bound",
    "unfold",
]

ODE_RTOL = 1e-10  # default solver tolerances of every Jost integration
ODE_ATOL = 1e-12
_CUTOFF_TOL = 1e-10  # bound on the tail mass η±(X∞) past the cutoff

_GAUSS = np.sqrt(3.0) / 6.0  # Gauss nodes of a step at 1/2 ∓ √3/6 of it
_COMM = np.sqrt(3.0) / 12.0  # weight of the commutator term of Ω
_STEP0 = 0.25  # candidate steps start at _STEP0·(1 + |x|)
_MAX_HALVINGS = 40
_KH_RESOLVED = 1.2  # steps with |kH| above this are not in the asymptotic regime
_CHUNK = 2**15  # entries of one (steps × k) working array (256 KiB)
_SAMPLE_K = 64  # k that carry the whole-step solution of the error estimate
_PARALLEL_K = 2048  # k grids at least this large are marched in threads
_WORKERS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class IntegrationReport:
    cutoff: float
    eta_at_cutoff: float
    rtol: float
    atol: float
    # (|k| low, |k| high, Magnus step evaluations): one sequence serves every k
    bands: tuple[tuple[float, float, int], ...]
    # estimated error of the two-half-step solution at the outputs, the
    # largest over up to 64 sampled k; h itself is the Richardson value
    error_estimate: float


@dataclass(frozen=True)
class JostField:
    """h±(x,k) and ∂ₓh±(x,k) tabulated on an (x, k) grid for one side; k_grid
    holds the distinct |k| that were marched, ascending (unfold gives k < 0).
    Only h is kept; f± = e^{±ikx}h±, and _wronskian needs no phase."""

    side: int
    x_grid: np.ndarray
    k_grid: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    report: IntegrationReport

    def x_index(self, x: float) -> int:
        return _grid_index(self.x_grid, x, "x")

    def at_x(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(h(x,·), ∂ₓh(x,·)) along the k grid."""
        i = self.x_index(x)
        return self.h[i], self.h_prime[i]


def _grid_index(grid, value: float, name: str) -> int:
    """Index of the grid point within 1e-9 of value; KeyError otherwise."""
    i = int(np.argmin(np.abs(grid - value)))
    if abs(grid[i] - value) > 1e-9:
        raise KeyError(f"{name}={value} not on the grid")
    return i


def _step_maps(pot, x0, H, k2):
    """exp Ω of the Magnus steps [x0, x0 + H] (x0, H of shape (S,)) for each
    k² (shape (K,)), as the real (S, K) arrays (m00, m01, m10 + k² m01,
    m11 − m00).  The last two are the parts of exp Ω that V alone makes, so
    they vanish where V does, with no cancellation between k² terms."""
    v1 = pot(x0 + (0.5 - _GAUSS) * H)
    v2 = pot(x0 + (0.5 + _GAUSS) * H)
    h = H[:, None]
    vbar = 0.5 * (v1 + v2)[:, None]
    a = (_COMM * H * H * (v1 - v2))[:, None]
    nd = k2 - vbar
    nd -= (a / h) ** 2  # Ω² = −H² nd·I; s = |H|√|nd| is exactly |kH| where V = 0
    if nd.min(initial=1.0) > 0.0:
        C, S = _cos_sinc(np.sqrt(nd, out=nd), 0.5 * np.abs(h))
    else:
        r = np.abs(h) * np.sqrt(np.abs(nd))
        osc = nd > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            C, S = np.cosh(r), np.sinh(r)  # an overflow fails the step, which is halved
            np.divide(S, r, out=S, where=r > 0.0)
        S[r == 0.0] = 1.0
        C[osc], S[osc] = _cos_sinc(r[osc], 0.5)
    Sa = S * a
    S *= h
    return C + Sa, S, S * vbar, -2.0 * Sa


def _cos_sinc(rho, half):
    """(cos r, sin(r)/r) for r = 2·half·rho > 0, from τ = tan(r/2): numpy
    vectorises tan but not cos and sin, and the half-angle forms lose no
    accuracy.  rho is overwritten."""
    rho *= half  # r/2
    tau = np.tan(rho)
    q = tau * tau
    q += 1.0
    np.reciprocal(q, out=q)
    tau *= q
    tau /= rho
    q *= 2.0
    q -= 1.0
    return q, tau


def _mul(A, B, k2):
    """The product A·B of two maps in _step_maps' form."""
    c2, b2, e2, t2 = A
    c1, b1, e1, t1 = B
    return (
        c2 * c1 + b2 * (e1 - k2 * b1),
        c2 * b1 + b2 * (c1 + t1),
        e2 * c1 + (c2 + t2) * e1 + k2 * (b2 * t1 - b1 * t2),
        e2 * b1 - b2 * e1 + t2 * c1 + c2 * t1 + t1 * t2,
    )


def _doubled(pot, x0, H, lam, g):
    """(R, F) for the steps, each (S, K) in _step_maps' form: the whole step
    F and the Richardson map R = (16 P − F)/15 of the two half steps P.  The
    step-doubling difference P − F is 15/16 of R − F.  For k = iκ
    (g = −σκ, else None) both are scaled by e^{−gH}, so the state does not
    grow like e^{κ|x|}."""
    k2 = -(lam * lam).real
    # P before F, and R in P's arrays, so fewer (steps × k) arrays live at once
    R = _mul(_step_maps(pot, x0 + 0.5 * H, 0.5 * H, k2), _step_maps(pot, x0, 0.5 * H, k2), k2)
    F = _step_maps(pot, x0, H, k2)
    for r, f in zip(R, F):
        r *= 16.0
        r -= f
        r /= 15.0
    if g is not None:
        scale = np.exp(-np.multiply.outer(H, g))
        R, F = (tuple(m * scale for m in M) for M in (R, F))
    return R, F


def _indicator(pot, x0, H, lam, g, tol) -> np.ndarray:
    """Local error indicator of each step (S,), compared with a tolerance
    per unit length: the step-doubling difference (P − F)/15 per unit
    length, in the norm that weighs f′ by 1/max(|k|, 1), at k = 0 for real k
    (the error of a resolved Magnus step does not grow with k) and at every
    κ for k = iκ.  A step longer than _KH_RESOLVED/max|k| is not resolved
    for the largest k; it is halved unless V varies on it by at most tol/|H|
    (then no k sees more than tol of V's variation there)."""
    lam0 = lam if g is not None else np.zeros(1)
    w = np.maximum(np.abs(lam0), 1.0)
    R, F = _doubled(pot, x0, H, lam0, g)
    dc, db, de, dt = (np.abs(r - f) / 16.0 for r, f in zip(R, F))
    est = ((dc + 2.0 * dt + 2.0 * w * db + de / w) / np.abs(H)[:, None]).max(axis=1)
    if g is None:
        wide = np.abs(H) * np.max(np.abs(lam)) > _KH_RESOLVED
        if wide.any():
            xw, hw = x0[wide], H[wide]
            v = np.array([pot(xw + o * hw) for o in (0.0, 0.25, 0.5, 0.75, 1.0)])
            spread = np.abs(hw) * (v.max(axis=0) - v.min(axis=0))
            est[wide] = np.where(spread > tol, np.inf, est[wide])
    return est


def _step_chunks(n_steps: int, n_k: int) -> list[slice]:
    size = max(1, _CHUNK // max(n_k, 1))
    return [slice(i, min(i + size, n_steps)) for i in range(0, n_steps, size)]


def _step_sequence(pot, edges, lam, g, tol):
    """(x0, H, segment, evaluations): the steps whose _indicator is at most
    tol on the given k, in integration order.  Segment j runs from edges[j]
    to edges[j + 1]."""
    a, b = edges[:-1], edges[1:]
    cap = _STEP0 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
    n = np.maximum(np.ceil(np.abs(b - a) / cap), 1.0).astype(int)
    seg = np.repeat(np.arange(a.size), n)
    H = np.repeat((b - a) / n, n)
    x0 = np.repeat(a, n) + H * (np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n))
    accepted = []
    evals = 0
    for _ in range(_MAX_HALVINGS):
        est = np.empty(x0.size)
        for s in _step_chunks(x0.size, 1 if g is None else lam.size):
            est[s] = _indicator(pot, x0[s], H[s], lam, g, tol)
        evals += 3 * x0.size
        ok = est <= tol
        accepted.append((x0[ok], H[ok], seg[ok]))
        if ok.all():
            break
        x0, H, seg = x0[~ok], 0.5 * H[~ok], seg[~ok]
        x0, H, seg = np.concatenate([x0, x0 + H]), np.tile(H, 2), np.tile(seg, 2)
    else:
        raise CrossCheckError(
            f"Magnus steps near x = {x0[0]:.6g} stay above {tol:.3g} per unit length after "
            f"{_MAX_HALVINGS} halvings"
        )
    x0, H, seg = (np.concatenate(part) for part in zip(*accepted))
    order = np.lexsort((x0 * np.sign(edges[-1] - edges[0]), seg))
    return x0[order], H[order], seg[order], evals


def _march(pot, x0, H, slot, n_out, lam, g):
    """March (h, h′) from (1, 0) through the Richardson steps R for every k.
    The maps act on (f, u) = (f, f′ − λf), λ = f′/f at X∞; each step is
    followed by its factor e^{−λH}, so the state is (h, h′) =
    e^{−λ(x − X∞)} (f, u) throughout (for k = iκ the factor is in the maps
    already).  Beside it, on at most _SAMPLE_K k spread over the grid, runs
    the whole-step solution of the maps F.

    slot[s] is the output that step s ends on (−1: none; slot[−1] is the
    output at the start, if any).  Returns ((h, h′) at the outputs, and the
    largest estimated error |δh| + |δh′|/max(|k|, 1) of the two-half-step
    solution over the outputs and sampled k, δ = (Richardson − whole
    step)/16).  Large k grids are split between _WORKERS threads (numpy
    releases the GIL)."""
    K = lam.size
    y_out = np.zeros((2, n_out, K), dtype=lam.dtype)
    w = np.maximum(np.abs(lam), 1.0)
    sample = np.unique(np.linspace(0, K - 1, min(K, _SAMPLE_K)).round().astype(int))
    errs = []

    def run(k_lo, k_hi):
        err = 0.0
        for k0 in range(k_lo, k_hi, _CHUNK):
            kc = slice(k0, min(k0 + _CHUNK, k_hi))
            lk = lam[kc]
            gk = None if g is None else g[kc]
            ps = sample[(sample >= kc.start) & (sample < kc.stop)] - kc.start
            lp, wp = lk[ps], w[kc][ps]
            f = np.ones(lk.size, dtype=lam.dtype)
            u = np.zeros_like(f)
            fF, pF = f[ps], lp.copy()  # whole-step (f, f′) on the sampled k
            if slot[-1] >= 0:
                y_out[0, slot[-1], kc] = f
            phases = {}
            for sc in _step_chunks(x0.size, lk.size):
                (c, b, e, t), F = _doubled(pot, x0[sc], H[sc], lk, gk)
                cF, bF, eF, tF = (m[:, ps] for m in F)
                mF10, mF11 = eF + (lp * lp).real * bF, cF + tF
                del F  # the whole steps are read on the sampled k only
                for j, s in enumerate(range(sc.start, sc.stop)):
                    # the maps on (h, h′) step by step: no complex (steps × k) array
                    lb = lk * b[j]
                    ff, uf, uu = c[j] + lb, e[j] + lk * t[j], c[j] + t[j] - lb
                    f, u = ff * f + b[j] * u, uf * f + uu * u
                    fF, pF = cF[j] * fF + bF[j] * pF, mF10[j] * fF + mF11[j] * pF
                    if gk is None:
                        ph = phases.get(H[s])
                        if ph is None:  # e^{−λH}; steps repeat few lengths
                            if len(phases) >= _SAMPLE_K:
                                phases.clear()
                            tau = np.tan(0.5 * H[s] * lk.imag)
                            ph = phases[H[s]] = (1.0 - 1j * tau) ** 2 / (1.0 + tau * tau)
                        f *= ph
                        u *= ph
                        fF, pF = fF * ph[ps], pF * ph[ps]
                    if slot[s] >= 0:
                        y_out[0, slot[s], kc], y_out[1, slot[s], kc] = f, u
                        d = np.abs(f[ps] - fF) + np.abs(u[ps] - (pF - lp * fF)) / wp
                        err = max(err, float(d.max(initial=0.0)) / 16.0)
                del c, b, e, t  # before the next chunk's maps are made
        errs.append(err)

    parts = _WORKERS if K >= _PARALLEL_K else 1
    edges = np.linspace(0, K, parts + 1).astype(int)
    if parts == 1:
        run(0, K)
    else:
        with ThreadPoolExecutor(parts) as pool:
            list(pool.map(run, edges[:-1], edges[1:]))
    return y_out, max(errs)


def _inward(pot, x_grid, ks, side, rtol, atol, x_inf):
    """(h, h′, Magnus step evaluations, error estimate) on the sorted
    x_grid, integrated from side·X∞ inward; ks real, or iκ."""
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    lam = side * 1j * ks  # f′/f at X∞
    g = None
    if not np.any(lam.imag):
        lam = lam.real.copy()
        g = lam
    tol = rtol + atol
    start = side * x_inf
    lo, hi = sorted((start, x_grid[0] if side > 0 else x_grid[-1]))
    inner = [b for b in pot.breakpoints if lo < b < hi]
    edges = np.unique(np.concatenate([[start], x_grid, inner]))
    pos = np.searchsorted(edges, x_grid)
    if side > 0:
        edges, pos = edges[::-1], edges.size - 1 - pos

    x0, H, seg, evals = _step_sequence(pot, edges, lam, g, tol)
    slot = np.full(x0.size + 1, -1)
    # output i sits at edge pos[i], the end of segment pos[i] − 1 (−1: the start)
    slot[np.searchsorted(seg, pos - 1, side="right") - 1] = np.arange(x_grid.size)
    y, err = _march(pot, x0, H, slot, x_grid.size, lam, g)
    return y[0], y[1], evals + 3 * x0.size, err


def compute_h(
    pot: Potential,
    x_grid,
    k_grid,
    side: int,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> JostField:
    """Tabulate h±(x,k), ∂ₓh±(x,k) on x_grid × |k_grid|.

    side is +1 for h₊ (integrated inward from +X∞) and −1 for h₋.  X∞ is
    the larger of the grid's edge and the point past which the tail mass
    η±(X∞) is below 1e-10.  Only |k| is integrated: h(x,−k) = conj h(x,k)
    for a real potential, so the field holds the distinct |k| of k_grid
    (its k_grid), and h and h′ are the march output with no copy; unfold
    gives the columns of any k < 0.  A grid symmetric about 0 has half its
    nodes marched only when its halves mirror each other bit for bit
    (scattering.scattering_data makes them so).
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    x_grid = np.unique(np.asarray(x_grid, dtype=float))
    k_grid = np.asarray(k_grid, dtype=float)
    if x_grid.size == 0 or k_grid.size == 0:
        raise ValueError("empty grids")

    x_inf = _cutoff(pot, x_grid, side)
    base = np.unique(np.abs(k_grid))
    h, hp, evals, err = _inward(pot, x_grid, base, side, rtol, atol, x_inf)
    report = IntegrationReport(
        cutoff=float(x_inf),
        eta_at_cutoff=float(pot.tail.eta_tail(x_inf)),
        rtol=rtol,
        atol=atol,
        bands=((float(base[0]), float(base[-1]), int(evals)),),
        error_estimate=err,
    )
    return JostField(side, x_grid, base, h, hp, report)


def compute_h_bound(pot, x_grid, kappas, side, *, rtol=ODE_RTOL, atol=ODE_ATOL):
    """h±(x, iκ) for real κ ≥ 0 (real-valued ODE); returns (h, h') real
    arrays of shape (x, κ).  κ = 0 is the zero-energy equation h″ = V h."""
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    x_grid = np.unique(np.asarray(x_grid, dtype=float))
    x_inf = _cutoff(pot, x_grid, side)
    h, hp, _, _ = _inward(pot, x_grid, 1j * kappas, side, rtol, atol, x_inf)
    return h, hp


def unfold(rows, k_abs, k_grid):
    """rows, tabulated on the ascending distinct |k| k_abs along the last
    axis, on k_grid: the column of |k| for each k, conjugated where k < 0
    (h(x,−k) = conj h(x,k) for a real potential).  ValueError when a |k|
    is not a node of k_abs."""
    k_grid = np.asarray(k_grid, dtype=float)
    idx = np.minimum(np.searchsorted(k_abs, np.abs(k_grid)), k_abs.size - 1)
    if not np.array_equal(k_abs[idx], np.abs(k_grid)):
        raise ValueError("unfold: k_grid has a |k| that is not a node of k_abs")
    out = rows[..., idx]
    neg = k_grid < 0
    out[..., neg] = np.conj(out[..., neg])
    return out


def _cutoff(pot, x_grid, side):
    """Integration start X∞ for a sorted x_grid: past its edge and past the
    point where the tail mass η± falls below _CUTOFF_TOL."""
    edge = x_grid[-1] if side > 0 else -x_grid[0]
    return max(cutoff_for_eta(pot, _CUTOFF_TOL), edge)


def _wronskian(two_ik, h_plus, hp_plus, h_minus, hp_minus):
    """(W, scale): W = 2ik h₊h₋ + h₋h′₊ − h′₋h₊ from h± and ∂ₓh± at one x,
    the same at every x since the phases of f± = e^{±ikx}h± cancel, and
    the sum of its three terms' magnitudes, both from one set of products;
    two_ik is 2ik (0 at k = 0, −2κ at k = iκ)."""
    a, b, c = two_ik * h_plus * h_minus, h_minus * hp_plus, hp_minus * h_plus
    return a + b - c, np.abs(a) + np.abs(b) + np.abs(c)
