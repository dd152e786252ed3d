"""Jost solutions of −f″ + V f = k² f by integration from the cutoffs.

The Jost solutions f±(x,k) ~ e^{±ikx} (x → ±∞) are reported through the
slowly varying factors h±(x,k) = e^{∓ikx} f±(x,k), with h±(±∞) = 1 and
h′±(±∞) = 0.  Integration starts at a cutoff X∞ where the tail mass
η±(X∞) = ±∫ |V| is below a tolerance.

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

Real k: one march gives both sides (compute_h_pair).  The step maps are
real and depend on k only through k², so the real 2×2 fundamental matrix
Φ(x, X₊) is marched once per |k|, on one step sequence from +X₊ down to
−X₋.  h₊ is Φ's first column in the frame (f, f′ − ikf), times the phase
e^{−ik(x − X₊)} accumulated per step from the maps' own half-angles.  h₋ is
U·(1, 0)/√det U in the frame (f, f′ + ikf), times e^{ik(x + X₋)}, for the
propagator U = Φ(x)Φ(−X₋)⁻¹ from −X₋ to x: scaled to its exact
determinant 1, so h₊h₋ carries half the roundoff drift of det Φ that an
unscaled U would give it.  Φ is kept in _step_maps' form
(m00, m01, m10 + k²m01, m11 − m00): the last two are the parts that V
makes, and a product of two maps whose V parts vanish has none either.  So
a V = 0 step leaves h′± exactly 0, as a one-sided march in the frame
(h, h′) does, and V ≡ 0 gives h± = 1 to roundoff with h′± = 0.  Since both
sides come from one Φ, W varies across x only with det Φ; the independent
check is a one-sided march of h₋ from −X₋ on the sampled k, whose gap to
the composed h₋ is added to h₋'s error estimate.  At k = 0 Φ grows
linearly along the march: on a power-law tail with X± ≈ 1 262, Φ(−X₋)
has entries up to about 5·10⁵, and h₋(·, 0) is within 2e-11 of DOP853,
against 5e-13 from a one-sided march.

Only |k| is marched: for a real potential h(x,−k) = conj h(x,k)
(Deift & Trubowitz, CPAM 32, 1979), so a JostField holds the distinct |k|
of the requested grid, h and h′ being the march output itself.  unfold
carries rows on those nodes onto any grid of ±k by conjugation, for the
readers that need k < 0 (scattering.wronskians' callers, s_field, and the
kernels stage's Φ rows and roundtrip check).

Purely imaginary k = iκ give h±(x, iκ) (compute_h_bound), one side per
call, marched from side·X∞ with the growth e^{κ|x|} scaled out of the
maps.  A shared Φ would not serve here: it grows like e^{2κX∞} across the
line, and the side that decays along it would be lost to cancellation.
The bound-state search reads them at x = 0 (W(iκ), and dW/dκ for the
norming constants) and counts the sign changes of h₊ on a grid for Sturm
oscillation.  k = 0 is an ordinary column of a real k grid: the
zero-energy solutions f±(·,0) = h±(·,0) that decide the resonance
(scattering.classify_resonance) and give the threshold state f₀
(propagator.prepare_propagator) are read from compute_h_pair's k = 0
column.

The maps are built a chunk of steps at a time, in (steps × k) arrays of at
most _CHUNK entries that each march thread allocates once per block of k,
so their pages stay mapped: arrays made anew per chunk are handed back to
the system and faulted in again every time (about 640 000 minor faults per
pair march on the default decay grid).  They are separate arrays, not one
block: one block of their size raised glibc's dynamic mmap threshold and
with it the peak RSS of the stages that follow.
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
    "compute_h_pair",
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
# entries of one (steps × k) working array (256 KiB); each march thread
# allocates its _WORK arrays once, as separate arrays (module docstring)
_CHUNK = 2**15
_WORK = 13  # 4 per half step's maps, 5 for their product; the whole step reuses 4
_ROWS = 2**12  # entries of one block of output rows assembled at once
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
    # largest over up to 64 sampled k; h itself is the Richardson value.
    # compute_h_pair's h₋ adds its largest gap to a one-sided march there
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


def _step_maps(pot, x0, H, k2, out):
    """exp Ω of the Magnus steps [x0, x0 + H] (x0, H of shape (S,)) for each
    k² (shape (K,)), as the real (S, K) arrays (m00, m01, m10 + k² m01,
    m11 − m00), written into the four arrays of out and returned as them.
    The last two are the parts of exp Ω that V alone makes, so they vanish
    where V does, with no cancellation between k² terms."""
    nd, S, C, Sa = out
    v1 = pot(x0 + (0.5 - _GAUSS) * H)
    v2 = pot(x0 + (0.5 + _GAUSS) * H)
    h = H[:, None]
    vbar = 0.5 * (v1 + v2)[:, None]
    a = (_COMM * H * H * (v1 - v2))[:, None]
    np.subtract(k2, vbar, out=nd)
    nd -= (a / h) ** 2  # Ω² = −H² nd·I; s = |H|√|nd| is exactly |kH| where V = 0
    if nd.min(initial=1.0) > 0.0:
        _cos_sinc(np.sqrt(nd, out=nd), 0.5 * np.abs(h), C, S)
    else:
        r = np.sqrt(np.abs(nd, out=Sa), out=Sa)
        r *= np.abs(h)
        with np.errstate(over="ignore", invalid="ignore"):
            np.cosh(r, out=C)  # an overflow fails the step, which is halved
            np.sinh(r, out=S)
            np.divide(S, r, out=S, where=r > 0.0)
        S[r == 0.0] = 1.0
        _cos_sinc(r, 0.5, C, S, where=nd > 0.0)
    np.multiply(S, a, out=Sa)
    S *= h
    C += Sa
    Sa *= -2.0
    return C, S, np.multiply(S, vbar, out=nd), Sa


def _cos_sinc(rho, half, C, S, where=True):
    """(cos r, sin(r)/r) for r = 2·half·rho > 0, from τ = tan(r/2), written
    into C and S where `where` holds: numpy vectorises tan but not cos and
    sin, and the half-angle forms lose no accuracy.  rho is overwritten."""
    np.multiply(rho, half, out=rho, where=where)  # r/2
    np.tan(rho, out=S, where=where)
    np.multiply(S, S, out=C, where=where)
    np.add(C, 1.0, out=C, where=where)
    np.reciprocal(C, out=C, where=where)
    np.multiply(S, C, out=S, where=where)
    np.divide(S, rho, out=S, where=where)
    np.multiply(C, 2.0, out=C, where=where)
    np.subtract(C, 1.0, out=C, where=where)


def _mul(A, B, k2, out):
    """The product A·B of two maps in _step_maps' form, written into the
    first four arrays of out and returned as them; the fifth is a work
    array, and none overlaps A or B.  No array is allocated, and where A
    and B have no V parts (e, t = 0) neither has the product."""
    c2, b2, e2, t2 = A
    c1, b1, e1, t1 = B
    c, b, e, t, x = out
    np.multiply(k2, b1, out=x)  # c = c2c1 + b2(e1 − k²b1)
    np.subtract(e1, x, out=x)
    x *= b2
    np.multiply(c2, c1, out=c)
    c += x
    np.add(c1, t1, out=x)  # b = c2b1 + b2(c1 + t1)
    x *= b2
    np.multiply(c2, b1, out=b)
    b += x
    np.multiply(b2, t1, out=x)  # e = e2c1 + (c2 + t2)e1 + k²(b2t1 − b1t2)
    np.multiply(b1, t2, out=e)
    x -= e
    x *= k2
    np.add(c2, t2, out=e)
    e *= e1
    x += e
    np.multiply(e2, c1, out=e)
    e += x
    np.add(c2, t2, out=x)  # t = e2b1 − b2e1 + t2c1 + (c2 + t2)t1
    x *= t1
    np.multiply(t2, c1, out=t)
    t += x
    np.multiply(e2, b1, out=x)
    t += x
    np.multiply(b2, e1, out=x)
    t -= x
    return out[:4]


def _doubled(pot, x0, H, lam, g, work):
    """(R, F) for the steps, each (S, K) in _step_maps' form: the whole step
    F and the Richardson map R = (16 P − F)/15 of the two half steps P.  The
    step-doubling difference P − F is 15/16 of R − F.  For k = iκ
    (g = −σκ, else None) both are scaled by e^{−gH}, so the state does not
    grow like e^{κ|x|}.  R and F are written into the first S rows of the
    march's working arrays work (_step_chunks)."""
    k2 = -(lam * lam).real
    w = [m[: H.size] for m in work]
    # P into w[:8] and their product R into w[8:]; then F into the first P's arrays
    R = _mul(_step_maps(pot, x0 + 0.5 * H, 0.5 * H, k2, w[:4]), _step_maps(pot, x0, 0.5 * H, k2, w[4:8]), k2, w[8:])
    F = _step_maps(pot, x0, H, k2, w[:4])
    for r, f in zip(R, F):
        r *= 16.0
        r -= f
        r /= 15.0
    if g is not None:
        scale = np.exp(np.negative(np.multiply.outer(H, g, out=w[4]), out=w[4]), out=w[4])
        for m in (*R, *F):
            m *= scale
    return R, F


def _indicator(pot, x0, H, lam, g, tol, work) -> np.ndarray:
    """Local error indicator of each step (S,), compared with a tolerance
    per unit length: the step-doubling difference (P − F)/15 per unit
    length, in the norm that weighs f′ by 1/max(|k|, 1), at k = 0 for real k
    (the error of a resolved Magnus step does not grow with k) and at every
    κ for k = iκ.  A step longer than _KH_RESOLVED/max|k| is not resolved
    for the largest k; it is halved unless V varies on it by at most tol/|H|
    (then no k sees more than tol of V's variation there)."""
    lam0 = lam if g is not None else np.zeros(1)
    w = np.maximum(np.abs(lam0), 1.0)
    R, F = _doubled(pot, x0, H, lam0, g, work)
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


def _step_chunks(n_steps: int, n_k: int) -> tuple[list[slice], list[np.ndarray]]:
    """The chunks of at most _CHUNK entries that a march over n_k columns
    takes its n_steps steps in, and the working arrays of _doubled, made
    once for all of them; the last chunk uses their first rows."""
    size = max(1, _CHUNK // max(n_k, 1))
    work = [np.empty((min(size, n_steps), n_k)) for _ in range(_WORK)]
    return [slice(i, min(i + size, n_steps)) for i in range(0, n_steps, size)], work


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
        chunks, work = _step_chunks(x0.size, 1 if g is None else lam.size)
        for s in chunks:
            est[s] = _indicator(pot, x0[s], H[s], lam, g, tol, work)
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


def _sample(K: int) -> np.ndarray:
    """The at most _SAMPLE_K k, spread over a grid of K, that carry the
    whole-step solution of the error estimate (indices)."""
    return np.unique(np.linspace(0, K - 1, min(K, _SAMPLE_K)).round().astype(int))


def _in_threads(K: int, run) -> None:
    """run(k_lo, k_hi) over the k range [0, K), split between _WORKERS
    threads that write disjoint columns when K is large (numpy releases the
    GIL)."""
    parts = _WORKERS if K >= _PARALLEL_K else 1
    edges = np.linspace(0, K, parts + 1).astype(int)
    if parts == 1:
        run(0, K)
    else:
        with ThreadPoolExecutor(parts) as pool:
            list(pool.map(run, edges[:-1], edges[1:]))


def _phase(cache: dict, H: float, k) -> np.ndarray:
    """e^{−ikH} from the maps' own half-angle τ = tan(kH/2); steps repeat
    few lengths, so the phases are cached by H."""
    ph = cache.get(H)
    if ph is None:
        if len(cache) >= _SAMPLE_K:
            cache.clear()
        tau = np.tan(0.5 * H * k)
        ph = cache[H] = (1.0 - 1j * tau) ** 2 / (1.0 + tau * tau)
    return ph


def _march(pot, x0, H, slot, n_out, lam, g):
    """March (h, h′) from (1, 0) through the Richardson steps R for every k.
    The maps act on (f, u) = (f, f′ − λf), λ = f′/f at X∞; each step is
    followed by its factor e^{−λH}, so the state is (h, h′) =
    e^{−λ(x − X∞)} (f, u) throughout (for k = iκ the factor is in the maps
    already).  The _sample k ride along as extra columns that take the
    whole steps F instead, so the whole-step solution needs no march of
    its own.

    slot[s] is the output that step s ends on (−1: none; slot[−1] is the
    output at the start, if any).  Returns ((h, h′) at the outputs, and the
    largest estimated error |δh| + |δh′|/max(|k|, 1) of the two-half-step
    solution over the outputs and sampled k, δ = (Richardson − whole
    step)/16)."""
    K = lam.size
    y_out = np.zeros((2, n_out, K), dtype=lam.dtype)
    w = np.maximum(np.abs(lam), 1.0)
    sample = _sample(K)
    errs = []

    def run(k_lo, k_hi):
        err = 0.0
        for k0 in range(k_lo, k_hi, _CHUNK):
            kc = slice(k0, min(k0 + _CHUNK, k_hi))
            ps, n = sample[(sample >= kc.start) & (sample < kc.stop)] - kc.start, kc.stop - kc.start
            lk = np.concatenate([lam[kc], lam[kc][ps]])
            gk = None if g is None else np.concatenate([g[kc], g[kc][ps]])
            wp = w[kc][ps]
            f = np.ones(lk.size, dtype=lam.dtype)
            u = np.zeros_like(f)
            if slot[-1] >= 0:
                y_out[0, slot[-1], kc] = f[:n]
            phases = {}
            chunks, work = _step_chunks(x0.size, lk.size)
            for sc in chunks:
                c, b, e, t = _whole_on_samples(*_doubled(pot, x0[sc], H[sc], lk, gk, work), n)
                for j, s in enumerate(range(sc.start, sc.stop)):
                    # the maps on (h, h′) step by step: no complex (steps × k) array
                    lb = lk * b[j]
                    ff, uf, uu = c[j] + lb, e[j] + lk * t[j], c[j] + t[j] - lb
                    f, u = ff * f + b[j] * u, uf * f + uu * u
                    if gk is None:
                        ph = _phase(phases, H[s], lk.imag)
                        f *= ph
                        u *= ph
                    if slot[s] >= 0:
                        y_out[0, slot[s], kc], y_out[1, slot[s], kc] = f[:n], u[:n]
                        d = np.abs(f[ps] - f[n:]) + np.abs(u[ps] - u[n:]) / wp
                        err = max(err, float(d.max(initial=0.0)) / 16.0)
        errs.append(err)

    _in_threads(K, run)
    return y_out, max(errs)


def _whole_on_samples(R, F, n):
    """R with its columns past n (the sampled k's copies) taken from the
    whole steps F."""
    for r, m in zip(R, F):
        r[:, n:] = m[:, n:]
    return R


def _det(phi, k2):
    """det Φ for Φ in _step_maps' form: m00·m11 − m01·m10."""
    c, b, e, t = phi
    return c * (c + t) + b * (k2 * b - e)


def _minus_start(end, ik, k2):
    """(v, u) = adj Φ·(1, 0)/√det Φ for Φ = end = Φ(−X₋) in _step_maps'
    form, in the frame (f, f′ + ikf) of the − side: √det Φ(−X₋) times the
    state at +X₊ of the solution that is (1, 0) at −X₋.  Where V = 0 the
    frame's lower left entry e − ikt vanishes, and u with it."""
    c, b, e, t = end
    root = np.sqrt(_det(end, k2))
    return (c + t + ik * b) / root, (ik * t - e) / root


def _minus_rows(phi, v, u, ik, k2):
    """(f, f′ + ikf)/√det Φ of the − side where Φ (in _step_maps' form)
    carries _minus_start's (v, u) at +X₊: U·(1, 0)/√det U for the
    propagator U = Φ·Φ(−X₋)⁻¹ from −X₋ to x, whose exact determinant is 1.
    The Richardson maps' determinants drift by roundoff even where V = 0;
    so scaled, U keeps det 1, and h₊h₋ carries half the drift that U
    unscaled would give it."""
    c, b, e, t = phi
    ikb = ik * b
    root = np.sqrt(_det(phi, k2))
    return ((c - ikb) * v + b * u) / root, ((e - ik * t) * v + (c + t + ikb) * u) / root


def _march_pair(pot, x0, H, slot, n_out, ks):
    """Both sides from one march of the fundamental matrix Φ(x, X₊) through
    the Richardson steps R, from +X₊ down to −X₋, for every k = ks ≥ 0
    (the module docstring gives the frames).  Each output keeps P =
    e^{−ik(x − X₊)} in h₊'s slot and Φ in the − side's until the march
    ends; then the rows are assembled in blocks of about _ROWS entries
    (one row at a time on large k grids), so no temporary spans the field.
    As in _march, the _sample k ride along as extra columns that take the
    whole steps F, and both sides' estimates compare with them.

    slot as in _march.  Returns ((2, 2, outputs, k) with [0] = (h₊, h′₊)
    and [1] = (h₋, h′₋), and the estimated error of each side as in
    _march)."""
    K = ks.size
    y = np.zeros((2, 2, n_out, K), dtype=complex)
    w = np.maximum(ks, 1.0)
    sample = _sample(K)
    errs = []

    def run(k_lo, k_hi):
        err_p = err_m = 0.0
        for k0 in range(k_lo, k_hi, _CHUNK):
            kc = slice(k0, min(k0 + _CHUNK, k_hi))
            ps, n = sample[(sample >= kc.start) & (sample < kc.stop)] - kc.start, kc.stop - kc.start
            k = np.concatenate([ks[kc], ks[kc][ps]])
            ik, k2, wp = 1j * k, k * k, w[kc][ps]
            buf = np.zeros((2, 5, k.size))  # Φ: the steps' products alternate between the two
            phi = buf[0, :4]
            phi[0] = 1.0
            P = np.ones(n, dtype=complex)
            whole = np.empty((n_out, 4, ps.size))  # the whole-step Φ at the outputs
            phases = {}

            def keep(i):
                y[0, 0, i, kc] = P
                y[1, 0, i, kc].real, y[1, 0, i, kc].imag = phi[0, :n], phi[1, :n]
                y[1, 1, i, kc].real, y[1, 1, i, kc].imag = phi[2, :n], phi[3, :n]
                whole[i] = phi[:, n:]

            if slot[-1] >= 0:
                keep(slot[-1])
            chunks, work = _step_chunks(x0.size, k.size)
            for sc in chunks:
                R = _whole_on_samples(*_doubled(pot, x0[sc], H[sc], ik, None, work), n)
                for j, s in enumerate(range(sc.start, sc.stop)):
                    phi = _mul([m[j] for m in R], phi, k2, buf[(s + 1) % 2])
                    P *= _phase(phases, H[s], k[:n])
                    if slot[s] >= 0:
                        keep(slot[s])

            v, u = _minus_start(phi, ik, k2)
            ikn, ikp = ik[:n], ik[n:]
            block = max(1, _ROWS // n)
            for i in range(0, n_out, block):
                rows = slice(i, i + block)
                (hp, hpp), (hm, hmp) = y[:, :, rows, kc]
                c, b, e, t = hm.real, hm.imag, hmp.real, hmp.imag
                f, g = _minus_rows((c, b, e, t), v[:n], u[:n], ikn, k2[:n])
                ph = P / hp
                np.multiply(hp, e + ikn * t, out=hpp)
                hp *= c + ikn * b
                cF, bF, eF, tF = np.moveaxis(whole[rows], 1, 0)
                d = np.abs(c[:, ps] - cF + ikp * (b[:, ps] - bF))
                d += np.abs(e[:, ps] - eF + ikp * (t[:, ps] - tF)) / wp
                err_p = max(err_p, float(d.max(initial=0.0)) / 16.0)
                fF, gF = _minus_rows((cF, bF, eF, tF), v[n:], u[n:], ikp, k2[n:])
                d = np.abs(f[:, ps] - fF) + np.abs(g[:, ps] - gF) / wp
                err_m = max(err_m, float(d.max(initial=0.0)) / 16.0)
                np.multiply(ph, f, out=hm)
                np.multiply(ph, g, out=hmp)
        errs.append((err_p, err_m))

    _in_threads(K, run)
    return y, max(e[0] for e in errs), max(e[1] for e in errs)


def _steps(pot, x_grid, start, stop, lam, g, tol):
    """(x0, H, slot, Magnus step evaluations): the step sequence from start
    to stop, whose edges are the sorted x_grid (inside [start, stop]), start,
    stop and the breakpoints of V between them, and slot as in _march."""
    lo, hi = sorted((start, stop))
    inner = [b for b in pot.breakpoints if lo < b < hi]
    edges = np.unique(np.concatenate([[start, stop], x_grid, inner]))
    pos = np.searchsorted(edges, x_grid)
    if start > stop:
        edges, pos = edges[::-1], edges.size - 1 - pos
    x0, H, seg, evals = _step_sequence(pot, edges, lam, g, tol)
    slot = np.full(x0.size + 1, -1)
    # output i sits at edge pos[i], the end of segment pos[i] − 1 (−1: the start)
    slot[np.searchsorted(seg, pos - 1, side="right") - 1] = np.arange(x_grid.size)
    return x0, H, slot, evals + 3 * x0.size


def _inward(pot, x_grid, ks, side, rtol, atol, x_inf):
    """(h, h′, Magnus step evaluations, error estimate) on the sorted
    x_grid, integrated from side·X∞ inward; ks real, or iκ."""
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    lam = side * 1j * ks  # f′/f at X∞
    g = None
    if not np.any(lam.imag):
        lam = lam.real.copy()
        g = lam
    stop = x_grid[0] if side > 0 else x_grid[-1]
    x0, H, slot, evals = _steps(pot, x_grid, side * x_inf, stop, lam, g, rtol + atol)
    y, err = _march(pot, x0, H, slot, x_grid.size, lam, g)
    return y[0], y[1], evals, err


def _grid(values, name: str) -> np.ndarray:
    """values as a nonempty 1-D float array of finite numbers; ValueError
    naming the input otherwise."""
    a = np.atleast_1d(np.asarray(values, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D grid")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} holds a value that is not finite")
    return a


def _report(pot, x_inf, ks, rtol, atol, evals, err):
    return IntegrationReport(
        cutoff=float(x_inf),
        eta_at_cutoff=float(pot.tail.eta_tail(x_inf)),
        rtol=rtol,
        atol=atol,
        bands=((float(ks[0]), float(ks[-1]), int(evals)),),
        error_estimate=err,
    )


def compute_h_pair(
    pot: Potential,
    x_grid,
    k_grid,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> tuple[JostField, JostField]:
    """(h₊ field, h₋ field): h±(x,k), ∂ₓh±(x,k) on x_grid × |k_grid|, both
    from one march of the fundamental matrix from +X₊ to −X₋ (_march_pair).

    X± is the larger of the grid's edge and the point past which the tail
    mass η±(X±) is below 1e-10.  Only |k| is integrated: h(x,−k) =
    conj h(x,k) for a real potential, so each field holds the distinct |k|
    of k_grid (its k_grid), and h and h′ are the march output with no copy;
    unfold gives the columns of any k < 0.  A grid symmetric about 0 has
    half its nodes marched only when its halves mirror each other bit for
    bit (scattering.scattering_data makes them so).

    h₋'s error estimate adds, to the whole-step comparison, the largest
    gap between the composed h₋ and a one-sided march from −X₋ on the
    _sample k: a witness that does not go through Φ.  ValueError, before
    any march, on an empty or non-finite grid.
    """
    x_grid = np.unique(_grid(x_grid, "x_grid"))
    base = np.unique(np.abs(_grid(k_grid, "k_grid")))
    x_p, x_m = _cutoff(pot, x_grid, +1), _cutoff(pot, x_grid, -1)
    tol = rtol + atol
    x0, H, slot, evals = _steps(pot, x_grid, x_p, -x_m, 1j * base, None, tol)
    y, err_p, err_m = _march_pair(pot, x0, H, slot, x_grid.size, base)

    ps = _sample(base.size)
    h, hp, evals_m, _ = _inward(pot, x_grid, base[ps], -1, rtol, atol, x_m)
    w = np.maximum(base[ps], 1.0)
    gap = np.abs(y[1, 0][:, ps] - h) + np.abs(y[1, 1][:, ps] - hp) / w
    err_m += float(gap.max())

    rep_p = _report(pot, x_p, base, rtol, atol, evals, err_p)
    rep_m = _report(pot, x_m, base, rtol, atol, evals + evals_m, err_m)
    return (
        JostField(+1, x_grid, base, y[0, 0], y[0, 1], rep_p),
        JostField(-1, x_grid, base, y[1, 0], y[1, 1], rep_m),
    )


def compute_h_bound(pot, x_grid, kappas, side, *, rtol=ODE_RTOL, atol=ODE_ATOL):
    """h±(x, iκ) for real κ ≥ 0 (real-valued ODE); returns (h, h') real
    arrays of shape (x, κ).  κ = 0 is the zero-energy equation h″ = V h.
    One side per call, marched from side·X∞ with the growth e^{κ|x|}
    scaled out of the maps.  ValueError, before any march, on a side other
    than ±1, a negative κ, or an empty or non-finite grid."""
    if side not in (+1, -1):
        raise ValueError(f"side must be +1 or -1, not {side!r}")
    kappas = _grid(kappas, "kappas")
    if np.any(kappas < 0.0):
        raise ValueError("kappas must be >= 0")
    x_grid = np.unique(_grid(x_grid, "x_grid"))
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
