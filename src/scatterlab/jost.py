"""Jost solutions of −f″ + V f = k² f by inward integration.

The Jost solutions f±(x,k) ~ e^{±ikx} (x → ±∞) are computed through the
slowly varying factors h±(x,k) = e^{∓ikx} f±(x,k), which satisfy

    h″ ± 2ik h′ = V h,     h±(±∞) = 1,  h′±(±∞) = 0.

Working with h removes the free oscillation e^{±ikx} from the state, so the
integrator only has to track the potential-induced structure (plus the
neutrally stable e^{∓2ikx} homogeneous mode, which sets the step size at
large |k|).  Integration starts at a cutoff X∞ where the tail mass
η±(X∞) = ±∫ |V| is below a tolerance and proceeds inward; the k grid is
batched into bands of comparable |k| so that one vectorised solver call
serves many wavenumbers without the largest k forcing tiny steps on all of
them.

Purely imaginary k = iκ reduce to the real equations h″ = V h ± 2κ h′
(compute_h_bound), used for bound-state searches.  k = 0 is the case κ = 0
of the same routine: the genuine real ODE h″ = V h, with no limit taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp

from .errors import CrossCheckError, ResonanceError
from .potentials import Potential, cutoff_for_eta, eta

__all__ = [
    "JostField",
    "IntegrationReport",
    "ZeroEnergyData",
    "ZeroEnergyState",
    "compute_h",
    "compute_h_bound",
    "zero_energy_scan",
    "zero_energy_state",
    "RESONANCE_EPS",
]

ODE_RTOL = 1e-10  # default solver tolerances of every Jost integration
ODE_ATOL = 1e-12
_CUTOFF_TOL = 1e-10  # bound on the tail mass η±(X∞) past the cutoff
RESONANCE_EPS = 1e-6  # |W(0)| below this multiple of the natural scale => resonant
# floor for the resonance scale so V ≡ 0 (all Wronskian terms vanish
# identically) still classifies as resonant
_SCALE_FLOOR = 1e-6

_BAND_EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class IntegrationReport:
    cutoff: float
    eta_at_cutoff: float
    rtol: float
    atol: float
    bands: tuple[tuple[float, float, int], ...]  # (|k| low, |k| high, nfev)


@dataclass(frozen=True)
class JostField:
    """h±(x,k) and ∂ₓh±(x,k) tabulated on an (x, k) grid for one side."""

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

    def f_at_x(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Jost solution f(x,·) and ∂ₓf(x,·) at one grid point."""
        h, hp = self.at_x(x)
        phase = np.exp(self.side * 1j * self.k_grid * x)
        f = phase * h
        fp = phase * (self.side * 1j * self.k_grid * h + hp)
        return f, fp


def _grid_index(grid, value: float, name: str) -> int:
    """Index of the grid point within 1e-9 of value; KeyError otherwise."""
    i = int(np.argmin(np.abs(grid - value)))
    if abs(grid[i] - value) > 1e-9:
        raise KeyError(f"{name}={value} not on the grid")
    return i


def _rhs_factory(pot: Potential, ks: np.ndarray, side: int):
    m = ks.size
    twoik = side * 2j * np.asarray(ks, dtype=complex)

    def rhs(x, z):
        h = z[:m]
        hp = z[m:]
        v = float(pot(x))
        return np.concatenate([hp, v * h - twoik * hp])

    return rhs


def _integrate_batch(pot, x_targets, ks, side, rtol, atol, x_start):
    """March the h-ODE from x_start through x_targets (given in integration
    order), splitting at potential breakpoints.  Returns (h, hp, nfev) with
    arrays of shape (len(x_targets), len(ks))."""
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    m = ks.size
    rhs = _rhs_factory(pot, ks, side)
    x_end = float(x_targets[-1])
    x_start = float(x_start)
    inward = x_end < x_start  # side +
    bps = [b for b in pot.breakpoints if min(x_start, x_end) < b < max(x_start, x_end)]
    bps.sort(reverse=inward)
    edges = [float(x_start)] + bps + [x_end]

    y = np.concatenate([np.ones(m, dtype=complex), np.zeros(m, dtype=complex)])
    out_h = np.empty((len(x_targets), m), dtype=complex)
    out_hp = np.empty_like(out_h)
    pos = 0
    nfev = 0
    for a, b in zip(edges[:-1], edges[1:]):
        take = []
        while pos + len(take) < len(x_targets):
            t = x_targets[pos + len(take)]
            # a target the tolerance admits may sit just past b: clamp it
            if inward and t >= b - 1e-14:
                take.append(max(float(t), b))
            elif not inward and t <= b + 1e-14:
                take.append(min(float(t), b))
            else:
                break
        if abs(b - a) < 1e-15:  # degenerate segment (start on the grid edge)
            for j in range(len(take)):
                out_h[pos + j] = y[:m]
                out_hp[pos + j] = y[m:]
            pos += len(take)
            continue
        t_eval = list(take)
        if not t_eval or abs(t_eval[-1] - b) > 1e-14:
            t_eval.append(b)
        sol = solve_ivp(
            rhs,
            (a, b),
            y,
            method="DOP853",
            t_eval=np.asarray(t_eval),
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise CrossCheckError(f"ODE integration failed on [{a}, {b}]: {sol.message}")
        nfev += sol.nfev
        for j in range(len(take)):
            out_h[pos + j] = sol.y[:m, j]
            out_hp[pos + j] = sol.y[m:, j]
        pos += len(take)
        y = sol.y[:, -1].copy()
    return out_h, out_hp, nfev


def _band_split(kabs: np.ndarray):
    bands = []
    lo = -1.0  # include 0 in the first band
    for hi in _BAND_EDGES:
        sel = np.where((kabs > lo) & (kabs <= hi))[0]
        if sel.size:
            bands.append((max(lo, 0.0), hi, sel))
        lo = hi
    sel = np.where(kabs > lo)[0]
    if sel.size:
        bands.append((lo, float(kabs.max()), sel))
    return bands


def compute_h(
    pot: Potential,
    x_grid,
    k_grid,
    side: int,
    *,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> JostField:
    """Tabulate h±(x,k), ∂ₓh±(x,k) on x_grid × k_grid.

    side is +1 for h₊ (integrated inward from +X∞) and −1 for h₋.  X∞ is
    the larger of the grid's edge and the point past which the tail mass
    η±(X∞) is below 1e-10.  Only |k| is integrated: h(x,−k) = conj h(x,k)
    for a real potential, so k < 0 is filled from k > 0.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    x_grid = np.unique(np.asarray(x_grid, dtype=float))
    k_grid = np.asarray(k_grid, dtype=float)
    if x_grid.size == 0 or k_grid.size == 0:
        raise ValueError("empty grids")

    x_inf = _cutoff(pot, x_grid, side)
    base = np.unique(np.abs(k_grid))

    H = np.empty((x_grid.size, base.size), dtype=complex)
    HP = np.empty_like(H)
    band_info = []
    for lo, hi, sel in _band_split(base):
        H[:, sel], HP[:, sel], nfev = _inward(pot, x_grid, base[sel], side, rtol, atol, x_inf)
        band_info.append((float(lo), float(hi), int(nfev)))

    # scatter back onto the requested k grid
    idx = np.searchsorted(base, np.abs(k_grid))
    h_full = H[:, idx]
    hp_full = HP[:, idx]
    neg = k_grid < 0
    h_full[:, neg] = np.conj(h_full[:, neg])
    hp_full[:, neg] = np.conj(hp_full[:, neg])

    report = IntegrationReport(
        cutoff=float(x_inf),
        eta_at_cutoff=float(pot.tail.eta_tail(x_inf)),
        rtol=rtol,
        atol=atol,
        bands=tuple(band_info),
    )
    return JostField(side, x_grid, k_grid, h_full, hp_full, report)


def compute_h_bound(pot, x_grid, kappas, side, *, rtol=ODE_RTOL, atol=ODE_ATOL):
    """h±(x, iκ) for real κ ≥ 0 (real-valued ODE); returns (h, h') real
    arrays of shape (x, κ).  κ = 0 is the zero-energy equation h″ = V h."""
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    x_grid = np.unique(np.asarray(x_grid, dtype=float))
    x_inf = _cutoff(pot, x_grid, side)
    h, hp, _ = _inward(pot, x_grid, 1j * kappas, side, rtol, atol, x_inf)
    return h.real.copy(), hp.real.copy()


def _cutoff(pot, x_grid, side):
    """Integration start X∞ for a sorted x_grid: past its edge and past the
    point where the tail mass η± falls below _CUTOFF_TOL."""
    edge = x_grid[-1] if side > 0 else -x_grid[0]
    return max(cutoff_for_eta(pot, _CUTOFF_TOL), edge)


def _scan_half_width(pot) -> float:
    """Half width of the symmetric grids that sample whole zero-energy and
    bound-state solutions: the cutoff, and at least 6."""
    return max(cutoff_for_eta(pot, _CUTOFF_TOL), 6.0)


def _inward(pot, x_grid, ks, side, rtol, atol, x_inf):
    """(h, h′, nfev) on the sorted x_grid, integrated from side·X∞ inward."""
    targets = x_grid[::-1] if side > 0 else x_grid
    h, hp, nfev = _integrate_batch(pot, targets, ks, side, rtol, atol, side * x_inf)
    if side > 0:
        return h[::-1], hp[::-1], nfev
    return h, hp, nfev


def _wronskian(two_ik, h_plus, hp_plus, h_minus, hp_minus):
    """W = 2ik h₊h₋ + h₋h′₊ − h′₋h₊ at x = 0 from h± and ∂ₓh± there;
    two_ik is 2ik (0 at k = 0, −2κ at k = iκ)."""
    return two_ik * h_plus * h_minus + h_minus * hp_plus - hp_minus * h_plus


# ---------------------------------------------------------------------------
# zero energy


@dataclass(frozen=True)
class ZeroEnergyData:
    """Both zero-energy Jost solutions on a shared fine grid, with the
    Wronskian W(0), its natural comparison scale, and the proportionality
    ratio γ fitted over |x| <= 2."""

    x_grid: np.ndarray
    h_plus: np.ndarray
    hp_plus: np.ndarray
    h_minus: np.ndarray
    hp_minus: np.ndarray
    w0: float
    scale: float
    gamma: float
    gamma_residual: float

    @property
    def threshold(self) -> float:
        """|W(0)| below this counts as resonant."""
        return RESONANCE_EPS * max(self.scale, _SCALE_FLOOR)

    @property
    def resonant(self) -> bool:
        return abs(self.w0) < self.threshold


@dataclass(frozen=True)
class ZeroEnergyState:
    """Normalised bounded zero-energy solution f₀ (resonant case).

    f₀ = c₊ f₊(·,0) = c₋ f₋(·,0) with c₋ = γ c₊ and c₊ = sqrt(2/(1+γ²)) > 0,
    which realises lim(|f₀(x)|² + |f₀(−x)|²) = 2.
    """

    x_grid: np.ndarray
    f0: np.ndarray
    gamma: float
    c_plus: float
    c_minus: float
    normalization_residual: float
    gamma_residual: float
    ode_residual: float


def zero_energy_scan(
    pot: Potential, *, rtol: float = ODE_RTOL, atol: float = ODE_ATOL
) -> ZeroEnergyData:
    """Solve both k = 0 problems on a symmetric grid of step 0.01."""
    half_width = _scan_half_width(pot)
    n = int(round(2 * half_width / 0.01))
    xg = np.linspace(-half_width, half_width, n + 1)
    hp_, hpp = compute_h_bound(pot, xg, [0.0], +1, rtol=rtol, atol=atol)
    hm_, hmp = compute_h_bound(pot, xg, [0.0], -1, rtol=rtol, atol=atol)
    hp_, hpp, hm_, hmp = hp_[:, 0], hpp[:, 0], hm_[:, 0], hmp[:, 0]
    i0 = int(np.argmin(np.abs(xg)))
    w0 = _wronskian(0.0, hp_[i0], hpp[i0], hm_[i0], hmp[i0])
    scale = (
        abs(hm_[i0] * hpp[i0])
        + abs(hmp[i0] * hp_[i0])
        + eta(pot, 0.0, +1)
        + eta(pot, 0.0, -1)
    )
    win = np.abs(xg) <= 2.0
    denom = float(np.sum(hm_[win] ** 2))
    gamma = float(np.sum(hp_[win] * hm_[win]) / denom)
    gmax = float(np.max(np.abs(hp_[win])))
    gamma_residual = float(np.max(np.abs(hp_[win] - gamma * hm_[win])) / max(gmax, 1e-30))
    return ZeroEnergyData(xg, hp_, hpp, hm_, hmp, float(w0), float(scale), gamma, gamma_residual)


def zero_energy_state(pot: Potential, zed: ZeroEnergyData | None = None) -> ZeroEnergyState:
    """Normalised zero-energy resonance function f₀ (ResonanceError if
    non-resonant).

    zed is the scan the resonance was decided from (classify_resonance
    keeps it in its report), so f₀ comes from the same solutions; without
    it the potential is scanned here at the default tolerances."""
    if zed is None:
        zed = zero_energy_scan(pot)
    if not zed.resonant:
        raise ResonanceError(
            f"{pot.label}: W(0) = {zed.w0:.3e} exceeds the resonance threshold "
            f"{zed.threshold:.3e}"
        )
    gamma = zed.gamma
    c_plus = float(np.sqrt(2.0 / (1.0 + gamma**2)))
    c_minus = gamma * c_plus
    f0 = c_plus * zed.h_plus  # f = h at k = 0
    norm_res = abs(f0[-1] ** 2 + f0[0] ** 2 - 2.0)
    ode_res = max(
        _volterra_residual(pot, zed.x_grid, zed.h_plus, +1),
        _volterra_residual(pot, zed.x_grid, zed.h_minus, -1),
    )
    return ZeroEnergyState(
        x_grid=zed.x_grid,
        f0=f0,
        gamma=gamma,
        c_plus=c_plus,
        c_minus=c_minus,
        normalization_residual=float(norm_res),
        gamma_residual=zed.gamma_residual,
        ode_residual=float(ode_res),
    )


def _volterra_residual(pot, xg, h0, side, probes=(-2.0, 0.0, 2.0)) -> float:
    """Independent check that h(·,0) satisfies its Volterra equation
    h(x) = 1 ± ∫_x^{±∞} (s−x) V(s) h(s) ds, by Simpson quadrature on the
    scan grid (the ODE solver never sees this form)."""
    v = pot(xg)
    worst = 0.0
    for x0 in probes:
        i = int(np.argmin(np.abs(xg - x0)))
        if side > 0:
            s = xg[i:]
            integ = simpson((s - xg[i]) * v[i:] * h0[i:], x=s)
        else:
            s = xg[: i + 1]
            integ = simpson((xg[i] - s) * v[: i + 1] * h0[: i + 1], x=s)
        worst = max(worst, abs(h0[i] - 1.0 - integ))
    return worst
