"""Closed-form references the benchmark checks the program against.

The Pöschl–Teller evolution kernel is derived here; the Jost factors,
transmission coefficients and square-well bound states come from the
test suite's oracles (``tests/oracles.py``), imported, not copied.

Pöschl–Teller kernel (V = −2 sech² x).  For x ≤ y let b = y − x,
p = tanh x, q = tanh y, α = pq − 1 and β = i(q − p).  Then

    h₊(y,k) h₋(x,k) T(k) − 1 = (α + βk)/(k² + 1) = A/(k − i) + B/(k + i),
    A = (α + iβ)/(2i),  B = −(α − iβ)/(2i),

and, with w the Faddeeva function,

    ∫ e^{−i(tk² − bk)}/(k ∓ i) dk = ±iπ e^{ib²/4t} w(e^{iπ/4}√t (i ∓ b/2t)),

so pac = [√(π/(it)) e^{ib²/4t} + A·J₊ + B·J₋]/2π, and subtracting the
threshold projection f₀(x)f₀(y)/√(4πit) with f₀ = tanh gives
G = pac − pq/√(4πit).  The program integrates only |k| ≤ k_max, so the
comparison also sees that truncation tail.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import wofz

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    pt_h_minus,
    pt_h_plus,
    pt_transmission,
    square_well_bound_states,
    square_well_f_plus,
    square_well_scattering,
)


def digits(err: float) -> float:
    """−log10 of an error, capped at double precision for an exact match;
    0 for an error that is not a finite number."""
    err = float(err)
    if not math.isfinite(err):
        return 0.0
    return -math.log10(max(err, 1e-17))


def _pole_integral(t: float, b, sign: int):
    u = b / (2.0 * t)
    return (
        sign * 1j * np.pi * np.exp(1j * b * b / (4.0 * t))
        * wofz(np.exp(0.25j * np.pi) * np.sqrt(t) * (1j - sign * u))
    )


def pt_g_kernel(x, y, t: float) -> np.ndarray:
    """G(x,y,t) for Pöschl–Teller, broadcasting over x and y."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    b = hi - lo
    p, q = np.tanh(lo), np.tanh(hi)
    alpha, beta = p * q - 1.0, 1j * (q - p)
    amp_plus = (alpha + 1j * beta) / 2j
    amp_minus = -(alpha - 1j * beta) / 2j
    free = np.sqrt(np.pi / (1j * t)) * np.exp(1j * b * b / (4.0 * t))
    pac = (free + amp_plus * _pole_integral(t, b, +1) + amp_minus * _pole_integral(t, b, -1)) / (
        2.0 * np.pi
    )
    return pac - p * q / np.sqrt(4j * np.pi * t)


def weights(x_grid, sigma: float) -> np.ndarray:
    return (1.0 + np.abs(np.asarray(x_grid, dtype=float))) ** (-sigma)


def pt_weighted_norms(x_grid, times, sigma: float) -> np.ndarray:
    """sup over the grid of (1+|x|)^−σ |G(x,y,t)| (1+|y|)^−σ, per time."""
    x = np.asarray(x_grid, dtype=float)
    w = weights(x, sigma)
    return np.array(
        [np.max(w[:, None] * np.abs(pt_g_kernel(x[:, None], x[None, :], t)) * w[None, :]) for t in times]
    )


def fit_exponent(times, norms) -> float:
    """−slope of the least-squares line through (log t, log norm)."""
    return float(-np.polyfit(np.log(times), np.log(norms), 1)[0])


def h_exact(potential: dict, side: int, x_grid, k_grid) -> np.ndarray:
    """h±(x,k) on x_grid × k_grid (square well: k ≠ 0 columns only)."""
    x = np.asarray(x_grid, dtype=float)
    k = np.asarray(k_grid, dtype=float)
    if potential["name"] == "poeschl_teller":
        fn = pt_h_plus if side > 0 else pt_h_minus
        return fn(x[:, None], k[None, :])
    v0, a = potential["params"]["v0"], potential["params"]["a"]
    out = np.full((x.size, k.size), np.nan, dtype=complex)
    # even well: f₋(x,k) = f₊(−x,k), and h± = e^{∓ikx} f±
    xs = x if side > 0 else -x
    for j, kj in enumerate(k):
        if kj != 0.0:
            f, _ = square_well_f_plus(v0, a, xs, kj)
            out[:, j] = np.exp(-side * 1j * kj * x) * f
    return out


def sw_scattering(potential: dict, k_grid):
    """(T, R₊, R₋) of the square well at real k ≠ 0."""
    p = potential["params"]
    return square_well_scattering(p["v0"], p["a"], np.asarray(k_grid, dtype=float))


def t_exact(potential: dict, k_grid) -> np.ndarray:
    """T(k) of Pöschl–Teller or of the square well (k ≠ 0)."""
    if potential["name"] == "poeschl_teller":
        return pt_transmission(np.asarray(k_grid, dtype=float))
    return sw_scattering(potential, k_grid)[0]


def sw_kappas(potential: dict) -> list[float]:
    p = potential["params"]
    return square_well_bound_states(p["v0"], p["a"])
