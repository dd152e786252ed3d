"""Panel quadrature for integrals with the quadratic phase e^{−i(tk²−bk)}.

Completing the square with u = k − b/(2t) and w = e^{iπ/4}√t (so w² = it)
gives closed panel moments through the error function along the 45° ray,

    ∫ e^{−i(tk²−bk)} dk       = e^{ib²/(4t)} √π/(2w) · erf(wu) + const,
    ∫ k e^{−i(tk²−bk)} dk     = e^{ib²/(4t)} e^{−itu²}/(−2it) + (b/2t)·(above),

so a piecewise-linear amplitude integrates exactly panel by panel.  The
rule needs no t-dependent grid refinement: accuracy is set only by how
well straight segments follow the amplitude.  On the 45° ray erf stays
bounded (|e^{−(wu)²}| = 1), so large t·k² is safe.

Nested uniform node sets need one weight vector only, on the finest set:
a hat function of every second node is a piecewise-linear function on the
finer nodes (1 at its own node, ½ at its two neighbours), so the coarser
weights follow by full-weighting restriction (_restrict), with no further
erf evaluation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "full_line_integral",
    "fresnel_weights",
    "quad_quadratic_phase",
    "truncation_tail",
]


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
    h = np.diff(k)
    # a subnormal gap overflows 1/h in the weights
    if np.any(h < np.finfo(float).tiny):
        raise ValueError("nodes must increase by at least the smallest normal double")

    u = k - b / (2.0 * t)
    w45 = np.exp(0.25j * np.pi) * np.sqrt(t)
    pref = np.exp(1j * b * b / (4.0 * t))
    m0 = pref * (np.sqrt(np.pi) / (2.0 * w45)) * np.diff(erf(w45 * u))
    m1 = pref * np.diff(np.exp(-1j * t * u * u)) / (-2j * t) + (b / (2.0 * t)) * m0

    wgt = np.zeros(k.size, dtype=complex)
    wgt[:-1] += (k[1:] * m0 - m1) / h
    wgt[1:] += (m1 - k[:-1] * m0) / h
    return wgt


def _restrict(w: np.ndarray) -> np.ndarray:
    """Weights on every second node of a uniform node set from the weights
    on all of them: w_c[J] = w[2J] + ½(w[2J−1] + w[2J+1]), one-sided at the
    ends.  Exact for weights of any rule that is exact on piecewise-linear
    amplitudes, such as fresnel_weights."""
    if w.size % 2 == 0:
        raise ValueError("restriction needs an odd number of nodes")
    out = w[::2].copy()
    out[:-1] += 0.5 * w[1::2]
    out[1:] += 0.5 * w[1::2]
    return out


def quad_quadratic_phase(k_grid, amplitude, t: float, b: float):
    """∫ e^{−i(tk²−bk)} A(k) dk with A sampled on k_grid; amplitude may be
    a vector or a stack of rows (integration along the last axis)."""
    wgt = fresnel_weights(k_grid, t, b)
    amp = np.asarray(amplitude)
    if amp.shape[-1] != wgt.size:
        raise ValueError("amplitude and node count differ")
    return amp @ wgt


def truncation_tail(amp_left: float, amp_right: float, t: float, b: float, k_max: float) -> float:
    """First integration by parts bounds the |k| > k_max remainder of an
    amplitude decaying at the ends by |A(±K)| / |φ'(±K)| per side."""
    slope = 2.0 * t * k_max - abs(b)
    if slope <= 0.0:
        raise ValueError("phase not monotone beyond the cut: enlarge k_max")
    return (abs(amp_left) + abs(amp_right)) / slope
