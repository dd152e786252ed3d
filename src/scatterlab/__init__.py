"""Numerical laboratory for 1D Schrödinger scattering: Jost solutions,
scattering matrices, transformation kernels, Wiener-algebra diagnostics,
and dispersive decay of e^{−itH}P_ac."""

from .errors import (
    CrossCheckError,
    ResonanceError,
    ScatterlabError,
    TruncationError,
)
from .potentials import Potential, TailBound, catalog, from_spec, load_sampled

__all__ = [
    "Potential",
    "TailBound",
    "catalog",
    "from_spec",
    "load_sampled",
    "ScatterlabError",
    "TruncationError",
    "CrossCheckError",
    "ResonanceError",
    "__version__",
]

__version__ = "0.1.0"
