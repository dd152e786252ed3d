"""Exception types shared across the package."""


class ScatterlabError(Exception):
    """Base class for all scatterlab failures."""


class TruncationError(ScatterlabError):
    """A tail-truncation tolerance could not be met."""


class CrossCheckError(ScatterlabError):
    """An internal consistency cross-check exceeded its tolerance."""


class ResonanceError(ScatterlabError):
    """A resonant-only operation was invoked on non-resonant data (or vice versa)."""
