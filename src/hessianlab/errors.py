"""Exception types shared across the lab.

Each failure mode that callers are expected to branch on gets its own
class; everything inherits from HessianLabError so scripts can catch
the whole family at once.
"""

__all__ = [
    "HessianLabError", "InvalidArgumentError", "UnsupportedDimensionError", "NotAdmissibleError",
    "InvalidMeasureError", "DegenerateProfileError", "InvalidWeightError", "NoSolutionError",
    "PreconditionError", "ProfileFormatError", "ConfigError",
]


class HessianLabError(Exception):
    pass


class InvalidArgumentError(HessianLabError, ValueError):
    """Arguments outside an operation's documented domain."""


class UnsupportedDimensionError(HessianLabError, ValueError):
    """Quantity requested in a (n, k) regime where it is undefined."""


class NotAdmissibleError(HessianLabError):
    """Profile leaves the admissible cone (negative slope or measure)."""


class InvalidMeasureError(HessianLabError):
    """Measure data with a negative atom or negative density."""


class DegenerateProfileError(HessianLabError):
    """Profile with zero Hessian mass where a normalization needs it."""


class InvalidWeightError(HessianLabError):
    """Orlicz weight whose inverse k-th root integral diverges."""


class NoSolutionError(HessianLabError):
    """Fixed-point solver failed to converge to the requested residual."""


class PreconditionError(HessianLabError):
    """Input data violates a stated hypothesis of the check."""


class ProfileFormatError(HessianLabError):
    """Profile file rejected: wrong schema, version, or field types."""


class ConfigError(HessianLabError):
    """Experiment configuration rejected before any computation ran."""
