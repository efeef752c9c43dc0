"""Exception types shared across the package, and its two argument rules.

The CLI maps these onto exit codes: validation problems exit 2,
bracket/resource exhaustion exits 3, anything else exits 1.

Every count the package takes (a dimension, a radius or side, a walk
length, a replica count, a cap, a pair value) passes ``count``, and every
setting that must be a positive real (a horizon, tol, lambda_max, theta)
passes ``positive``; each refusal names the argument.
"""
import math
import numbers


class TwoStageError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(TwoStageError, ValueError):
    """A numeric or structural argument violates a precondition."""


class DomainError(TwoStageError, ValueError):
    """A site, path or configuration lies outside the declared domain."""


class BracketError(TwoStageError, RuntimeError):
    """A root bracket for the critical-rate search could not be established."""


class ResourceError(TwoStageError, RuntimeError):
    """A requested exact computation exceeds the configured size limits."""


def count(name: str, value, minimum: int) -> int:
    """value as a Python int; refuses a non-integer (numpy integers pass) or one below minimum."""
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def positive(name: str, value) -> float:
    """value as a float; refuses anything but a positive finite real (a NaN included)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return float(value)
