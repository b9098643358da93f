"""Exception taxonomy shared across the package, the one rule for its public numbers, and
the one rule for e^z past the double range: _exp gives inf, and each caller names its RangeError."""

import math
import sys

__all__ = ["LogLambertError", "DomainError", "SingularityError", "ConvergenceError",
           "NoSolutionError", "UnsupportedCaseError", "IntegrationError", "RangeError"]


class LogLambertError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LogLambertError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityError(LogLambertError, ArithmeticError):
    """Evaluation requested exactly at (or too close to) a singular point."""


class ConvergenceError(LogLambertError, RuntimeError):
    """An iteration exhausted its budget without meeting its tolerance."""


class NoSolutionError(LogLambertError):
    """A root the parameter regime promises does not exist numerically."""


class UnsupportedCaseError(LogLambertError):
    """The parameters give a seam count the catalog does not build (three for b > 0)."""


class IntegrationError(LogLambertError):
    """A quadrature tail or tolerance criterion could not be satisfied."""


class RangeError(LogLambertError, OverflowError):
    """A result leaves the double range."""


# The double range: its least normal and largest finite double, and their logs
# (e^L is a normal double for _LOG_DBL_MIN <= L <= _LOG_DBL_MAX).  An e^z that may
# leave it is taken by _exp, whose inf the caller turns into its own RangeError.
_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max
_LOG_DBL_MIN, _LOG_DBL_MAX = math.log(_DBL_MIN), math.log(_DBL_MAX)


def _exp(z):
    # e^z, or inf where math.exp raises OverflowError.
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _real(name, v):
    # v as a float: itself, or float(v) for a numbers.Real or a Decimal; else a DomainError.
    if type(v) is float:
        return v
    from numbers import Complex, Number, Real  # here, so that `import loglambert` skips it
    try:
        if isinstance(v, Real) or isinstance(v, Number) and not isinstance(v, Complex):
            return float(v)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got a value past the double range") from None
    except ValueError:  # a signalling NaN
        pass
    raise DomainError(f"{name} must be a real number, got {v!r}")


def _finite(name, values):
    # A tuple of finite floats, named `name` or each by its own; a finite sum vouches for floats.
    try:
        values = tuple(values)
    except TypeError:
        raise DomainError(f"{name} must be a sequence, got {values!r}") from None
    for v in values:
        if type(v) is not float:
            break
    else:
        if math.isfinite(sum(values, 0.0)):
            return values
    names = (name,) * len(values) if type(name) is str else name
    for name, v in zip(names, values := tuple(map(_real, names, values))):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    return values
