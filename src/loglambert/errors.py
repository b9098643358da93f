"""Exception taxonomy shared across the package."""

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
