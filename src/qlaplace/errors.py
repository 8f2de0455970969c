"""Exception hierarchy shared by all qlaplace modules: QLaplaceError, DomainError, QuadratureError."""

__all__ = ["QLaplaceError", "DomainError", "QuadratureError"]


class QLaplaceError(Exception):
    """Base class for all library errors."""


class DomainError(QLaplaceError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(QLaplaceError):
    """Adaptive integration could not meet the requested tolerance."""
