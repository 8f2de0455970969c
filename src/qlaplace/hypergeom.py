"""Generalized hypergeometric series pFq by direct term recurrence.

Covers the parameter instances of the paper's closed-form transforms of
the catalog: 0F0 through 3F2, real parameters, real argument (the tests sum
them as an oracle for the term-wise series).  Plain forward summation only;
callers keep the argument inside the convergence domain (|z| <= 1/2).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = ["PFQParams", "SeriesControl", "pfq", "pfq_term_coefficients"]

_SNAP = 32.0 * sys.float_info.epsilon


def _is_nonpositive_integer(x: float) -> bool:
    r = round(x)
    return r <= 0 and abs(x - r) <= _SNAP * max(1.0, abs(x))


def _term_factor(u: float, n: int) -> float:
    """u + n, snapped to exact 0 within a few ulps of it.

    Parameters a hair away from a negative integer (a rounded reciprocal of
    a rounded difference, typically) then terminate the series exactly
    instead of leaking rounding noise into every later term."""
    v = u + n
    if abs(v) <= _SNAP * max(1.0, abs(u), float(n)):
        return 0.0
    return v


@dataclass(frozen=True)
class PFQParams:
    """Parameter set (upper; lower; argument) of a pFq series.

    Rejected at construction when a lower parameter is zero or a negative
    integer (a series term would divide by zero) or when there are more
    than ``len(lower) + 1`` upper parameters (divergent for any nonzero
    argument).
    """

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    argument: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(float(u) for u in self.upper))
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        for v in self.lower:
            if _is_nonpositive_integer(v):
                raise DomainError(f"lower parameter {v} is zero or a negative integer")
        if len(self.upper) > len(self.lower) + 1:
            raise DomainError(
                f"{len(self.upper)}F{len(self.lower)} diverges for nonzero argument"
            )

    @property
    def terminates(self) -> bool:
        """True when some upper parameter is a nonpositive integer."""
        return any(_is_nonpositive_integer(u) for u in self.upper)

    @property
    def on_unit_disk_boundary_class(self) -> bool:
        """True for the |z| < 1 family (one more upper than lower parameter)."""
        return len(self.upper) == len(self.lower) + 1


@dataclass(frozen=True)
class SeriesControl:
    rel_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0:
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


def pfq(params: PFQParams, ctl: SeriesControl = SeriesControl()) -> float:
    """Sum the series by the term recurrence
    ``t_{n+1} = t_n * prod(upper + n) / prod(lower + n) * z / (n + 1)``.

    Stops once three consecutive terms fall below ``rel_tol * |sum|``; the
    three-in-a-row rule guards against false stops in alternating series.
    Raises ConvergenceError if the term budget runs out, or immediately for
    the |z| < 1 family evaluated at |z| >= 1 (unless the series terminates).
    """
    z = params.argument
    if (
        params.on_unit_disk_boundary_class
        and abs(z) >= 1.0
        and z != 0.0
        and not params.terminates
    ):
        raise ConvergenceError(
            f"series of type {len(params.upper)}F{len(params.lower)} requires |argument| < 1, "
            f"got {z}"
        )
    term = 1.0
    total = 1.0
    small_streak = 0
    for n in range(ctl.max_terms):
        for u in params.upper:
            term *= _term_factor(u, n)
        for v in params.lower:
            term /= v + n
        term *= z / (n + 1)
        total += term
        if abs(term) <= ctl.rel_tol * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"pFq did not converge within {ctl.max_terms} terms (argument {z})"
    )


def pfq_term_coefficients(params: PFQParams, n_max: int) -> list[float]:
    """Taylor coefficients of the series in its argument, orders 0..n_max.

    Exact recurrence, no truncation heuristics; ``params.argument`` is not
    consulted.  Coefficient n is ``prod (upper)_n / (prod (lower)_n * n!)``.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    coeffs = [1.0]
    c = 1.0
    for n in range(n_max):
        for u in params.upper:
            c *= _term_factor(u, n)
        for v in params.lower:
            c /= v + n
        c /= n + 1
        coeffs.append(c)
    return coeffs
