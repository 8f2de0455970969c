"""Taylor coefficients of the generalized hypergeometric series pFq.

The paper states its closed-form transforms as pFq series (0F0 through 3F2).
The package maps Taylor series term-wise instead and sums none; the tests
build the closed forms from these coefficients as an oracle.
"""

from __future__ import annotations

import sys

from .errors import DomainError
from .qmath import _integer_arg

__all__ = ["pfq_term_coefficients"]

_SNAP = 32.0 * sys.float_info.epsilon


def _term_factor(u: float, n: int) -> float:
    """u + n, snapped to exact 0 within a few ulps of it.

    Parameters a hair away from a negative integer (a rounded reciprocal of
    a rounded difference, typically) then terminate the series exactly
    instead of leaking rounding noise into every later term."""
    v = u + n
    if abs(v) <= _SNAP * max(1.0, abs(u), float(n)):
        return 0.0
    return v


def pfq_term_coefficients(upper: tuple[float, ...], lower: tuple[float, ...], n_max: int) -> list[float]:
    """Taylor coefficients of pFq(upper; lower; z) in z, orders 0..n_max.

    Coefficient n is ``prod (upper)_n / (prod (lower)_n * n!)``, by the exact
    recurrence with no truncation.  DomainError when a lower parameter is zero
    or a negative integer (a coefficient would divide by zero).
    """
    for v in lower:
        if round(v) <= 0 and abs(v - round(v)) <= _SNAP * max(1.0, abs(v)):
            raise DomainError(f"lower parameter {v} is zero or a negative integer")
    n_max = _integer_arg("n_max", n_max, 0)
    coeffs = [1.0]
    c = 1.0
    for n in range(n_max):
        for u in upper:
            c *= _term_factor(u, n)
        for v in lower:
            c /= v + n
        c /= n + 1
        coeffs.append(c)
    return coeffs
