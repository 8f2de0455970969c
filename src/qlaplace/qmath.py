"""Deformed exponential/logarithm and the special-function helpers built on them.

The deformation is controlled by a parameter ``q`` in ``(0, 1]``.  With
``eps = 1 - q`` the deformed exponential is

    q_exp(x) = (1 + eps*x) ** (1/eps)      where 1 + eps*x > 0,
             = 0                           otherwise (cutoff convention),

reducing to ``exp(x)`` at ``q = 1``.  The cutoff branch makes the kernel
``q_exp(-s*t)`` compactly supported on ``[0, 1/(eps*s)]`` for ``q < 1``,
which is what keeps every transform integral in this package finite.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QLaplaceError

__all__ = [
    "QParam",
    "q_exp",
    "q_log",
    "q_product_arg",
    "q_poly",
    "xi_factor",
    "pochhammer",
    "log_gamma",
]


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q with 0 < q <= 1 (q = 1 is the classical limit)."""

    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.q <= 1.0):
            raise DomainError(f"deformation parameter must satisfy 0 < q <= 1, got {self.q}")

    @property
    def eps(self) -> float:
        """1 - q, the deviation from the classical limit."""
        return 1.0 - self.q

    @property
    def classical(self) -> bool:
        return self.q == 1.0


def q_exp(q: QParam, x):
    """Deformed exponential with cutoff; accepts scalars or numpy arrays.

    Returns ``(1 + (1-q)x)**(1/(1-q))`` where the base is positive and 0
    where it is not.  Total function: no domain errors.
    """
    if q.classical:
        return np.exp(x) if np.ndim(x) else math.exp(x)
    base = np.maximum(1.0 + q.eps * np.asarray(x, dtype=float), 0.0)
    out = base ** (1.0 / q.eps)
    return out if np.ndim(x) else float(out)

def q_log(q: QParam, x):
    """Deformed logarithm ``(x**(1-q) - 1)/(1-q)``, inverse of q_exp for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("q_log requires x > 0")
    if q.classical:
        out = np.log(arr)
    else:
        out = np.expm1(q.eps * np.log(arr)) / q.eps
    return out if np.ndim(x) else float(out)


def q_product_arg(q: QParam, x: float, y: float) -> float:
    """Combined argument satisfying q_exp(x)*q_exp(y) = q_exp(x (+) y).

    The combination rule is ``x + y + (1-q)*x*y``; it reduces to plain
    addition at q = 1.  Valid as a factorization of q_exp only while all
    three arguments stay above the cutoff.
    """
    return x + y + q.eps * x * y


def q_poly(q_arg: float, m: int) -> float:
    """Product polynomial ``prod_{j=1..m} (1 - (1 - q_arg)*j)``; 1 for m = 0.

    Evaluated at ``q_arg = 2 - q`` this is the normalization constant that
    appears in every closed-form transform of a power ``t**(m-1)``.
    """
    if m < 0:
        raise DomainError("q_poly requires m >= 0")
    out = 1.0
    c = 1.0 - q_arg
    for j in range(1, m + 1):
        out *= 1.0 - c * j
    return out


def _log_q_poly_real(q_arg: float, m: float) -> float:
    """log of the gamma-ratio continuation of q_poly to real order m >= 0, for
    ``q_arg >= 1`` (the ``2 - q`` regime), where it agrees with the log of the
    integer product; finite at orders where q_poly itself overflows."""
    if m < 0:
        raise DomainError("order must be nonnegative")
    d = q_arg - 1.0
    if d == 0.0:
        return 0.0
    if d < 0.0:
        raise DomainError("real-order continuation requires q_arg >= 1")
    z = 1.0 / d
    return m * math.log(d) + math.lgamma(z + m + 1.0) - math.lgamma(z + 1.0)


def _q_poly_real(q_arg: float, m: float) -> float:
    """Gamma-ratio continuation of q_poly to real order m >= 0 (may overflow)."""
    return math.exp(_log_q_poly_real(q_arg, m))


def xi_factor(q: QParam, m: int) -> float:
    """Argument-scaling factor for the deformed Post-Widder limit.

    Defined by ``xi**(m-1) = (2-q) / q_poly(2-q, m)``; equals 1 at q = 1.
    Undefined for m < 2 (the exponent 1/(m-1) degenerates).
    """
    if m < 2:
        raise DomainError("xi_factor requires m >= 2")
    if q.classical:
        return 1.0
    return ((2.0 - q.q) / q_poly(2.0 - q.q, m)) ** (1.0 / (m - 1))


def _xi_factor_real(q: QParam, m: float) -> float:
    """xi_factor continued to real m >= 2 via the gamma-ratio q_poly."""
    if m < 2:
        raise DomainError("xi_factor requires m >= 2")
    if q.classical:
        return 1.0
    return math.exp((math.log(2.0 - q.q) - _log_q_poly_real(2.0 - q.q, m)) / (m - 1.0))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial ``(x)_n = x (x+1) ... (x+n-1)``, with ``(x)_0 = 1``."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


@functools.lru_cache(maxsize=1024)
def _log_power_map(eps: float, bits: int) -> np.ndarray:
    """Read-only table of log(n!/q_poly(2-q, n+1)) for n < 2**bits, eps = 1-q:
    the transform maps t**n to n!/q_poly(2-q, n+1) * s**-(n+1).  At q = 1 it
    is log(n!).  Cached per (q, size), bounded so a scan over many q stays small."""
    orders = np.arange(1.0, (1 << bits) + 1.0)
    table = np.array([math.lgamma(n) for n in orders]) - np.cumsum(np.log1p(eps * orders))
    table.flags.writeable = False
    return table


def _power_map(q: QParam, coeffs, inverse: bool = False) -> np.ndarray:
    """Transform coefficients c_n = a_n * n!/q_poly(2-q, n+1) of Taylor
    coefficients a_n, or with ``inverse`` the a_n of the c_n, term by term in
    log magnitude: finite wherever the exact value is (n! overflows past
    n = 170); zeros stay zero and non-finite inputs non-finite."""
    x = np.asarray(coeffs, dtype=float)
    log_map = _log_power_map(q.eps, len(x).bit_length())[: len(x)]
    with np.errstate(divide="ignore", over="ignore"):
        return np.sign(x) * np.exp(np.log(np.abs(x)) + (-log_map if inverse else log_map))


def _log_term_sum(log_w: np.ndarray, sign: np.ndarray, powers: np.ndarray, x, what: str) -> np.ndarray:
    """The package's one series evaluator: sum_n sign_n * exp(log_w[..., n] +
    powers_n * log x), one row per x > 0 (checked by the caller), each term in
    log magnitude (-inf is a zero term); QLaplaceError naming ``what`` on overflow."""
    log_x = np.log(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * np.ndim(log_w))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (np.exp(log_w + log_x * powers) * sign).sum(axis=-1)
    if not np.all(np.isfinite(sums)):
        raise QLaplaceError(f"{what} overflows double precision despite log-domain handling")
    return sums


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Thin wrapper over the C library implementation, which is accurate to
    well beyond 12 significant digits on (0, 200].
    """
    if x <= 0.0:
        raise DomainError("log_gamma requires x > 0")
    return math.lgamma(x)
