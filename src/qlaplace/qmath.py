"""Deformed exponential/logarithm and the special-function helpers built on them.

The deformation is controlled by a parameter ``q`` in ``(0, 1]``.  With
``eps = 1 - q`` the deformed exponential is

    q_exp(x) = (1 + eps*x) ** (1/eps)      where 1 + eps*x > 0,
             = 0                           otherwise (cutoff convention),

reducing to ``exp(x)`` at ``q = 1``.  The cutoff branch makes the kernel
``q_exp(-s*t)`` compactly supported on ``[0, 1/(eps*s)]`` for ``q < 1``,
which is what keeps every transform integral in this package finite.
Every power of it in the package, the kernel and its s-derivative, the
catalog's deformed functions and their derivatives, the Boltzmann weight
and the Widder weight, is one body, `_q_exp_u(u, a)`, which takes the
scaled argument u = eps*x and a = p/eps, forms ``exp(a*log1p(u))`` and
holds the one cutoff test, and so stays exact to rounding as q -> 1.
`_q_exp_pow(eps, x, p)` is u = eps*x, then that body (exp(p*x) at eps = 0);
the catalog's deformed families form their own u = ((1-q')*c)*t**p with one
product and call the body directly, and the deformed circular modulus, whose
u = w*w is never negative, uses its formula without the cutoff test.  The
kernel-pair integrand, a product of two powers, is the same form with both
logs in one exponent (`transform.kernel_pair_integral`).

The power-series helpers live here too: the power map, the one series type,
`PowerSeries`, the one series evaluator, `_log_term_sum`, that sums both of its
views, and the one validity rule, `_radius`, behind `s_min` and `t_max`.  The
series path hands float arrays along; ``PowerSeries.coeffs`` is the one place
it makes a tuple, and the log form beside it is what the power map's inverse
(`inverse.series_invert`) and every evaluation read.

Everything here is a pure function of its arguments and safe to call
concurrently; a series holds its coefficients and nothing that an evaluation
changes, and each evaluation builds its row from the cached tables
(`_log_power_map`, `_log_q_poly`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, QLaplaceError

__all__ = [
    "QParam",
    "q_exp",
    "q_log",
    "q_product_arg",
    "q_poly",
    "xi_factor",
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


def _q_exp_u(u, a: float):
    """The body of every deformed power: (1 + u)**a, formed as exp(a*log1p(u)), at the scaled
    argument u = (1-q)*x and a = p/(1-q), which is q_exp(x)**p.  Exactly 0 at and past the cutoff
    1 + u <= 0 whatever the sign of a, nan at a nan, and quiet (no RuntimeWarning) at both.  u is
    an array of any shape or a numpy scalar, and the result has its shape."""
    # only a sample at or past the cutoff (or a nan) pays for an errstate block, which costs
    # as much as the rest of a 45-node kernel call; argmin is a fifth of the cost of min()
    if not u.size or u.item(u.argmin()) > -1.0:
        return np.exp(np.log1p(u) * a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u <= -1.0, 0.0, np.exp(np.log1p(u) * a))


def _q_exp_pow(eps: float, x, p: float = 1.0):
    """q_exp(x)**p at eps = 1-q: u = eps*x, then `_q_exp_u`, so that no rounded base 1 + eps*x is
    raised to 1/eps (that loses 1e-16/eps relative); exp(p*x) at eps = 0.  A scalar x gives a
    float, an array an array."""
    arr = np.asarray(x, dtype=float)
    if eps == 0.0:
        out = np.exp(arr if p == 1.0 else p * arr)  # 1.0 * x is x, bit for bit
    else:
        out = _q_exp_u(eps * arr, p / eps)
    return out if arr.ndim else float(out)


def q_exp(q: QParam, x):
    """Deformed exponential with cutoff; accepts scalars or numpy arrays.

    Returns ``(1 + (1-q)x)**(1/(1-q))`` where the base is positive and 0
    where it is not, to rounding as q -> 1 (`_q_exp_pow`).  Total function:
    no domain errors.
    """
    return _q_exp_pow(q.eps, x)


def q_log(q: QParam, x):
    """Deformed logarithm ``(x**(1-q) - 1)/(1-q)``, inverse of q_exp for finite x > 0."""
    arr = _real_arg("x", x, arrays=True)
    if q.classical:
        out = np.log(arr)
    else:
        out = np.expm1(q.eps * np.log(arr)) / q.eps
    return out if np.ndim(arr) else float(out)


def q_product_arg(q: QParam, x: float, y: float) -> float:
    """Combined argument satisfying q_exp(x)*q_exp(y) = q_exp(x (+) y).

    The combination rule is ``x + y + (1-q)*x*y``; it reduces to plain
    addition at q = 1.  Valid as a factorization of q_exp only while all
    three arguments stay above the cutoff.
    """
    return x + y + q.eps * x * y


def _integer_arg(name: str, value, low: int) -> int:
    """value as an int; DomainError naming the argument unless it is a whole number >= low."""
    if not (float(value).is_integer() and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {name} = {value}")
    return int(value)


def _real_arg(name: str, value, low: float = 0.0, closed: bool = False, arrays: bool = False):
    """value as a float, or with ``arrays`` a float array for an array; DomainError naming the
    argument and its first bad entry unless every entry is finite and > low (>= low when
    ``closed``), and naming its shape for an array of ndim >= 1 without ``arrays`` (a 0-d array
    is a scalar)."""
    if isinstance(value, (float, int)):  # a plain number is checked without array work
        bad = float(value)
        if (low <= bad if closed else low < bad) and bad < math.inf:
            return bad
    else:
        arr = np.asarray(value, dtype=float)
        if arr.ndim and not arrays:
            raise DomainError(f"{name} must be a scalar, got an array of shape {arr.shape}")
        inside = ((arr >= low) if closed else (arr > low)) & (arr < math.inf)
        if inside.all():
            return arr if arrays else float(arr)
        bad = float(arr[~inside].flat[0])
    if low == -math.inf:
        rule = "finite"
    elif low == 0.0:
        rule = "finite and " + ("nonnegative" if closed else "positive")
    else:
        rule = f"finite and {'>=' if closed else '>'} {low:g}"
    raise DomainError(f"{name} must be {rule}, got {name} = {bad}")


def _grid_arg(name: str, value) -> np.ndarray:
    """value as a nonempty 1-D float array, a scalar as a one-point grid, each entry finite and
    positive (`_real_arg`); DomainError naming the argument and its shape otherwise."""
    arr = np.atleast_1d(_real_arg(name, value, arrays=True))
    if arr.ndim > 1 or not arr.size:
        raise DomainError(f"{name} must be a scalar or a nonempty 1-D grid, got an array of shape {arr.shape}")
    return arr


def q_poly(q_arg: float, m: int) -> float:
    """Product polynomial ``prod_{j=1..m} (1 - (1 - q_arg)*j)``; 1 for m = 0.

    Evaluated at ``q_arg = 2 - q`` this is the normalization constant that
    appears in every closed-form transform of a power ``t**(m-1)``.
    """
    m = _integer_arg("m", m, 0)
    out = 1.0
    c = 1.0 - q_arg
    for j in range(1, m + 1):
        out *= 1.0 - c * j
    return out


@functools.lru_cache(maxsize=64)
def _tricomi_erdelyi(f: float) -> tuple[float, ...]:
    """a_20 .. a_1 (np.polyval order) of log(Gamma(x+1+f)/(Gamma(x+1) x**f)) ~ sum_n a_n x**-n,
    a_n = (-1)**(n+1) (B_{n+1}(1+f) - B_{n+1}(1))/(n(n+1)) (Tricomi & Erdelyi, Pacific J. Math.
    1, 1951), exact in rationals from the Bernoulli numbers b (B_1 = -1/2) and rounded once."""
    b = [Fraction(1)]
    for n in range(1, 21):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    x = 1 + Fraction(f)
    return tuple(float((-1) ** (n + 1) * sum(math.comb(n + 1, j) * b[j] * x ** (n + 1 - j) for j in range(n + 1))
                       / (n * (n + 1))) for n in range(20, 0, -1))


@functools.lru_cache(maxsize=1024)
def _log_q_poly(eps: tuple[float, ...], p0: float, n: int) -> np.ndarray:
    """The package's one q_poly routine: read-only table of log q_poly(2-q, p0+i), a row per
    eps = 1-q >= 0 and a column per i < n, at real p0 >= 0 via the continuation
    (1-q)**m Gamma(1/(1-q)+m+1)/Gamma(1/(1-q)+1).  At eps = 1/k it is log R(k, p0+i),
    R(k, p) = Gamma(k+p+1)/(Gamma(k+1) k**p), the finite-k Post-Widder factor.  Free of
    cancellation: a running log1p(eps*(f+j)) sum up from the fractional part f of p0, where
    log q_poly(2-q, f) = f log1p(eps N) - sum_{j<=N} log1p(f eps/(1+eps j)) + sum_n a_n u**n
    (_tricomi_erdelyi) at u = eps/(1+eps N), N shifting 1/eps up to at least 8."""
    if not (0.0 <= p0 and p0 + n <= 1 << 23 and min(eps) >= 0.0):  # 8M orders: 64 MB a row
        raise DomainError(f"q_poly tables need orders in [0, 2**23] and 1-q >= 0, got {p0}+{n} and {min(eps)}")
    e = np.asarray(eps, dtype=float)[:, None]
    f, lead = p0 % 1.0, int(p0 // 1.0)
    table = np.zeros((len(eps), lead + n))
    np.cumsum(np.log1p(e * (f + np.arange(1, lead + n))), axis=1, out=table[:, 1:])
    if f:
        shift = np.ceil(8.0 - 1.0 / np.maximum(e, 0.125))
        j = np.arange(1.0, shift.max() + 1.0)
        steps = np.where(j <= shift, np.log1p(f * e / (1.0 + e * j)), 0.0).sum(axis=1, keepdims=True)
        u = e / (1.0 + e * shift)
        table += f * np.log1p(e * shift) - steps + u * np.polyval(_tricomi_erdelyi(f), u)
    table = np.ascontiguousarray(table[:, lead:])
    table.flags.writeable = False
    return table


def xi_factor(q: QParam, m: float) -> float:
    """Argument-scaling factor for the deformed Post-Widder limit, at real m >= 2: defined by
    ``xi**(m-1) = (2-q) / q_poly(2-q, m)``, in log form from `_log_q_poly` (finite where
    q_poly overflows); 1 at q = 1, undefined for m < 2 (the exponent 1/(m-1) degenerates)."""
    m = _real_arg("m", m, 2.0, closed=True)
    return math.exp((math.log(2.0 - q.q) - _log_q_poly((q.eps,), m, 1)[0, 0]) / (m - 1.0))


@functools.lru_cache(maxsize=1024)
def _log_power_map(eps: float, bits: int) -> np.ndarray:
    """Read-only table of log(n!/q_poly(2-q, n+1)) for n < 2**bits, eps = 1-q:
    the transform maps t**n to n!/q_poly(2-q, n+1) * s**-(n+1).  At q = 1 it
    is log(n!).  Cached per (q, size), bounded so a scan over many q stays small."""
    table = np.array([math.lgamma(n) for n in range(1, (1 << bits) + 1)]) - _log_q_poly((eps,), 1.0, 1 << bits)[0]
    table.flags.writeable = False
    return table


def _power_map(q: QParam, coeffs) -> np.ndarray:
    """Transform coefficients c_n = a_n * n!/q_poly(2-q, n+1) of Taylor
    coefficients a_n, term by term in log magnitude: finite wherever the exact
    value is (n! overflows past n = 170); zeros stay zero (+0.0) and non-finite
    inputs non-finite.  A float array is read as it is, with no copy."""
    x = np.asarray(coeffs, dtype=float)
    log_map = _log_power_map(q.eps, len(x).bit_length())[: len(x)]
    with np.errstate(divide="ignore", over="ignore"):
        return np.sign(x) * np.exp(np.log(np.abs(x)) + log_map)


_TAIL = 1e-13  # a truncated series' last term, relative to its first, that may be dropped


def _radius(n: np.ndarray, log_x: np.ndarray, length: int) -> float:
    """The one validity rule: the largest |y| at which sum_n x_n y**n, a series of ``length``
    slots, may be used, from the indices n0 < ... < nL of its nonzero terms and their log|x_n|.
    r_i = (log|x_n0| - log|x_ni|)/(n_i - n0) is a root-test estimate of log(radius)
    (Cauchy-Hadamard).  One term is exact everywhere (inf); else half the root-test radius of
    the upper half of the terms (n_i >= nL // 2), and for a truncated series (not ending
    before its last two slots) at most the y where the last term falls to _TAIL of the first."""
    if len(n) <= 1:
        return math.inf
    r = (log_x[0] - log_x[1:]) / (n[1:] - n[0])
    with np.errstate(over="ignore"):
        half = float(np.exp(r[n[1:] >= n[-1] // 2].min())) / 2.0
        if n[-1] < length - 2:
            return half
        return float(min(half, np.exp(r[-1]) * _TAIL ** (1.0 / (n[-1] - n[0]))))


def _log_term_sum(log_w: np.ndarray, sign: np.ndarray, powers: np.ndarray, x, what: str) -> np.ndarray:
    """The package's one series evaluator: sum_n sign_n * exp(log_w[..., n] +
    powers_n * log x), one row per x > 0 (checked by the caller), each term in
    log magnitude (-inf is a zero term); QLaplaceError naming ``what`` on overflow.
    A float x takes the scalar path, one sum per row of log_w with no array work on x."""
    if isinstance(x, float):
        exponent = log_w + np.log(x) * powers
    else:
        log_x = np.log(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * np.ndim(log_w))
        exponent = log_w + log_x * powers
    # with every exponent below 709 - log(n), each of the n terms is below e**709 / n and
    # their sum below e**709 < DBL_MAX: only past that (or at a nan) can a sum leave double range
    if not exponent.size or exponent.item(exponent.argmax()) < 709.0 - math.log(exponent.shape[-1]):
        np.exp(exponent, out=exponent)
        exponent *= sign
        return np.add.reduce(exponent, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (np.exp(exponent) * sign).sum(axis=-1)
    if not np.all(np.isfinite(sums)):
        raise QLaplaceError(f"{what} overflows double precision despite log-domain handling")
    return sums


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients x_n, checked once for the two views, `transform.PowerSeriesTransform` and
    `inverse.TaylorSeries`, each naming itself by ``_kind``; ``_log_form`` is what `_log_term_sum`
    sums (nonzero n, log|x_n|, signs) and ``radius`` the `_radius` of it, cached on first read.
    An evaluation builds its row (log_w, sign, powers) from ``_log_form`` and sums it: the
    instance holds nothing that an evaluation changes."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if not len(c):
            raise DomainError(f"empty {self._kind} series")
        n = c.nonzero()[0]
        cn = c[n]
        log_c = np.log(np.abs(cn))
        if len(n) and not log_c.item(log_c.argmax()) < math.inf:  # argmax finds an inf or the first nan
            i = int(np.flatnonzero(~np.isfinite(c))[0])
            raise QLaplaceError(f"{self._kind} coefficient c_{i} = {c[i]} is not finite")
        object.__setattr__(self, "coeffs", tuple(c.tolist()))
        object.__setattr__(self, "_log_form", (n, log_c, np.sign(cn)))

    @functools.cached_property
    def radius(self) -> float:
        return _radius(*self._log_form[:2], len(self.coeffs))
