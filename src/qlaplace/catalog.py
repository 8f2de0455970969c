"""Catalog of input functions with closed-form deformed transforms.

Seven families: powers t**(m-1), and the deformed exponential, Gaussian,
circular (cos/sin) and hyperbolic (cosh/sinh) functions.  Each deformed
family carries its own deformation parameter ``qprime`` in (0, 1],
independent of the transform's ``q``, and at ``qprime = 1`` it is the
classical function.  The plain names ``Exponential``, ``Gaussian``,
``Cosine``, ``Sine``, ``Cosh`` and ``Sinh`` build that q'=1 member, whose
``kind`` and ``label`` read as the plain name.  Each entry is one
evaluator, ``_eval(arr, order)``, its exact order-th derivative on a float
array, behind ``f(t)`` and ``f.derivative(order)``, plus its Taylor series
straight from its defining product formulas (the independent reference when
checking the transform/inversion round trip); every q-exponential series
is the one recurrence `_qexp_taylor`.

Deformed functions of a negative argument use the cutoff convention
(value 0 once the base hits zero); closed-form transforms are quoted for
``s`` large enough that the kernel support stays inside the positivity
domain, where the cutoff is invisible.  Each entry's ``cut`` is the t at
which that domain ends, past which f leaves its Taylor series (inf if it
never does).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, QLaplaceError
from .qmath import QParam, _integer_arg, _q_exp_pow, _real_arg

__all__ = [
    "Monomial",
    "Exponential",
    "QExponential",
    "Gaussian",
    "QGaussian",
    "Cosine",
    "Sine",
    "QCosine",
    "QSine",
    "Cosh",
    "Sinh",
    "QCosh",
    "QSinh",
    "CatalogFunction",
    "CATALOG",
    "make_catalog_function",
]

_CLASSICAL = QParam(1.0)


def _scaled(eps: float, c: float, order: int, x):
    """x times c**order * prod_{i<order} (1 - i*eps), the factor in front of
    q_exp(c*u)**(1 - order*eps) in the order-th u-derivative of q_exp(c*u);
    x itself at order 0, with no array work."""
    if not order:
        return x
    coef = c**order
    for i in range(order):
        coef *= 1.0 - i * eps
    return coef * x


def _qexp_deriv(eps: float, c: float, arr: np.ndarray, order: int):
    """The order-th u-derivative of q_exp(c*u) at u = arr."""
    return _scaled(eps, c, order, _q_exp_pow(eps, c * arr, 1.0 - order * eps))


_SNAP = 32.0 * float(np.finfo(float).eps)


def _qexp_taylor(eps: float, c: float, n_max: int) -> list[float]:
    """Taylor coefficients of q_exp(c*u) in u, up to u**n_max: the one recurrence
    a_n = a_(n-1) * (d_(n-1)*c/n), one running product over its step factors.
    d_j = 1 - j*(1-q') is snapped to exact 0 within a few ulps so that terminating
    deformed series (integer 1/(1-q')) terminate exactly instead of trailing rounding
    noise.  Coefficients past double range come out inf (nan once a zero factor meets
    them), quietly: the transform refuses them."""
    j = np.arange(n_max, dtype=float)
    d = 1.0 - j * eps
    d[np.abs(d) <= _SNAP * np.maximum(1.0, j * eps)] = 0.0
    steps = np.ones(n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        steps[1:] = d * c / (j + 1.0)
        return np.cumprod(steps).tolist()


@functools.lru_cache(maxsize=256)
def _gaussian_factor(eps: float, alpha: float, order: int) -> np.ndarray:
    """Coefficients of R_order, where f^(n) = R_n * base**(1/eps - n) for
    f = q_exp(-alpha t**2) and base = 1 - eps alpha t**2:
    R_{n+1} = R_n' base + (1 - n eps) R_n base'/eps, base'/eps = -2 alpha t;
    at eps = 0 this is the Hermite recurrence R_n' - 2 alpha t R_n."""
    base = np.array([1.0, 0.0, -eps * alpha])
    dbase = np.array([0.0, -2.0 * alpha])
    r = dbase if order else np.ones(1)  # lowest power first; R_1 = base'/eps
    for n in range(1, order):
        r = np.convolve(r[1:] * np.arange(1, len(r)), base) + (1.0 - n * eps) * np.convolve(r, dbase)
    r.flags.writeable = False
    return r


class _Entry:
    """What every catalog entry shares.  An entry defines ``_eval(arr, order)``,
    its order-th derivative on a float array, and ``_taylor(n_max)``, its Taylor
    coefficients up to t**n_max, behind ``taylor_coefficients`` (DomainError
    naming n_max unless it is a whole number >= 0);
    ``f(t)`` is order 0 and ``f.derivative(order)`` any order, both converting
    t once: a scalar t gives a float and an array t a float array of its
    shape.  A scalar t must be finite (DomainError naming it), and a value
    past double range is a QLaplaceError, never a warning or an inf; an array
    t is evaluated as it is (the transform kernel checks its own samples).
    f(0) is the constant Taylor coefficient."""

    limit_at_infinity: float | None = None

    def __call__(self, t):
        return self._value(t, 0)

    def derivative(self, order: int) -> Callable:
        order = _integer_arg("order", order, 0)
        return lambda t: self._value(t, order)

    def _value(self, t, order: int):
        arr = np.asarray(t, dtype=float)
        if arr.ndim:
            return self._eval(arr, order)
        t = _real_arg("t", float(arr), -math.inf)
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, raised below
            out = float(self._eval(arr, order))
        if not math.isfinite(out):
            raise QLaplaceError(f"{self.label} at t = {t} is not finite in double precision")
        return out

    def taylor_coefficients(self, n_max: int) -> list[float]:
        return self._taylor(_integer_arg("n_max", n_max, 0))

    @property
    def value_at_zero(self) -> float:
        return self._taylor(0)[0]


@dataclass(frozen=True)
class Monomial(_Entry):
    """f(t) = t**(power-1), power >= 1."""

    power: int
    kind = "monomial"
    cut = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "power", _integer_arg("power", self.power, 1))

    def _eval(self, arr, order: int):
        deg = self.power - 1
        if order > deg:
            return np.zeros_like(arr)
        out = arr ** (deg - order)
        return float(math.perm(deg, order)) * out if order else out

    def _taylor(self, n_max: int) -> list[float]:
        coeffs = [0.0] * (n_max + 1)
        if self.power - 1 <= n_max:
            coeffs[self.power - 1] = 1.0
        return coeffs

    @property
    def limit_at_infinity(self) -> float | None:
        return 1.0 if self.power == 1 else None

    @property
    def label(self) -> str:
        return f"monomial(m={self.power})"


@dataclass(frozen=True)
class _Family(_Entry):
    """Fields and naming shared by the deformed families.

    ``_name`` is the classical (q' = 1) name; ``kind`` and ``label`` use it
    at q' = 1 and prefix it with ``q`` otherwise.
    """

    qprime: QParam
    alpha: float
    _name = ""
    _cut_power = 0  # p of the branch q_exp(-alpha t**p) that f cuts, 0 if none

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _real_arg("alpha", self.alpha))

    @property
    def cut(self) -> float:
        e = self.qprime.eps * self.alpha
        return e ** (-1.0 / self._cut_power) if e and self._cut_power else math.inf

    def _params(self) -> str:
        return f"alpha={self.alpha}"

    @property
    def kind(self) -> str:
        return self._name if self.qprime.classical else "q" + self._name

    @property
    def label(self) -> str:
        deform = "" if self.qprime.classical else f"q'={self.qprime.q}, "
        return f"{self.kind}({deform}{self._params()})"


@dataclass(frozen=True)
class QExponential(_Family):
    """f(t) = q_exp(qprime, sign * alpha * t), cut to 0 past its zero."""

    sign: int = 1
    _name = "exponential"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sign not in (-1, 1):
            raise DomainError("sign must be +1 or -1")

    def _eval(self, arr, order: int):
        return _qexp_deriv(self.qprime.eps, self.sign * self.alpha, arr, order)

    def _taylor(self, n_max: int) -> list[float]:
        return _qexp_taylor(self.qprime.eps, self.sign * self.alpha, n_max)

    def _params(self) -> str:
        return f"sign={self.sign:+d}, alpha={self.alpha}"

    @property
    def limit_at_infinity(self) -> float | None:
        return 0.0 if self.sign < 0 else None

    @property
    def _cut_power(self) -> int:
        return 1 if self.sign < 0 else 0


class QGaussian(_Family):
    """f(t) = q_exp(qprime, -alpha * t**2), cut to 0 past its zero."""

    _name = "gaussian"
    _cut_power = 2
    limit_at_infinity = 0.0

    def _eval(self, arr, order: int):
        e = self.qprime.eps
        out = _q_exp_pow(e, -self.alpha * arr**2, 1.0 - order * e)
        return np.polyval(_gaussian_factor(e, self.alpha, order)[::-1], arr) * out if order else out

    def _taylor(self, n_max: int) -> list[float]:
        coeffs = [0.0] * (n_max + 1)
        coeffs[::2] = _qexp_taylor(self.qprime.eps, -self.alpha, n_max // 2)
        return coeffs


class _Paired(_Family):
    """Even (delta = 0) or odd (delta = 1) member of a circular/hyperbolic
    pair: the real/imaginary part of q_exp(i*alpha*t), or the even/odd part
    of q_exp(alpha*t).  Either way its Taylor coefficients are those of
    q_exp(alpha*t) on its parity times ``_square_sign``**(n//2), the sign
    of (i*alpha)**2 or alpha**2."""

    delta = 0
    _square_sign = 1.0

    def _taylor(self, n_max: int) -> list[float]:
        a, d = _qexp_taylor(self.qprime.eps, self.alpha, n_max), self.delta
        coeffs = [0.0] * (n_max + 1)
        coeffs[d::2] = a[d::2]
        if self._square_sign < 0:  # (-1)**(n//2): every other term of the parity flips sign
            coeffs[d + 2::4] = [-c for c in a[d + 2::4]]
        return coeffs


class _QTrig(_Paired):
    """Deformed circular functions in polar form.

    With w = (1-q')*alpha*t, a = 1/(1-q'), rho = sqrt(1 + w**2) and
    theta = arctan(w), the deformed exponential of an imaginary argument is
    rho**a * exp(i*a*theta); its real/imaginary parts give the deformed
    cosine (delta = 0) and sine (delta = 1).  Derivatives follow the same
    polar pattern with the modulus exponent lowered by the order.  The
    modulus rho**(a - order) is q_exp((1-q')*(alpha*t)**2)**((1 - order*(1-q'))/2).
    At q' = 1 the modulus is 1 and the phase alpha*t.
    """

    _square_sign = -1.0

    def _eval(self, arr, order: int):
        e, at = self.qprime.eps, self.alpha * arr
        angle = at if e == 0.0 else (1.0 / e - order) * np.arctan(e * at)
        circ = (np.sin if self.delta else np.cos)(angle + order * math.pi / 2.0 if order else angle)
        if e == 0.0:
            return _scaled(e, self.alpha, order, circ)
        return _scaled(e, self.alpha, order, _q_exp_pow(e, e * at**2, (1.0 - order * e) / 2.0)) * circ


class QCosine(_QTrig):
    _name = "cosine"


class QSine(_QTrig):
    delta = 1
    _name = "sine"


class _QHyper(_Paired):
    """Deformed hyperbolic functions as even/odd parts of q_exp(+-alpha t).

    Within the series' radius 1/((1-q')*alpha) this matches the
    hypergeometric definition; past it, at ``cut``, the negative branch is
    cut, so for s >= s_min the kernel support stays short of it even where
    the series terminates (sinh at q' = 1/2 is the one-term alpha*t).  The
    two branches are one `_q_exp_pow` call on the stacked arguments c*t,
    c = +-alpha, so one cutoff test covers both; each is
    `_qexp_deriv(eps, c, t, order)` to the bit.  At q' = 1 they are
    cosh/sinh themselves: sinh as a difference of exponentials would lose
    relative accuracy near t = 0.
    """

    _cut_power = 1

    def _eval(self, arr, order: int):
        e = self.qprime.eps
        if e == 0.0:
            odd = (order + self.delta) % 2 == 1
            return _scaled(e, self.alpha, order, (np.sinh if odd else np.cosh)(self.alpha * arr))
        plus, minus = _q_exp_pow(e, np.multiply.outer((self.alpha, -self.alpha), arr), 1.0 - order * e)
        plus, minus = _scaled(e, self.alpha, order, plus), _scaled(e, -self.alpha, order, minus)
        return 0.5 * (plus - minus if self.delta else plus + minus)


class QCosh(_QHyper):
    _name = "cosh"


class QSinh(_QHyper):
    delta = 1
    _name = "sinh"


def Exponential(alpha: float, sign: int = 1) -> QExponential:
    """f(t) = exp(sign * alpha * t), the q' = 1 member of QExponential."""
    return QExponential(_CLASSICAL, alpha, sign)


def Gaussian(alpha: float) -> QGaussian:
    """f(t) = exp(-alpha * t**2), the q' = 1 member of QGaussian."""
    return QGaussian(_CLASSICAL, alpha)


def Cosine(alpha: float) -> QCosine:
    """f(t) = cos(alpha * t), the q' = 1 member of QCosine."""
    return QCosine(_CLASSICAL, alpha)


def Sine(alpha: float) -> QSine:
    """f(t) = sin(alpha * t), the q' = 1 member of QSine."""
    return QSine(_CLASSICAL, alpha)


def Cosh(alpha: float) -> QCosh:
    """f(t) = cosh(alpha * t), the q' = 1 member of QCosh."""
    return QCosh(_CLASSICAL, alpha)


def Sinh(alpha: float) -> QSinh:
    """f(t) = sinh(alpha * t), the q' = 1 member of QSinh."""
    return QSinh(_CLASSICAL, alpha)


CatalogFunction = Union[Monomial, QExponential, QGaussian, QCosine, QSine, QCosh, QSinh]

CATALOG: dict[str, Callable[..., CatalogFunction]] = {
    fn.__name__.lower(): fn
    for fn in (
        Monomial,
        Exponential,
        QExponential,
        Gaussian,
        QGaussian,
        Cosine,
        Sine,
        QCosine,
        QSine,
        Cosh,
        Sinh,
        QCosh,
        QSinh,
    )
}


def make_catalog_function(
    name: str,
    *,
    m: int | None = None,
    alpha: float | None = None,
    qprime: float | None = None,
    sign: int = 1,
) -> CatalogFunction:
    """Build a catalog entry from CLI-style fields, validating the combination.

    A plain name builds the q' = 1 member of its family and rejects
    ``qprime``; a ``q``-prefixed name requires it.  ``sign`` other than 1 is
    accepted by the two exponentials only.
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in CATALOG:
        raise DomainError(f"unknown catalog function {name!r}; choose from {sorted(CATALOG)}")
    if sign != 1 and key not in ("exponential", "qexponential"):
        raise DomainError(f"{key} takes no sign; only the exponentials do")
    if qprime is not None and not key.startswith("q"):
        raise DomainError(f"{key} takes no qprime; only the q-prefixed families do")
    if key == "monomial":
        if m is None:
            raise DomainError("monomial requires m")
        return Monomial(m)
    if alpha is None:
        raise DomainError(f"{key} requires alpha")
    if key.startswith("q"):
        if qprime is None:
            raise DomainError(f"{key} requires qprime")
        qp = QParam(qprime)
    else:
        qp, key = _CLASSICAL, "q" + key
    family = CATALOG[key]
    return family(qp, alpha, sign) if family is QExponential else family(qp, alpha)
