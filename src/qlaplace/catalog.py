"""Catalog of input functions with closed-form deformed transforms.

Seven families: powers t**(m-1), and the deformed exponential, Gaussian,
circular (cos/sin) and hyperbolic (cosh/sinh) functions.  Each deformed
family carries its own deformation parameter ``qprime`` in (0, 1],
independent of the transform's ``q``, and at ``qprime = 1`` it is the
classical function.  The plain names ``Exponential``, ``Gaussian``,
``Cosine``, ``Sine``, ``Cosh`` and ``Sinh`` build that q'=1 member, whose
``kind`` and ``label`` read as the plain name.  Each entry knows how to

* evaluate itself on numpy arrays,
* hand out an exact derivative of any order as a callable,
* expand itself in a Taylor series straight from its defining product
  formulas (used as the independent reference when checking the
  transform/inversion round trip).

Deformed functions of a negative argument use the cutoff convention
(value 0 once the base hits zero); closed-form transforms are quoted for
``s`` large enough that the kernel support stays inside the positivity
domain, where the cutoff is invisible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import DomainError
from .qmath import QParam

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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha}")


def _check_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")


def _masked_power(base, expo: float) -> np.ndarray:
    """base**expo where base > 0, exactly 0 elsewhere (cutoff convention)."""
    b = np.atleast_1d(np.asarray(base, dtype=float))
    out = np.zeros_like(b)
    pos = b > 0.0
    out[pos] = b[pos] ** expo
    return out.reshape(np.shape(base))


def _qexp_power(eps: float, c: float, u, order: int = 0) -> np.ndarray:
    """(1 + eps*c*u)**(1/eps - order), cut to 0 where the base is not
    positive; exp(c*u) at eps = 0."""
    if eps == 0.0:
        return np.exp(c * u)
    return _masked_power(1.0 + eps * c * u, 1.0 / eps - order)


def _qexp_coef(eps: float, c: float, order: int) -> float:
    """c**order * prod_{i<order} (1 - i*eps): the factor in front of
    (1 + eps*c*u)**(1/eps - order) in the order-th u-derivative of q_exp(c*u)."""
    coef = c**order
    for i in range(order):
        coef *= 1.0 - i * eps
    return coef


def _qexp_derivative(eps: float, c: float, u, order: int) -> np.ndarray:
    """The order-th u-derivative of q_exp(c*u)."""
    return _qexp_coef(eps, c, order) * _qexp_power(eps, c, u, order)


_SNAP = 32.0 * float(np.finfo(float).eps)


def _dfactor(j: float, eps_prime: float) -> float:
    """The series step factor 1 - j*(1-q'), snapped to exact 0 within a few
    ulps so that terminating deformed series (integer 1/(1-q')) terminate
    exactly instead of trailing rounding noise.  At q' = 1 it is 1, returned
    without the snap test, which would otherwise dominate classical series."""
    if eps_prime == 0.0:
        return 1.0
    v = 1.0 - j * eps_prime
    if abs(v) <= _SNAP * max(1.0, j * eps_prime):
        return 0.0
    return v


def _qexp_taylor(eps: float, c: float, n_max: int) -> list[float]:
    """Taylor coefficients of q_exp(c*u) in u, up to u**n_max."""
    coeffs = [1.0]
    for n in range(1, n_max + 1):
        coeffs.append(coeffs[-1] * (_dfactor(n - 1, eps) * c / n))
    return coeffs


def _scalar_ok(t, out):
    return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class Monomial:
    """f(t) = t**(power-1), power >= 1."""

    power: int
    kind = "monomial"

    def __post_init__(self) -> None:
        if self.power < 1:
            raise DomainError("monomial power index must be >= 1")

    def __call__(self, t):
        return _scalar_ok(t, np.asarray(t, dtype=float) ** (self.power - 1))

    def derivative(self, order: int) -> Callable:
        deg = self.power - 1
        if order > deg:
            return lambda t: _scalar_ok(t, np.zeros_like(np.asarray(t, dtype=float)))
        coef = math.factorial(deg) / math.factorial(deg - order)

        def d(t):
            return _scalar_ok(t, coef * np.asarray(t, dtype=float) ** (deg - order))

        return d

    def taylor_coefficients(self, n_max: int) -> list[float]:
        coeffs = [0.0] * (n_max + 1)
        if self.power - 1 <= n_max:
            coeffs[self.power - 1] = 1.0
        return coeffs

    @property
    def value_at_zero(self) -> float:
        return 1.0 if self.power == 1 else 0.0

    @property
    def limit_at_infinity(self) -> float | None:
        return 1.0 if self.power == 1 else None

    @property
    def label(self) -> str:
        return f"monomial(m={self.power})"


@dataclass(frozen=True)
class _Family:
    """Fields and naming shared by the deformed families.

    ``_name`` is the classical (q' = 1) name; ``kind`` and ``label`` use it
    at q' = 1 and prefix it with ``q`` otherwise.  Subclasses implement
    ``__call__`` and either ``_eval(t, order)``, the order-th derivative,
    or ``derivative`` itself.
    """

    qprime: QParam
    alpha: float
    _name = ""

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def derivative(self, order: int) -> Callable:
        return lambda t: self._eval(t, order)

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
        _check_sign(self.sign)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        return _scalar_ok(t, _qexp_power(self.qprime.eps, self.sign * self.alpha, arr))

    def _eval(self, t, order: int):
        arr = np.asarray(t, dtype=float)
        return _scalar_ok(t, _qexp_derivative(self.qprime.eps, self.sign * self.alpha, arr, order))

    def taylor_coefficients(self, n_max: int) -> list[float]:
        return _qexp_taylor(self.qprime.eps, self.sign * self.alpha, n_max)

    def _params(self) -> str:
        return f"sign={self.sign:+d}, alpha={self.alpha}"

    @property
    def value_at_zero(self) -> float:
        return 1.0

    @property
    def limit_at_infinity(self) -> float | None:
        return 0.0 if self.sign < 0 else None


class QGaussian(_Family):
    """f(t) = q_exp(qprime, -alpha * t**2), cut to 0 past its zero."""

    _name = "gaussian"

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        return _scalar_ok(t, _qexp_power(self.qprime.eps, -self.alpha, arr**2))

    def derivative(self, order: int) -> Callable:
        # f^(n) = R_n * base**(1/eps' - n) with base = 1 - eps' alpha t**2 and
        # R_{n+1} = R_n' base + (1 - n eps') R_n base'/eps', base'/eps' = -2 alpha t;
        # at eps' = 0 this is the Hermite recurrence R_n' - 2 alpha t R_n.
        e = self.qprime.eps
        base = np.array([1.0, 0.0, -e * self.alpha])
        dbase = np.array([0.0, -2.0 * self.alpha])
        r = np.array([1.0])
        for n in range(order):
            r = npp.polyadd(npp.polymul(npp.polyder(r), base), (1.0 - n * e) * npp.polymul(r, dbase))

        def d(t):
            arr = np.asarray(t, dtype=float)
            return _scalar_ok(t, npp.polyval(arr, r) * _qexp_power(e, -self.alpha, arr**2, order))

        return d

    def taylor_coefficients(self, n_max: int) -> list[float]:
        coeffs = [0.0] * (n_max + 1)
        coeffs[::2] = _qexp_taylor(self.qprime.eps, -self.alpha, n_max // 2)
        return coeffs

    @property
    def value_at_zero(self) -> float:
        return 1.0

    @property
    def limit_at_infinity(self) -> float | None:
        return 0.0


class _Paired(_Family):
    """Even (delta = 0) or odd (delta = 1) member of a circular/hyperbolic
    pair.  ``_square_sign`` is the sign of (i*alpha)**2 or alpha**2 in the
    Taylor step, and ``_classical`` the numpy function of alpha*t at q' = 1."""

    delta = 0
    _square_sign = 1.0
    _classical = np.cosh

    def __call__(self, t):
        if self.qprime.eps == 0.0:
            return _scalar_ok(t, self._classical(self.alpha * np.asarray(t, dtype=float)))
        return self._eval(t, 0)

    def taylor_coefficients(self, n_max: int) -> list[float]:
        coeffs = [0.0] * (n_max + 1)
        e = self.qprime.eps
        g = self.alpha if self.delta else 1.0
        for k in range((n_max - self.delta) // 2 + 1):
            n = 2 * k + self.delta
            if k:
                g *= self._square_sign * _dfactor(n - 2, e) * _dfactor(n - 1, e) * self.alpha**2 / ((n - 1) * n)
            coeffs[n] = g
        return coeffs

    @property
    def value_at_zero(self) -> float:
        return 0.0 if self.delta else 1.0

    @property
    def limit_at_infinity(self) -> float | None:
        return None


class _QTrig(_Paired):
    """Deformed circular functions in polar form.

    With w = (1-q')*alpha*t, a = 1/(1-q'), rho = sqrt(1 + w**2) and
    theta = arctan(w), the deformed exponential of an imaginary argument is
    rho**a * exp(i*a*theta); its real/imaginary parts give the deformed
    cosine (delta = 0) and sine (delta = 1).  Derivatives follow the same
    polar pattern with the modulus exponent lowered by the order.  At
    q' = 1 the modulus is 1 and the phase alpha*t.
    """

    _square_sign = -1.0

    def _eval(self, t, order: int):
        arr = np.asarray(t, dtype=float)
        e = self.qprime.eps
        if e == 0.0:
            angle, scale = self.alpha * arr, self.alpha**order
        else:
            w = e * self.alpha * arr
            a = 1.0 / e - order
            angle, scale = a * np.arctan(w), _qexp_coef(e, self.alpha, order) * np.sqrt(1.0 + w**2) ** a
        if order:
            angle = angle + order * math.pi / 2.0
        circ = np.sin(angle) if self.delta else np.cos(angle)
        return _scalar_ok(t, scale * circ)


class QCosine(_QTrig):
    _name = "cosine"
    _classical = np.cos


class QSine(_QTrig):
    delta = 1
    _name = "sine"
    _classical = np.sin


class _QHyper(_Paired):
    """Deformed hyperbolic functions as even/odd parts of q_exp(+-alpha t).

    Within the series' radius 1/((1-q')*alpha) this matches the
    hypergeometric definition; past the radius the negative branch is cut,
    which closed-form transforms never see (the kernel support stays inside
    the radius for s >= s_min).  At q' = 1 they are cosh/sinh themselves:
    sinh as a difference of exponentials would lose relative accuracy near
    t = 0.
    """

    def _eval(self, t, order: int):
        arr = np.asarray(t, dtype=float)
        e = self.qprime.eps
        if e == 0.0:
            odd = (order + self.delta) % 2 == 1
            return _scalar_ok(t, self.alpha**order * (np.sinh if odd else np.cosh)(self.alpha * arr))
        sgn = -1.0 if self.delta else 1.0
        plus = _qexp_derivative(e, self.alpha, arr, order)
        minus = _qexp_derivative(e, -self.alpha, arr, order)
        return _scalar_ok(t, 0.5 * (plus + sgn * minus))


class QCosh(_QHyper):
    _name = "cosh"


class QSinh(_QHyper):
    delta = 1
    _name = "sinh"
    _classical = np.sinh


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
