"""The paper's closed forms as pFq series: the tests' oracle for the
term-wise transform route of `qlaplace.transform.catalog_transform`.

Each non-power family transforms to prefactor * s**-(offset+1) * pFq(upper;
lower; zfac/s**stride), so its 1/s coefficients come from the pFq term
coefficients and never from the family's Taylor series.
"""

from __future__ import annotations

import math

from qlaplace import (
    Cosh,
    Cosine,
    Exponential,
    Gaussian,
    Monomial,
    PowerSeriesTransform,
    QCosh,
    QCosine,
    QExponential,
    QGaussian,
    QSine,
    QSinh,
    Sine,
    Sinh,
)
from qlaplace.errors import DomainError
from qlaplace.hypergeom import pfq_term_coefficients
from qlaplace.qmath import QParam, q_poly


def _pfq_recipe(q: QParam, f):
    """Hypergeometric data (upper, lower, zfac, stride, offset, prefactor)
    for the closed-form transform of each non-monomial catalog family.

    ``zfac`` is the s-free part of the series argument: the argument at s
    is ``zfac / s**stride``.
    """
    eps = q.eps
    b = 1.0 / eps + 2.0
    q1 = q_poly(2.0 - q.q, 1)
    q2 = q_poly(2.0 - q.q, 2)
    kind = f.kind
    if kind == "exponential":
        return [1.0], [b], f.sign * f.alpha / eps, 1, 0, 1.0 / q1
    if kind == "qexponential":
        ap = 1.0 / f.qprime.eps
        zfac = -f.sign * f.qprime.eps * f.alpha / eps
        return [1.0, -ap], [b], zfac, 1, 0, 1.0 / q1
    if kind == "gaussian":
        return [1.0, 0.5], [b / 2.0, (b + 1.0) / 2.0], -f.alpha / eps**2, 2, 0, 1.0 / q1
    if kind == "qgaussian":
        ap = 1.0 / f.qprime.eps
        zfac = f.qprime.eps * f.alpha / eps**2
        return [1.0, 0.5, -ap], [b / 2.0, (b + 1.0) / 2.0], zfac, 2, 0, 1.0 / q1
    if kind in ("cosine", "cosh"):
        zfac = f.alpha**2 / (4.0 * eps**2)
        if kind == "cosine":
            zfac = -zfac
        return [1.0], [b / 2.0, (b + 1.0) / 2.0], zfac, 2, 0, 1.0 / q1
    if kind in ("sine", "sinh"):
        zfac = f.alpha**2 / (4.0 * eps**2)
        if kind == "sine":
            zfac = -zfac
        return [1.0], [(b + 1.0) / 2.0, (b + 2.0) / 2.0], zfac, 2, 1, f.alpha / q2
    if kind in ("qcosine", "qcosh"):
        ap = 1.0 / f.qprime.eps
        zfac = (f.qprime.eps * f.alpha / eps) ** 2
        if kind == "qcosine":
            zfac = -zfac
        upper = [1.0, -ap / 2.0, (1.0 - ap) / 2.0]
        return upper, [b / 2.0, (b + 1.0) / 2.0], zfac, 2, 0, 1.0 / q1
    if kind in ("qsine", "qsinh"):
        ap = 1.0 / f.qprime.eps
        zfac = (f.qprime.eps * f.alpha / eps) ** 2
        if kind == "qsine":
            zfac = -zfac
        upper = [1.0, (1.0 - ap) / 2.0, (2.0 - ap) / 2.0]
        return upper, [(b + 1.0) / 2.0, (b + 2.0) / 2.0], zfac, 2, 1, f.alpha / q2
    raise DomainError(f"no closed-form transform recipe for {kind!r}")


def pfq_series(q: QParam, f, n_terms: int = 40) -> PowerSeriesTransform:
    """The closed form of f's transform as an ``n_terms`` 1/s series (a power
    t**(m-1) gives its single coefficient Gamma(m)/q_poly(2-q, m))."""
    if isinstance(f, Monomial):
        m = f.power
        coeffs = [0.0] * m
        coeffs[m - 1] = math.exp(math.lgamma(m)) / q_poly(2.0 - q.q, m)
        return PowerSeriesTransform(tuple(coeffs), q)

    upper, lower, zfac, stride, offset, prefac = _pfq_recipe(q, f)
    n_pfq = max(0, (n_terms - 1 - offset) // stride)
    base = pfq_term_coefficients(tuple(upper), tuple(lower), n_pfq)
    coeffs = [0.0] * n_terms
    zpow = 1.0
    for n, cn in enumerate(base):
        idx = offset + stride * n
        if idx >= n_terms:
            break
        coeffs[idx] = prefac * cn * zpow
        zpow *= zfac
    return PowerSeriesTransform(tuple(coeffs), q)


_QP = QParam(0.7)

# The 13 catalog names, with both signs of the two exponentials.
CATALOG_SPECS = (
    Monomial(3),
    Exponential(0.8, 1),
    Exponential(0.8, -1),
    QExponential(_QP, 0.8, 1),
    QExponential(_QP, 0.8, -1),
    Gaussian(0.9),
    QGaussian(_QP, 0.9),
    Cosine(1.1),
    Sine(1.1),
    QCosine(_QP, 1.1),
    QSine(_QP, 1.1),
    Cosh(0.7),
    Sinh(0.7),
    QCosh(_QP, 0.7),
    QSinh(_QP, 0.7),
)
