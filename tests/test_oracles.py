"""High-precision oracles: series derivatives and density-of-states estimates
recomputed term by term in mpmath from the same inputs, and the numeric
forward transform against mpmath quadrature of its defining integral."""

import math
import sys

import pytest

from qlaplace import (
    Cosine,
    Exponential,
    Gaussian,
    IdealGasModel,
    Monomial,
    OscillatorModel,
    QCosh,
    QGaussian,
    QParam,
    QSine,
    Sine,
    WidderConfig,
    catalog_transform,
    density_of_states,
    forward_numeric,
)

mpmath = pytest.importorskip("mpmath")

FAMILIES = (
    Monomial(4),
    Exponential(1.0, -1),
    Exponential(0.7, 1),
    Sine(1.2),
    Cosine(0.8),
    QGaussian(QParam(0.7), 1.0),
    QCosh(QParam(0.6), 0.8),
)


def mp_derivative(F, k, s):
    """(F^(k)(s), sum of |terms|) of the series, at 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        terms = [
            mpmath.mpf(c) * mpmath.rf(n + 1, k) * s ** -(n + k + 1)
            for n, c in enumerate(F.coeffs)
            if c != 0.0
        ]
        return (-1) ** k * mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


@pytest.mark.parametrize("qv", (0.2, 0.6, 0.9))
@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.kind)
def test_derivative_value(qv, f):
    # error measured against the absolute term sum, so that cancellation in
    # alternating series (which no double-precision sum avoids) is not charged
    F = catalog_transform(QParam(qv), f, 60)
    for k in (0, 1, 8, 64):
        for scale in (1.0, 2.0, 5.0):
            s = max(F.s_min, 0.5) * scale
            want, abs_sum = mp_derivative(F, k, s)
            assert abs(F.derivative_value(k, s) - want) <= 1e-12 * abs_sum


def mp_dos_estimate(q, model, E, k, xi_order):
    """(2-q) C Gamma(m+k)/(Gamma(m) k!) s**-(m-1) at s = k*xi/E, with
    q_poly(2-q, n) as the Gamma ratio (1-q)**n Gamma(z+n+1)/Gamma(z+1),
    z = 1/(1-q), at real order n, at 50 digits."""
    with mpmath.workdps(50):
        qm = mpmath.mpf(q.q)
        z = 1 / (1 - qm)

        def q_poly(n):
            n = mpmath.mpf(n)
            return (1 - qm) ** n * mpmath.gamma(z + n + 1) / mpmath.gamma(z + 1)

        m = mpmath.mpf(model.transform_power)
        c = mpmath.exp(model.log_prefactor) / q_poly(m)
        xi = ((2 - qm) / q_poly(xi_order)) ** (1 / (mpmath.mpf(xi_order) - 1))
        s = k * xi / mpmath.mpf(E)
        ratio = mpmath.gamma(m + k) / (mpmath.gamma(m) * mpmath.factorial(k))
        return float((2 - qm) * c * ratio * s ** -(m - 1))


def check_density_of_states(model, fixed_m):
    cfg = WidderConfig((4, 8, 16, 32, 64), fixed_m, extrapolate=False)
    energies = [0.3, 1.0, model.transform_power]
    for qv in (0.1, 0.5, 0.9):
        q = QParam(qv)
        dos = density_of_states(q, model, energies, cfg)
        for E, ests in dos.k_estimates:
            for est in ests:
                want = mp_dos_estimate(q, model, E, est.k, fixed_m or model.transform_power)
                # relative all the way down: pytest.approx's default abs=1e-12
                # would pass any value below 1e-12 (the m = 69.5 model reaches
                # 1e-322); subnormals carry fewer digits, so they are held to
                # the smallest normal double instead
                assert abs(est.value - want) <= 1e-12 * max(abs(want), sys.float_info.min)


@pytest.mark.parametrize(
    "model",
    (IdealGasModel(3, 2), IdealGasModel(2, 7, V=0.7, mass=1.3), OscillatorModel(1, 3),
     OscillatorModel(2, 20, omega=1.7, hbar=0.8)),
    ids=lambda m: f"{type(m).__name__}-{m.D}x{m.N}",
)
@pytest.mark.parametrize("fixed_m", (None, 2, 5))
def test_density_of_states_integer_power(model, fixed_m):
    check_density_of_states(model, fixed_m)


@pytest.mark.parametrize(
    "model",
    (IdealGasModel(1, 5), IdealGasModel(3, 3), IdealGasModel(1, 139, V=1.3)),
    ids=lambda m: f"{type(m).__name__}-{m.D}x{m.N}",
)
@pytest.mark.parametrize("fixed_m", (None, 2, 5))
def test_density_of_states_half_integer_power(model, fixed_m):
    # odd D*N: the ideal-gas transform power D*N/2 is half-integer
    check_density_of_states(model, fixed_m)


# criterion-1 bounds: 1e-8 for the power/exponential families, 1e-6 otherwise
FORWARD_CASES = (
    (Exponential(0.8, 1), lambda t: mpmath.exp(0.8 * t), 1e-8),
    (Exponential(1.3, -1), lambda t: mpmath.exp(-1.3 * t), 1e-8),
    (Gaussian(0.9), lambda t: mpmath.exp(-0.9 * t**2), 1e-6),
    # e_q'(i x) = [1 + (1-q') i x]**(1/(1-q')), straight from the definition
    (QSine(QParam(0.7), 1.1), lambda t: mpmath.im(mpmath.power(1 + 0.3j * 1.1 * t, 1 / mpmath.mpf(0.3))), 1e-6),
)


@pytest.mark.parametrize("f, mp_f, tol", FORWARD_CASES, ids=lambda v: getattr(v, "label", ""))
def test_forward_numeric_against_mpmath_quadrature(f, mp_f, tol):
    q = QParam(0.6)
    for s in (0.5, 1.3, 3.0):
        with mpmath.workdps(30):
            eps, s_mp = 1 - mpmath.mpf(q.q), mpmath.mpf(s)
            t_star = 1 / (eps * s_mp)
            want = mpmath.quad(lambda t: max(1 - eps * s_mp * t, 0) ** (1 / eps) * mp_f(t),
                               mpmath.linspace(0, t_star, 9))
        assert abs(forward_numeric(q, f, s) - float(want)) <= tol * abs(float(want))


@pytest.mark.parametrize(
    "model, energies",
    ((OscillatorModel(1, 180), (170.0, 180.0)), (OscillatorModel(2, 100, omega=3.0), (50.0, 150.0)),
     (IdealGasModel(3, 60, V=2.0), (0.1, 400.0)), (OscillatorModel(1, 3), (0.5, 2.0))),
    ids=lambda v: f"{type(v).__name__}-{v.D}x{v.N}" if hasattr(v, "D") else "",
)
def test_density_of_states_analytic_large_power(model, energies):
    cfg = WidderConfig((4, 8, 16, 32, 64), None, extrapolate=False)
    dos = density_of_states(QParam(0.5), model, energies, cfg)
    m = model.transform_power
    for E in energies:
        with mpmath.workdps(40):
            want = mpmath.exp(model.log_prefactor) * mpmath.mpf(E) ** (m - 1) / mpmath.gamma(m)
        assert float(dos.analytic(E)) == pytest.approx(float(want), rel=1e-12)
