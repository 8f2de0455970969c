"""High-precision oracles: series derivatives and density-of-states estimates
recomputed term by term in mpmath from the same inputs, and the numeric
forward transform against mpmath quadrature of its defining integral."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlaplace import (
    Cosh,
    Cosine,
    Exponential,
    Gaussian,
    IdealGasModel,
    Monomial,
    OscillatorModel,
    QCosh,
    QCosine,
    QExponential,
    QGaussian,
    QParam,
    QSine,
    QSinh,
    Sine,
    WidderConfig,
    catalog_transform,
    density_of_states,
    forward_numeric,
    q_exp,
    widder_weight,
)
from qlaplace.qmath import _q_exp_pow

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


def mp_dos_estimate(q, model, E, k):
    """(2-q) C Gamma(m+k)/(Gamma(m) k!) s**-(m-1) at s = k*xi/E, xi at order m, with
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
        xi = ((2 - qm) / q_poly(m)) ** (1 / (m - 1))
        s = k * xi / mpmath.mpf(E)
        ratio = mpmath.gamma(m + k) / (mpmath.gamma(m) * mpmath.factorial(k))
        return float((2 - qm) * c * ratio * s ** -(m - 1))


def check_density_of_states(model):
    cfg = WidderConfig((4, 8, 16, 32, 64), extrapolate=False)
    energies = [0.3, 1.0, model.transform_power]
    for qv in (0.1, 0.5, 0.9):
        q = QParam(qv)
        dos = density_of_states(q, model, energies, cfg)
        for E, ests in dos.k_estimates:
            for est in ests:
                want = mp_dos_estimate(q, model, E, est.k)
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
def test_density_of_states_integer_power(model):
    check_density_of_states(model)


@pytest.mark.parametrize(
    "model",
    (IdealGasModel(1, 5), IdealGasModel(3, 3), IdealGasModel(1, 139, V=1.3)),
    ids=lambda m: f"{type(m).__name__}-{m.D}x{m.N}",
)
def test_density_of_states_half_integer_power(model):
    # odd D*N: the ideal-gas transform power D*N/2 is half-integer
    check_density_of_states(model)


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


def mp_q_exp_pow(eps, x, p):
    """q_exp(x)**p at eps = 1-q from the float inputs, exactly: mpmath at 40 digits."""
    with mpmath.workdps(40):
        base = 1 + mpmath.mpf(eps) * mpmath.mpf(x)
        return base ** (mpmath.mpf(p) / mpmath.mpf(eps)) if base > 0 else mpmath.mpf(0)


@pytest.mark.parametrize("eps", (0.7, 0.3, 1e-3, 1e-9, 2.0**-52))
def test_q_exp_pow_against_mpmath(eps):
    # p = 1 (q_exp), 1 - order*eps (the catalog derivatives), 2q - 3 (the kernel pair) and -1;
    # a relative change d in x moves q_exp(x)**p by |p x|/(1 + eps x) d: the tolerance scales with that
    xs = np.linspace(-min(0.9 / eps, 40.0), 40.0, 41)
    for p in (1.0, 1.0 - eps, 1.0 - 3.0 * eps, 2.0 * (1.0 - eps) - 3.0, -1.0):
        got = _q_exp_pow(eps, xs, p)
        for x, g in zip(xs.tolist(), got.tolist()):
            want = float(mp_q_exp_pow(eps, x, p))
            cond = abs(p * x) / (1.0 + eps * x)
            assert abs(g - want) <= 2e-15 * (1.0 + cond) * want, (eps, p, x, g, want)
            assert _q_exp_pow(eps, x, p) == pytest.approx(g, rel=1e-15)  # a scalar gives a float too


@pytest.mark.parametrize("p", (1.0, 0.5, -1.0, -3.5))
@pytest.mark.parametrize("eps", (0.5, 0.25, 2.0**-20))
def test_q_exp_pow_is_zero_at_and_past_the_cutoff(eps, p):
    dead = [-1.0 / eps, -(1.0 + 2.0**-40) / eps, -2.0 / eps, -1e300, -math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in dead:
            assert _q_exp_pow(eps, x, p) == 0.0
        mixed = _q_exp_pow(eps, np.array([[dead[0], 0.0], [dead[2], -0.5]]), p)
        assert mixed.shape == (2, 2)
        assert mixed[0, 0] == mixed[1, 0] == 0.0 and mixed[0, 1] == 1.0
        assert mixed[1, 1] == pytest.approx(float(mp_q_exp_pow(eps, -0.5, p)), rel=1e-14)
        assert math.isnan(_q_exp_pow(eps, math.nan, p))
    assert np.geterr()["divide"] == "warn"  # the errstate block is left behind


def test_q_exp_pow_classical():
    xs = np.array([-700.0, -3.0, 0.0, 0.7, 50.0])
    for p in (1.0, -1.0, 0.5):
        assert np.array_equal(_q_exp_pow(0.0, xs, p), np.exp(p * xs))
        assert _q_exp_pow(0.0, 0.7, p) == math.exp(p * 0.7)
    assert isinstance(_q_exp_pow(0.0, 1.0), float) and isinstance(_q_exp_pow(0.5, 1.0), float)
    assert isinstance(_q_exp_pow(0.5, np.array([1.0])), np.ndarray)


def mp_forward_near_classical(q, mp_f, s):
    """30-digit integral of exp(log1p(-(1-q) s t)/(1-q)) f(t), exp(-s t) f(t) at q = 1; the
    kernel stays below exp(-s t), so past t = 90/s the integrand is below exp(-90) f(t) and is
    left out."""
    with mpmath.workdps(30):
        eps, s_mp = 1 - mpmath.mpf(q.q), mpmath.mpf(s)
        top = min(1 / (eps * s_mp), 90 / s_mp) if eps else 90 / s_mp

        def kernel(t):
            if not eps:
                return mpmath.exp(-s_mp * t)
            return mpmath.exp(mpmath.log1p(-eps * s_mp * t) / eps) if eps * s_mp * t < 1 else 0

        return float(mpmath.quad(lambda t: kernel(t) * mp_f(t), mpmath.linspace(0, top, 31)))


NEAR_CLASSICAL_CASES = (
    (Exponential(1.0, -1), lambda t: mpmath.exp(-t)),
    (Cosine(1.0), mpmath.cos),
    (Sine(2.0), lambda t: mpmath.sin(2 * t)),
)


@pytest.mark.parametrize("eps", (0.5, 1e-4, 1e-8, 1e-10, 1e-12, 1e-14, 2.2e-16, 0.0))
@pytest.mark.parametrize("f, mp_f", NEAR_CLASSICAL_CASES, ids=lambda v: getattr(v, "label", ""))
def test_forward_numeric_near_classical(eps, f, mp_f):
    # the kernel has no staircase from a rounded base, and one substitution spans its support
    # at every q, the half line at q = 1 included
    q = QParam(1.0 - eps)
    for s in (0.7, 1.5, 4.0):
        want = mp_forward_near_classical(q, mp_f, s)
        assert abs(forward_numeric(q, f, s) - want) <= 1e-13 * abs(want), s


@pytest.mark.parametrize(
    "eps, f, mp_f",
    (
        (1e-12, Cosh(0.5), lambda t: mpmath.cosh(t / 2)),
        (1e-9, Exponential(0.5, 1), lambda t: mpmath.exp(t / 2)),
        (1e-9, lambda t: math.exp(t / 2), lambda t: mpmath.exp(t / 2)),  # scalar-only callable
    ),
    ids=("cosh", "exponential", "scalar-exp"),
)
def test_forward_numeric_growing_integrand_near_classical(eps, f, mp_f):
    # f overflows far out on the support, where the kernel has underflowed to 0: f is
    # evaluated only where the kernel is nonzero
    q = QParam(1.0 - eps)
    want = mp_forward_near_classical(q, mp_f, 2.0)
    assert abs(forward_numeric(q, f, 2.0) - want) <= 1e-13 * abs(want)


@given(
    log_eps=st.floats(min_value=-15.0, max_value=-3.0),
    family=st.sampled_from(("exponential", "cosine", "sine", "gaussian", "monomial")),
    alpha=st.floats(min_value=0.3, max_value=3.0),
    s=st.floats(min_value=0.5, max_value=3.0),
    x=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_q_to_1_property(log_eps, family, alpha, s, x):
    q = QParam(1.0 - 10.0**log_eps)
    f, mp_f, tol = {
        "exponential": (Exponential(alpha, -1), lambda t: mpmath.exp(-alpha * t), 1e-8),
        "cosine": (Cosine(alpha), lambda t: mpmath.cos(alpha * t), 1e-6),
        "sine": (Sine(alpha), lambda t: mpmath.sin(alpha * t), 1e-6),
        "gaussian": (Gaussian(alpha), lambda t: mpmath.exp(-alpha * t**2), 1e-6),
        "monomial": (Monomial(1 + int(alpha)), lambda t: t ** int(alpha), 1e-8),
    }[family]
    want = mp_forward_near_classical(q, mp_f, s)
    assert abs(forward_numeric(q, f, s) - want) <= tol * abs(want)
    assert abs(q_exp(q, x) - float(mp_q_exp_pow(q.eps, x, 1.0))) <= 1e-15 * (1.0 + abs(x)) * q_exp(q, x)


@pytest.mark.parametrize("eps", (1e-8, 1e-12, 1e-15))
def test_catalog_near_classical(eps):
    # the deformed families straight from their definitions at q' -> 1: the values that
    # forward_numeric integrates when it serves as the series' oracle
    qp, t = QParam(1.0 - eps), np.linspace(0.0, 3.0, 13)
    e = mpmath.mpf(qp.eps)

    def qe(z):
        return mpmath.power(1 + e * z, 1 / e)

    cases = (
        (QExponential(qp, 1.3, 1), lambda u: qe(1.3 * u)),
        (QExponential(qp, 1.3, -1), lambda u: qe(-1.3 * u)),
        (QGaussian(qp, 0.8), lambda u: qe(-0.8 * u**2)),
        (QCosine(qp, 1.3), lambda u: mpmath.re(qe(1.3j * u))),
        (QSine(qp, 1.3), lambda u: mpmath.im(qe(1.3j * u))),
        (QCosh(qp, 1.3), lambda u: (qe(1.3 * u) + qe(-1.3 * u)) / 2),
        (QSinh(qp, 1.3), lambda u: (qe(1.3 * u) - qe(-1.3 * u)) / 2),
    )
    for f, mp_f in cases:
        got = f(t)
        with mpmath.workdps(40):
            want = [float(mp_f(mpmath.mpf(u))) for u in t.tolist()]
        for u, g, w in zip(t.tolist(), got.tolist(), want):
            assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (f.label, u, g, w)


@pytest.mark.parametrize("eps", (0.5, 1e-3, 1e-9, 1e-14))
def test_widder_weight_against_mpmath(eps):
    q = QParam(1.0 - eps)
    for k in (1, 4, 64):
        ys = np.linspace(0.0, min(3.0, 0.999 / (q.eps * k)), 16)
        got = widder_weight(q, k, ys)
        for y, g in zip(ys.tolist(), got.tolist()):
            with mpmath.workdps(40):
                want = float(mpmath.mpf(y) ** k * mp_q_exp_pow(q.eps, -k * y, 1.0 - q.eps * k))
            assert abs(g - want) <= 1e-13 * k * (1.0 + k * y) * want, (eps, k, y, g, want)


def mp_qexp_deriv(e, c, t, k):
    """d^k/dt^k q_exp(c*t) = c**k prod_{j<k} (1 - j e) (1 + e c t)**(1/e - k), c real or complex,
    0 past a real cutoff; mpmath in the caller's precision."""
    coef = mpmath.mpf(1)
    for j in range(k):
        coef *= 1 - j * e
    base = 1 + e * c * t
    if not isinstance(base, mpmath.mpc) and base <= 0:
        return mpmath.mpf(0)
    return c**k * coef * base ** (1 / e - k)


def mp_deformed_deriv(f, t, k):
    """(order-k derivative of the deformed family f at t, its envelope) from the definitions:
    |q_exp(i alpha t)|'s derivative modulus for the q-trig pair, the mean of the two branch
    moduli for the q-hyperbolic pair, the sum of the Faa di Bruno term moduli of
    q_exp(-alpha t**2) for the q-Gaussian, and the value itself for the q-exponential."""
    e, a, t = mpmath.mpf(f.qprime.eps), mpmath.mpf(f.alpha), mpmath.mpf(t)
    if isinstance(f, QExponential):
        v = mp_qexp_deriv(e, f.sign * a, t, k)
        return v, abs(v)
    if isinstance(f, (QCosine, QSine)):
        z = mp_qexp_deriv(e, mpmath.mpc(0, a), t, k)
        return (mpmath.im(z) if f.delta else mpmath.re(z)), abs(z)
    if isinstance(f, (QCosh, QSinh)):
        plus, minus = mp_qexp_deriv(e, a, t, k), mp_qexp_deriv(e, -a, t, k)
        return (plus - minus if f.delta else plus + minus) / 2, (abs(plus) + abs(minus)) / 2
    # Faa di Bruno with h = -alpha t**2: only h' = -2 alpha t and h'' = -2 alpha are nonzero
    terms = [mpmath.factorial(k) / (mpmath.factorial(k - 2 * m) * mpmath.factorial(m) * 2**m)
             * (-2 * a * t) ** (k - 2 * m) * (-2 * a) ** m * mp_qexp_deriv(e, 1, -a * t * t, k - m)
             for m in range(k // 2 + 1)]
    return mpmath.fsum(terms), mpmath.fsum(abs(x) for x in terms)


# worst envelope-relative error over orders 0-4, the q' below and t in [0, min(0.95 cut, 8)]
# (17 points), measured before the deformed families moved to the scaled argument u: 5.2e-15,
# 1.7e-15, 2.7e-15, 5.9e-15, 2.6e-14, 2.7e-15, 5.2e-15 in the order below; the bounds are those
# worst cases with a margin of about 1.5 for other numpy builds' log1p, exp and arctan
DEFORMED_BOUNDS = (
    pytest.param(lambda qp: QCosh(qp, 1.3), 8e-15, id="qcosh"),
    pytest.param(lambda qp: QCosine(qp, 1.3), 3e-15, id="qcosine"),
    pytest.param(lambda qp: QExponential(qp, 1.3, 1), 4e-15, id="qexponential+"),
    pytest.param(lambda qp: QExponential(qp, 1.3, -1), 9e-15, id="qexponential-"),
    pytest.param(lambda qp: QGaussian(qp, 1.3), 4e-14, id="qgaussian"),
    pytest.param(lambda qp: QSine(qp, 1.3), 4e-15, id="qsine"),
    pytest.param(lambda qp: QSinh(qp, 1.3), 8e-15, id="qsinh"),
)


@pytest.mark.parametrize("make, bound", DEFORMED_BOUNDS)
def test_deformed_families_against_mpmath(make, bound):
    for qpv in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
        f = make(QParam(qpv))
        t = np.linspace(0.0, min(0.95 * f.cut, 8.0), 17)
        for order in range(5):
            got = f.derivative(order)(t)
            for x, g in zip(t.tolist(), got.tolist()):
                with mpmath.workdps(40):
                    want, envelope = mp_deformed_deriv(f, x, order)
                    err = float(abs(g - want) / envelope) if envelope else abs(g)
                assert err <= bound, (f.label, order, x, g, float(want), err)


@pytest.mark.parametrize("cls", (QCosh, QSinh), ids=("qcosh", "qsinh"))
def test_deformed_hyperbolic_near_zero_against_mpmath(cls):
    # relative to the value itself, where the difference of the two branches is ~alpha t and the
    # envelope ~1: worst measured 7.5e-16 (q' = 1-1e-9, t = 1e-300, orders 1 and 4), against a
    # value of 0.0 at t = 1e-300 and 2e-4 at t = 1e-12 when the difference was formed from the
    # two branch values; the oracle works at 330 digits, past the 1 + 1e-300 it must resolve
    for qpv in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
        f = cls(QParam(qpv), 1.3)
        for order in range(5):
            for t in (1e-300, 1e-12, 1e-8, 1e-4):
                got = f.derivative(order)(t)
                with mpmath.workdps(330):
                    want, _ = mp_deformed_deriv(f, t, order)
                    err = float(abs(got - want) / abs(want)) if want else abs(got)
                assert err <= 1.2e-15, (f.label, order, t, got, float(want), err)
