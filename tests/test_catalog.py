"""Catalog functions: values, exact derivatives, defining-series expansions."""

import math

import numpy as np
import pytest

from qlaplace import (
    CATALOG,
    Cosh,
    Cosine,
    DomainError,
    Exponential,
    Gaussian,
    Monomial,
    QCosh,
    QCosine,
    QExponential,
    QGaussian,
    QParam,
    QSine,
    QSinh,
    Sine,
    Sinh,
    catalog_transform,
    make_catalog_function,
)

QP = QParam(0.7)

ALL_FAMILIES = [
    Monomial(4),
    Exponential(0.8, 1),
    Exponential(1.0, -1),
    QExponential(QP, 0.8, 1),
    QExponential(QP, 0.8, -1),
    Gaussian(0.9),
    QGaussian(QP, 0.9),
    Cosine(1.1),
    Sine(1.1),
    QCosine(QP, 1.1),
    QSine(QP, 1.1),
    Cosh(0.7),
    Sinh(0.7),
    QCosh(QP, 0.7),
    QSinh(QP, 0.7),
]


class TestValues:
    def test_monomial(self):
        f = Monomial(3)
        assert f(2.0) == 4.0
        assert f(0.0) == 0.0
        assert Monomial(1)(0.0) == 1.0

    def test_qexponential_cutoff(self):
        f = QExponential(QParam(0.5), 1.0, -1)
        # base 1 - 0.5*t hits zero at t = 2
        assert f(1.0) == pytest.approx(0.25, rel=1e-14)
        assert f(2.0) == 0.0
        assert f(5.0) == 0.0

    def test_qgaussian_value(self):
        f = QGaussian(QParam(0.5), 1.0)
        # (1 - 0.5*t^2)^2 at t = 1
        assert f(1.0) == pytest.approx(0.25, rel=1e-14)
        assert f(2.0) == 0.0

    def test_qtrig_small_t_matches_classical(self):
        # deformed circular functions approach cos/sin as qprime -> 1
        t = 0.4
        for qpv in (0.99, 0.999):
            qc = QCosine(QParam(qpv), 1.3)
            qs = QSine(QParam(qpv), 1.3)
            assert float(qc(t)) == pytest.approx(math.cos(1.3 * t), rel=1e-2 * (1 - qpv) * 100)
            assert float(qs(t)) == pytest.approx(math.sin(1.3 * t), rel=1e-2 * (1 - qpv) * 100)

    def test_qcosh_is_even_part(self):
        f = QCosh(QP, 0.7)
        plus = QExponential(QP, 0.7, 1)
        minus = QExponential(QP, 0.7, -1)
        for t in (0.0, 0.5, 1.7):
            assert float(f(t)) == pytest.approx(0.5 * (float(plus(t)) + float(minus(t))), rel=1e-14)


class TestDerivatives:
    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.label)
    def test_against_series_derivative(self, f):
        # independent route: differentiate the defining Taylor series term-wise
        n_max = 40
        a = f.taylor_coefficients(n_max)
        t = 0.3
        for order in (1, 2, 3):
            exact = float(f.derivative(order)(t))
            series = sum(
                a[j + order] * math.exp(math.lgamma(j + order + 1) - math.lgamma(j + 1)) * t**j
                for j in range(n_max - order)
            )
            assert exact == pytest.approx(series, rel=1e-10, abs=1e-12)

    def test_monomial_derivative_truncates(self):
        f = Monomial(3)
        assert f.derivative(2)(5.0) == 2.0
        assert f.derivative(3)(5.0) == 0.0

    def test_vectorized_derivative(self):
        d = Gaussian(1.0).derivative(1)
        out = d(np.array([0.0, 1.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-14)


class TestTaylor:
    def test_exponential(self):
        a = Exponential(1.0, 1).taylor_coefficients(5)
        assert a == pytest.approx([1, 1, 0.5, 1 / 6, 1 / 24, 1 / 120], rel=1e-15)

    def test_sine(self):
        a = Sine(2.0).taylor_coefficients(5)
        assert a == pytest.approx([0, 2, 0, -8 / 6, 0, 32 / 120], rel=1e-14, abs=1e-300)

    def test_qexponential_polynomial_case(self):
        # 1/(1-qprime) = 2: q_exp is the quadratic (1 + x/2)^2
        a = QExponential(QParam(0.5), 1.0, 1).taylor_coefficients(4)
        assert a == pytest.approx([1.0, 1.0, 0.25, 0.0, 0.0], abs=1e-15)

    def test_qcosh_terminating(self):
        # 1/(1-qprime) = 5: series stops after t^4
        a = QCosh(QParam(0.8), 0.5).taylor_coefficients(8)
        assert a[0] == 1.0
        assert a[2] == pytest.approx(0.1, rel=1e-14)
        assert a[4] == pytest.approx(5e-4, rel=1e-13)
        assert a[5:] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=0.0)

    def test_parity(self):
        assert all(c == 0.0 for c in Gaussian(1.0).taylor_coefficients(9)[1::2])
        assert all(c == 0.0 for c in QSine(QP, 1.0).taylor_coefficients(9)[0::2])


class TestMetadata:
    def test_value_at_zero(self):
        assert Monomial(1).value_at_zero == 1.0
        assert Monomial(2).value_at_zero == 0.0
        assert Sine(1.0).value_at_zero == 0.0
        assert QCosh(QP, 1.0).value_at_zero == 1.0

    def test_limit_at_infinity(self):
        assert Monomial(1).limit_at_infinity == 1.0
        assert Monomial(3).limit_at_infinity is None
        assert Exponential(1.0, -1).limit_at_infinity == 0.0
        assert Exponential(1.0, 1).limit_at_infinity is None
        assert Gaussian(1.0).limit_at_infinity == 0.0
        assert Cosine(1.0).limit_at_infinity is None

    def test_registry_complete(self):
        assert len(CATALOG) == 13

    def test_classical_members_keep_plain_names(self):
        assert Cosine(1.1).kind == "cosine"
        assert QCosine(QParam(1.0), 1.1).label == "cosine(alpha=1.1)"
        assert Exponential(0.8, -1).label == "exponential(sign=-1, alpha=0.8)"
        assert QSinh(QP, 0.7).label == "qsinh(q'=0.7, alpha=0.7)"


class TestFactory:
    def test_monomial(self):
        f = make_catalog_function("monomial", m=3)
        assert isinstance(f, Monomial) and f.power == 3

    def test_deformed(self):
        f = make_catalog_function("qsine", alpha=1.5, qprime=0.8)
        assert isinstance(f, QSine)
        assert f.qprime.q == 0.8

    def test_sign(self):
        f = make_catalog_function("exponential", alpha=2.0, sign=-1)
        assert f.sign == -1

    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_kind_is_registry_key(self, key):
        fields = {"m": 2} if key == "monomial" else {"alpha": 0.8}
        if key.startswith("q"):
            fields["qprime"] = 0.7
        if key.endswith("exponential"):
            fields["sign"] = -1
        f = make_catalog_function(key, **fields)
        assert f.kind == key

    @pytest.mark.parametrize("key", sorted(k for k in CATALOG if not k.startswith("q")))
    def test_plain_name_rejects_qprime(self, key):
        with pytest.raises(DomainError, match="takes no qprime"):
            make_catalog_function(key, m=2, alpha=0.8, qprime=0.5)

    @pytest.mark.parametrize("key", sorted(k for k in CATALOG if not k.endswith("exponential")))
    def test_sign_only_for_exponentials(self, key):
        with pytest.raises(DomainError, match="takes no sign"):
            make_catalog_function(key, m=2, alpha=0.8, qprime=0.7 if key.startswith("q") else None, sign=-1)

    def test_classical_qprime_is_plain_member(self):
        assert make_catalog_function("qgaussian", alpha=0.9, qprime=1.0) == Gaussian(0.9)
        assert make_catalog_function("sinh", alpha=0.7) == QSinh(QParam(1.0), 0.7)

    def test_errors(self):
        with pytest.raises(DomainError):
            make_catalog_function("nope", alpha=1.0)
        with pytest.raises(DomainError):
            make_catalog_function("monomial")
        with pytest.raises(DomainError):
            make_catalog_function("gaussian")
        with pytest.raises(DomainError):
            make_catalog_function("qgaussian", alpha=1.0)
        assert QExponential(QParam(1.0), 1.0, -1) == Exponential(1.0, -1)
        with pytest.raises(DomainError):
            Exponential(-1.0, 1)
        with pytest.raises(DomainError):
            Monomial(0)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize(
    "make",
    (Exponential, Gaussian, Cosine, Sine, Cosh, Sinh, lambda a: QExponential(QP, a, -1), lambda a: QGaussian(QP, a),
     lambda a: QCosine(QP, a), lambda a: QSine(QP, a), lambda a: QCosh(QP, a), lambda a: QSinh(QP, a)),
    ids=lambda make: make(1.0).kind,
)
def test_non_finite_alpha_rejected(make, bad):
    with pytest.raises(DomainError, match="finite"):
        make(bad)


DEFORMED = [
    lambda qp: QExponential(qp, 0.8, 1),
    lambda qp: QExponential(qp, 0.8, -1),
    lambda qp: QGaussian(qp, 0.9),
    lambda qp: QCosine(qp, 1.1),
    lambda qp: QSine(qp, 1.1),
    lambda qp: QCosh(qp, 0.7),
    lambda qp: QSinh(qp, 0.7),
]


@pytest.mark.parametrize("make", DEFORMED, ids=lambda make: make(QParam(1.0)).label)
@pytest.mark.parametrize("gap", [1e-4, 1e-6])
class TestClassicalContinuity:
    """q' -> 1-: each deformed family approaches its q' = 1 member, with
    differences of order (1 - q')."""

    def test_values_and_derivatives(self, make, gap):
        f, ref = make(QParam(1.0 - gap)), make(QParam(1.0))
        t = np.linspace(0.0, 1.2, 25)
        for order in range(4):
            want = ref.derivative(order)(t)
            got = f.derivative(order)(t)
            assert np.all(np.abs(got - want) <= 10.0 * gap * np.maximum(np.abs(want), 1.0))
        assert np.all(np.abs(f(t) - ref(t)) <= gap * np.maximum(np.abs(ref(t)), 1.0))

    def test_taylor_coefficients(self, make, gap):
        got = np.array(make(QParam(1.0 - gap)).taylor_coefficients(40))
        want = np.array(make(QParam(1.0)).taylor_coefficients(40))
        assert np.all(np.abs(got - want) <= 1e3 * gap * np.abs(want))

    def test_closed_form_coefficients(self, make, gap):
        q = QParam(0.6)
        got = np.array(catalog_transform(q, make(QParam(1.0 - gap)), 40).coeffs)
        want = np.array(catalog_transform(q, make(QParam(1.0)), 40).coeffs)
        assert np.all(np.abs(got - want) <= 1e3 * gap * np.abs(want))
