"""Catalog functions: values, exact derivatives, defining-series expansions."""

import math
import warnings

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
    QLaplaceError,
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
from qlaplace.catalog import _SNAP, _qexp_deriv, _qexp_taylor
from qlaplace.qmath import _q_exp_pow

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


@pytest.mark.parametrize("cls", (QCosh, QSinh), ids=("qcosh", "qsinh"))
@pytest.mark.parametrize("qpv", (0.5, 0.7, 0.9, 0.97))
def test_qhyper_one_pass_is_the_two_branch_sum_to_the_bit(cls, qpv):
    # both branches in one pass give 0.5*(q_exp(+alpha t) +- q_exp(-alpha t)) term for term, to
    # the bit, on t < 0, inside the cut and past it (where the branch at -alpha t is cut to 0)
    f = cls(QParam(qpv), 1.3)
    e, sign = f.qprime.eps, -1.0 if f.delta else 1.0
    t = np.concatenate([np.linspace(-3.0 * f.cut, 3.0 * f.cut, 241), [0.0, -0.0, f.cut, -f.cut, 1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for order in range(5):
            want = 0.5 * (_qexp_deriv(e, f.alpha, t, order) + sign * _qexp_deriv(e, -f.alpha, t, order))
            got = f.derivative(order)(t)
            assert got.tobytes() == want.tobytes()
            for ts in (-0.5 * f.cut, 0.5 * f.cut, 2.0 * f.cut, -2.0 * f.cut):
                one = 0.5 * (_qexp_deriv(e, f.alpha, ts, order) + sign * _qexp_deriv(e, -f.alpha, ts, order))
                assert float.hex(f.derivative(order)(ts)) == float.hex(one)


def test_classical_exponential_skips_no_bits():
    # at eps = 0 and p = 1 the kernel is np.exp of x itself: -0.0, infinities and nan included
    x = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, -745.2, 709.7, 1e-310])
    assert _q_exp_pow(0.0, x, 1.0).tobytes() == np.exp(x).tobytes()
    for xi in x.tolist():
        assert float.hex(_q_exp_pow(0.0, xi, 1.0)) == float.hex(float(np.exp(xi)))


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


def scalar_qexp_taylor(eps: float, c: float, n_max: int) -> list[float]:
    """The q-exponential Taylor recurrence term by term in Python floats: the reference the
    array recurrence must equal bit for bit (same step factors, same multiplication order)."""
    coeffs = [1.0]
    for n in range(1, n_max + 1):
        d = 1.0
        if eps != 0.0:
            d = 1.0 - (n - 1) * eps
            if abs(d) <= _SNAP * max(1.0, (n - 1) * eps):
                d = 0.0
        coeffs.append(coeffs[-1] * (d * c / n))
    return coeffs


class TestTaylorRecurrence:
    @pytest.mark.parametrize("qprime", (1.0, 0.5, 2.0 / 3.0, 0.985, 1.0 - 1e-12))
    @pytest.mark.parametrize("c", (2.5, -2.5))
    @pytest.mark.parametrize("n_max", (0, 1, 40, 200))
    def test_equals_scalar_recurrence(self, qprime, c, n_max):
        eps = QParam(qprime).eps
        got = _qexp_taylor(eps, c, n_max)
        assert got.tolist() == scalar_qexp_taylor(eps, c, n_max)
        assert got.dtype == np.float64 and got.shape == (n_max + 1,)

    def test_terminating_snap(self):
        # 1/(1-q') = 3 up to rounding of 1-q': the factor 1 - 3(1-q') snaps to exact 0
        assert _qexp_taylor(QParam(2.0 / 3.0).eps, 2.5, 40)[4:].tolist() == [0.0] * 37

    def test_overflow_to_inf_is_quiet(self):
        # the coefficients of test_non_finite_coefficients_rejected pass double range: the
        # recurrence leaves inf with no RuntimeWarning (which the suite makes an error)
        eps = QParam(0.2).eps
        got = _qexp_taylor(eps, 60.0, 199).tolist()
        assert math.inf in got and got == scalar_qexp_taylor(eps, 60.0, 199)
        # a step factor d_j c/(j+1) itself past double range
        eps = QParam(0.01).eps
        assert _qexp_taylor(eps, 1e307, 5).tolist() == scalar_qexp_taylor(eps, 1e307, 5) == [
            1.0, 1e307, math.inf, -math.inf, math.inf, -math.inf]


def make_entry(key: str, qprime: float = 0.7):
    """The entry of one CATALOG constructor, from make_catalog_function."""
    fields = {"m": 3} if key == "monomial" else {"alpha": 0.8}
    if key.startswith("q"):
        fields["qprime"] = qprime
    return make_catalog_function(key, **fields)


PAIRED = ("cosine", "sine", "cosh", "sinh")


@pytest.mark.parametrize("key", sorted(CATALOG))
class TestContract:
    """Every entry is one evaluator: f(t) is its order-0 derivative, a scalar gives a float and
    an array a float array of its shape, and f(0) is the constant Taylor coefficient."""

    def test_scalar_and_array(self, key):
        f = make_entry(key)
        for t in (0.0, 0.4, 2, np.float64(1.5)):
            for g in (f, f.derivative(0), f.derivative(2)):
                assert type(g(t)) is float
        t = np.linspace(0.0, 3.0, 6).reshape(2, 3)
        for g in (f, f.derivative(0), f.derivative(3)):
            out = g(t)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (2, 3)

    def test_call_is_order_zero(self, key):
        f = make_entry(key)
        t = np.concatenate([np.linspace(0.0, 5.0, 41), [1e-300, 40.0]])
        assert f(t).tobytes() == f.derivative(0)(t).tobytes()
        assert all(f(float(x)) == f.derivative(0)(float(x)) for x in t)

    def test_value_at_zero(self, key):
        f = make_entry(key)
        assert f.value_at_zero == f.taylor_coefficients(0)[0] == f(0.0)

    @pytest.mark.parametrize("n_max", (2.5, -1, math.nan, math.inf))
    def test_taylor_order_is_checked(self, key, n_max):
        # 2.5 raised numpy's TypeError and -1 returned [] on every family
        with pytest.raises(DomainError, match=rf"n_max must be an integer >= 0, got n_max = {n_max}"):
            make_entry(key).taylor_coefficients(n_max)

    def test_whole_float_taylor_order(self, key):
        f = make_entry(key)
        assert f.taylor_coefficients(4.0) == f.taylor_coefficients(4) and len(f.taylor_coefficients(0)) == 1

    @pytest.mark.parametrize("n_max", (0, 1, 40, 200))
    def test_taylor_coefficients_are_a_list_of_floats(self, key, n_max):
        # the series path passes float arrays; the API edge gives the list
        got = make_entry(key).taylor_coefficients(n_max)
        assert type(got) is list and len(got) == n_max + 1 and all(type(a) is float for a in got)

class TestScalarGuard:
    """A scalar t is checked: nan and inf are a DomainError naming t, and a huge finite t gives
    the value, or a QLaplaceError where it leaves double range, never a RuntimeWarning."""

    @pytest.mark.parametrize("f", (Cosine(1.0), QCosine(QParam(0.7), 1.0)), ids=lambda f: f.label)
    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_non_finite_t_rejected(self, f, bad):
        with pytest.raises(DomainError, match="t must be finite"):
            f(bad)
        with pytest.raises(DomainError, match="t must be finite"):
            f.derivative(2)(bad)

    @pytest.mark.parametrize("f", (QGaussian(QParam(0.7), 1.0), Gaussian(1.0)), ids=lambda f: f.label)
    def test_huge_t_underflows_quietly(self, f):
        assert f(1e160) == 0.0

    @pytest.mark.parametrize("f", (QCosine(QParam(0.7), 1.0), Monomial(200)), ids=lambda f: f.label)
    def test_huge_value_is_typed(self, f):
        with pytest.raises(QLaplaceError, match=r"at t = 1e\+160 is not finite"):
            f(1e160)

    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_scalar_matches_array(self, key):
        f = make_entry(key)
        t = np.linspace(0.0, 3.0, 13)
        for g in (f, f.derivative(1), f.derivative(3)):
            assert [g(x) for x in t.tolist()] == g(t).tolist()


@pytest.mark.parametrize("key", [k for k in sorted(CATALOG) if k.removeprefix("q") in PAIRED])
def test_paired_parity_and_termination(key):
    odd = key.removeprefix("q") in ("sine", "sinh")
    cases = ((0.7, None), (0.75, 4), (0.8, 5), (0.5, 2)) if key.startswith("q") else ((1.0, None),)
    for qprime, stop in cases:
        a = make_entry(key, qprime).taylor_coefficients(30)
        assert all(c == 0.0 for c in a[1 - odd::2])
        if stop is None:
            assert all(c != 0.0 for c in a[odd::2])
        else:  # 1/(1-q') = stop: q_exp(i alpha t) and q_exp(alpha t) are polynomials of degree stop
            assert all(c != 0.0 for c in a[odd:stop + 1:2])
            assert all(c == 0.0 for c in a[stop + 1:])


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
