"""Forward transform, closed-form catalog, and the identity/diagnostic suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlaplace import (
    Cosine,
    DomainError,
    Exponential,
    Gaussian,
    Monomial,
    PowerSeriesTransform,
    QCosh,
    QCosine,
    QExponential,
    QGaussian,
    QLaplaceError,
    QParam,
    QSine,
    QSinh,
    Sine,
    catalog_transform,
    convolution_check_classical,
    derivative_rule_check,
    forward_numeric,
    integral_rule_diagnostic,
    kernel_pair_integral,
    limit_identity_check,
    linearity_check,
    q_poly,
    qderivative_of_transform_check,
    qintegral_of_transform_check,
    scaling_check,
    shift_kernel_factor,
    translation_check,
)
from qlaplace.transform import _classical_series
from pfq_oracle import CATALOG_SPECS, pfq_series

Q5 = QParam(0.5)
Q1 = QParam(1.0)


class TestForwardNumeric:
    def test_power(self):
        # closed form Gamma(2)/(Q_2(1.5) * 1) = 1/3
        assert forward_numeric(Q5, Monomial(2), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_constant(self):
        # elementary antiderivative: 1/((2-q)s)
        assert forward_numeric(Q5, Monomial(1), 2.0) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_classical_exponential(self):
        assert forward_numeric(Q1, Exponential(1.0, -1), 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_requires_positive_s(self):
        with pytest.raises(DomainError):
            forward_numeric(Q5, Monomial(2), 0.0)

    @pytest.mark.parametrize("q", (Q5, Q1), ids=("q=0.5", "q=1"))
    @pytest.mark.parametrize("s", (math.nan, math.inf, -math.inf), ids=("nan", "inf", "-inf"))
    def test_rejects_non_finite_s(self, q, s):
        with pytest.raises(DomainError, match="finite s > 0"):
            forward_numeric(q, Exponential(1.0), s)

    def test_scalar_only_callable(self):
        f = lambda t: math.exp(-t)  # noqa: E731  (rejects arrays: TypeError)
        want = catalog_transform(Q5, Exponential(1.0, -1), 80).value(2.0)
        assert forward_numeric(Q5, f, 2.0) == pytest.approx(want, rel=1e-10)
        assert forward_numeric(Q1, f, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_support_monotonicity(self):
        # anything past the kernel cutoff cannot contribute
        t_star = 1.0 / (Q5.eps * 1.0)

        def spiked(t):
            arr = np.asarray(t, dtype=float)
            return arr + np.where(arr > t_star, 1e6, 0.0)

        plain = forward_numeric(Q5, Monomial(2), 1.0)
        assert forward_numeric(Q5, spiked, 1.0) == pytest.approx(plain, rel=1e-12)

    def test_linearity(self):
        rep = linearity_check(QParam(0.7), Monomial(2), 2.0, Exponential(1.0, -1), -0.5, 1.5)
        assert rep.rel_err < 1e-9


def horner_value(coeffs, s):
    """sum_n coeffs[n] * s**-(n+1) by a plain Horner loop in 1/s: the
    reference the log-magnitude term sum is pinned to."""
    x = 1.0 / np.asarray(s, dtype=float)
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc * x


def derivative_coefficients(coeffs, k):
    """Coefficients of F^(k) as a series in 1/s, the ratio (n+k)!/n! from
    lgamma term by term: with horner_value, the reference derivative."""
    sign = -1.0 if k % 2 else 1.0
    out = [0.0] * (len(coeffs) + k)
    for n, c in enumerate(coeffs):
        if c != 0.0:
            out[n + k] = sign * c * math.exp(math.lgamma(n + k + 1) - math.lgamma(n + 1))
    return out


# Agreement with the references, as a share of sum|terms|.  At k = 64 the
# exponent of a leading term holds log(64!) ~ 205, whose ulp is 2.8e-14, so
# the log-magnitude sum is good to a few 1e-14 there (4.2e-14 against exact
# arithmetic on the same lgamma values; the Horner reference 7.8e-15).
TERM_SUM_TOL = {0: 1e-14, 1: 1e-14, 8: 1e-14, 64: 1e-13}

# criterion 1's bounds: power and exponential families, then the rest
TIGHT_KINDS = ("monomial", "exponential", "qexponential")

DEFORMED_FAMILIES = (
    lambda qp, a: QExponential(qp, a, 1),
    lambda qp, a: QExponential(qp, a, -1),
    QGaussian,
    QCosine,
    QSine,
    QCosh,
    QSinh,
)


def assert_agrees_at_s_min(q, f, n_terms):
    """The series at its own s_min against forward_numeric, at criterion 1's bounds;
    at s = 0.1 where s_min is 0, which only a one-term series without a cut may have."""
    F = catalog_transform(q, f, n_terms)
    s = F.s_min or 0.1
    num, cat = forward_numeric(q, f, s), F.value(s)
    tol = 1e-8 if f.kind in TIGHT_KINDS else 1e-6
    assert abs(num - cat) <= tol * abs(cat), (f.label, q.q, n_terms, F.s_min, num, cat)


class TestCatalogTransform:
    def test_monomial_coefficients(self):
        F = catalog_transform(Q5, Monomial(2))
        assert F.coeffs == pytest.approx([0.0, 1.0 / 3.0], rel=1e-15)
        assert F.s_min == 0.0

    def test_exponential_coefficients_two_routes(self):
        # printed form (1/Q_1) (alpha/(1-q))^n / ((3-2q)/(1-q))_n equals the
        # compact alpha^n / Q_{n+1}(2-q)
        F = catalog_transform(Q5, Exponential(1.0, 1), 6)
        expected = [1.0 / q_poly(1.5, n + 1) for n in range(6)]
        assert F.coeffs == pytest.approx(expected, rel=1e-13)

    def test_requires_deformed(self):
        with pytest.raises(DomainError):
            catalog_transform(Q1, Monomial(2))

    @pytest.mark.parametrize("qv", (0.3, 0.6, 0.9))
    def test_matches_pfq_closed_forms(self, qv):
        # the term-wise route against the paper's pFq series, for n < 150: further
        # on, the plain families' Taylor coefficients alpha**n/n! near the subnormals
        q = QParam(qv)
        for f in CATALOG_SPECS:
            got = np.array(catalog_transform(q, f, 150).coeffs)
            want = np.array(pfq_series(q, f, 150).coeffs)
            assert np.array_equal(got == 0.0, want == 0.0), f.label
            nz = want != 0.0
            assert np.all(np.abs(got[nz] - want[nz]) <= 1e-12 * np.abs(want[nz])), f.label

    @pytest.mark.parametrize("n_terms", (40, 80))
    @pytest.mark.parametrize("qv", (0.3, 0.6, 0.9))
    def test_series_agrees_at_s_min(self, qv, n_terms):
        # grid A: every catalog spec, and seven deformed specs at q' from far off 1 through
        # integer 1/(1-q') (terminating series) to 1 - 1e-12
        specs = list(CATALOG_SPECS)
        for qpv in (0.2, 0.5, 0.75, 0.8, 0.9, 1.0 - 1e-6, 1.0 - 1e-12):
            qp = QParam(qpv)
            specs += [QExponential(qp, 3.0, -1), QExponential(qp, 0.8, 1), QGaussian(qp, 0.25),
                      QCosine(qp, 2.5), QSine(qp, 0.3), QCosh(qp, 7.0), QSinh(qp, 0.05)]
        for f in specs:
            assert_agrees_at_s_min(QParam(qv), f, n_terms)

    @pytest.mark.parametrize("qpv", (0.6, 0.7, 0.85, 0.88, 0.93, 0.95, 0.97))
    def test_series_agrees_at_s_min_near_classical(self, qpv):
        # grid B: q' approaching 1, where the terms of the deformed families grow late
        qp = QParam(qpv)
        for f in (QExponential(qp, 1.0, -1), QExponential(qp, 0.6, 1), QGaussian(qp, 0.8), QCosh(qp, 1.2),
                  QSinh(qp, 0.7), QCosine(qp, 1.0), QSine(qp, 1.3)):
            for qv in (0.3, 0.6, 0.9):
                for n_terms in (40, 80, 200):
                    assert_agrees_at_s_min(QParam(qv), f, n_terms)

    @given(
        qv=st.floats(min_value=0.2, max_value=0.95),
        family=st.integers(min_value=0, max_value=len(DEFORMED_FAMILIES)),
        alpha=st.floats(min_value=0.3, max_value=3.0),
        qpv=st.one_of(st.floats(min_value=0.5, max_value=1.0 - 1e-14), st.sampled_from((1.0 - 1e-14, 1.0)),
                      st.floats(min_value=7.0, max_value=14.0).map(lambda d: 1.0 - 10.0**-d),
                      st.integers(min_value=2, max_value=200).map(lambda k: 1.0 - 1.0 / k)),
        n_terms=st.sampled_from((40, 80)),
    )
    @settings(max_examples=100, deadline=None)
    def test_series_agrees_at_s_min_property(self, qv, family, alpha, qpv, n_terms):
        if family == len(DEFORMED_FAMILIES):
            f = Monomial(1 + int(alpha))
        else:
            f = DEFORMED_FAMILIES[family](QParam(qpv), alpha)
        assert_agrees_at_s_min(QParam(qv), f, n_terms)

    def test_s_min_stays_put_as_qprime_tends_to_1(self):
        # the pFq argument carries a factor 1 - q', but the terms still grow like exp's:
        # s_min must not fall with 1 - q' (a bound of 4e-6 here is where forward_numeric fails)
        q, f = QParam(0.6), QExponential(QParam(1.0 - 1e-6), 0.8, 1)
        F = catalog_transform(q, f, 40)
        assert F.s_min >= 0.1
        assert_agrees_at_s_min(q, f, 40)

    @pytest.mark.parametrize("qv", (0.3, 0.6, 0.9))
    def test_s_min_keeps_the_kernel_short_of_the_cut(self, qv):
        # sinh at q' = 1/2 has the one-term series 3t, but the function leaves it at its cut
        # t = 2/3: the bound is the s whose kernel support 1/((1-q)s) ends there
        q, f = QParam(qv), QSinh(QParam(0.5), 3.0)
        F = catalog_transform(q, f, 40)
        assert np.count_nonzero(F.coeffs) == 1 and f.cut == pytest.approx(2.0 / 3.0)
        assert F.s_min == pytest.approx(1.5 / (1.0 - qv), rel=1e-15)
        assert_agrees_at_s_min(q, f, 40)
        s = 0.5 * F.s_min  # past the cut the series misses criterion 1's bound
        assert abs(forward_numeric(q, f, s) - F.value(s)) > 1e-6 * F.value(s)

    @pytest.mark.xfail(strict=True, reason="the root test reads magnitudes only: this 200-term series "
                       "cancels by 1e15 at its s_min")
    def test_series_agrees_at_s_min_near_terminating(self):
        # q' = 0.985: the terms past the dip at n ~ 1/(1-q') = 67 carry n**-(1/(1-q')+1), so the
        # root test reads the Taylor radius 22.2 as 42.8 (the 80-term series holds at its s_min)
        assert_agrees_at_s_min(QParam(0.3), QExponential(QParam(0.985), 3.0, -1), 200)

    def test_s_min_is_cached(self):
        F = catalog_transform(Q5, Sine(1.0))
        assert "s_min" not in vars(F)
        assert F.s_min is F.s_min and "s_min" in vars(F)

    def test_s_min_of_a_series_with_no_usable_radius(self):
        # terms growing by 1e600 a step: the radius underflows to 0, the bound is inf
        for q in (Q5, Q1):
            assert PowerSeriesTransform((1e-300, 1e300, 1e300), q).s_min == math.inf

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(QLaplaceError, match="c_1 = nan"):
            PowerSeriesTransform((1.0, math.nan, math.inf), Q5)
        # the Taylor coefficients of this q-exponential overflow before n = 200
        with pytest.raises(QLaplaceError, match="not finite"):
            catalog_transform(QParam(0.01), QExponential(QParam(0.2), 60.0, 1), 200)

    def test_truncation_bound_at_s_min(self):
        # |c_N s^-(N+1)| < 1e-12 |F(s)| at s >= s_min for a long expansion
        for f in (Exponential(0.8, 1), Gaussian(0.9), QExponential(QParam(0.7), 0.8, -1)):
            F = catalog_transform(QParam(0.6), f, 80)
            s = max(F.s_min, 0.5)
            n_last = max(n for n, c in enumerate(F.coeffs) if c != 0.0)
            tail = abs(F.coeffs[n_last]) * s ** -(n_last + 1)
            assert tail < 1e-12 * abs(F.value(s))

    def test_classical_limit_of_cosine(self):
        # quadrature at q -> 1 approaches the classical pair s/(s^2+a^2)
        s, alpha = 2.0, 1.0
        errs = []
        for qv in (0.99, 0.999, 0.9999):
            val = forward_numeric(QParam(qv), Cosine(alpha), s)
            errs.append(abs(val - s / (s**2 + alpha**2)) / (s / (s**2 + alpha**2)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_derivative_series_matches_log_domain(self):
        F = catalog_transform(QParam(0.6), Exponential(1.0, -1), 30)
        s = max(F.s_min, 1.0) * 1.5
        for k in (1, 2, 5):
            via_series = horner_value(derivative_coefficients(F.coeffs, k), s)
            assert F.derivative_value(k, s) == pytest.approx(via_series, rel=1e-12)

    @pytest.mark.parametrize("qv", (0.3, 0.6, 0.9))
    @pytest.mark.parametrize("n_terms", (40, 200))
    def test_term_sum_matches_plain_references(self, qv, n_terms):
        for f in CATALOG_SPECS:
            F = catalog_transform(QParam(qv), f, n_terms)
            s = (F.s_min or 1.0) * 8.0 ** np.linspace(0.0, 1.0, 9)
            for k, tol in TERM_SUM_TOL.items():
                coeffs = derivative_coefficients(F.coeffs, k)
                want = horner_value(coeffs, s)
                abs_sum = horner_value(np.abs(coeffs), s)
                got = F.derivative_value(k, s) if k else F.value(s)
                assert np.all(np.abs(got - want) <= tol * abs_sum), (f.label, k)
                # an array call is the per-point scalar calls, bit for bit
                assert np.array_equal(got, [F.derivative_value(k, x) for x in s]), (f.label, k)
            assert np.array_equal(F.value(s), F.derivative_value(0, s))

    def test_derivative_order_validated(self):
        F = catalog_transform(Q5, Sine(1.0))
        for k in (-1, 2.5, math.nan):
            with pytest.raises(DomainError):
                F.derivative_value(k, 3.0)
        assert F.derivative_value(3.0, 2.0) == F.derivative_value(3, 2.0)

    @pytest.mark.parametrize("bad", (math.nan, -2.0, 0.0, math.inf, -math.inf))
    def test_value_point_validated(self, bad):
        F = catalog_transform(Q5, Sine(1.0))
        for s in (bad, np.array([3.0, bad, 4.0])):
            with pytest.raises(DomainError):
                F.value(s)
            with pytest.raises(DomainError):
                F.derivative_value(2, s)

    @pytest.mark.parametrize("s", (math.nan, math.inf, 0.0))
    def test_derivative_point_validated(self, s):
        F = catalog_transform(Q5, Sine(1.0))
        with pytest.raises(DomainError):
            F.derivative_value(3, s)

    def test_derivative_overflow_is_typed(self):
        F = PowerSeriesTransform((1e300, 1e300), Q5)
        with pytest.raises(QLaplaceError):
            F.derivative_value(64, 1e-3)

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            PowerSeriesTransform((), Q5)

    @pytest.mark.parametrize("t_cut", (0.0, -1.0, math.nan))
    def test_non_positive_cut_rejected(self, t_cut):
        with pytest.raises(DomainError, match="t_cut"):
            PowerSeriesTransform((1.0,), Q5, t_cut)


class TestKernelPair:
    def test_known_values(self):
        assert kernel_pair_integral(Q5, 2.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert kernel_pair_integral(Q1, 3.0, 1.0) == pytest.approx(0.5, rel=1e-8)
        assert kernel_pair_integral(QParam(0.9), 1.0, 0.5) == pytest.approx(
            1.0 / (1.1 * 0.5), rel=1e-8
        )
        for qv in (0.9995, 1.0 - 1e-6):  # the partner exp(s't) overflows where the kernel is 0
            assert kernel_pair_integral(QParam(qv), 1.0, 0.5) == pytest.approx(1.0 / ((2.0 - qv) * 0.5), rel=1e-8)

    def test_precondition(self):
        with pytest.raises(DomainError):
            kernel_pair_integral(Q5, 1.0, 2.0)
        with pytest.raises(DomainError):
            kernel_pair_integral(Q5, 1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_pair_integral(Q5, 1.0, 0.0)


class TestLimitIdentities:
    def test_monomial_limit_to_zero(self):
        rep = limit_identity_check(Q5, Monomial(2), "I")
        assert rep.rhs == 0.0
        assert rep.errors[-1] < rep.errors[0]
        assert rep.errors[-1] < 1e-6

    def test_cosine_initial_value(self):
        for qv in (0.6, 1.0):
            rep = limit_identity_check(QParam(qv), Cosine(1.0), "I")
            assert rep.rhs == pytest.approx(1.0 / (2.0 - qv), rel=1e-15)
            assert rep.rel_err < 1e-6

    def test_classical_exponential(self):
        rep = limit_identity_check(Q1, Exponential(1.0, -1), "I")
        assert rep.rhs == 1.0
        assert rep.rel_err < 1e-4  # O(1/s) approach to the initial value

    def test_final_value(self):
        rep = limit_identity_check(QParam(0.6), Exponential(1.0, -1), "II")
        assert rep.rhs == 0.0
        assert rep.errors[0] > rep.errors[-1]
        assert rep.errors[-1] < 1e-5

    def test_final_value_rejects_divergent(self):
        with pytest.raises(DomainError):
            limit_identity_check(Q5, Monomial(3), "II")
        with pytest.raises(DomainError):
            limit_identity_check(Q5, Cosine(1.0), "II")

    def test_bad_which(self):
        with pytest.raises(DomainError):
            limit_identity_check(Q5, Monomial(2), "III")


class TestScaling:
    def test_identity_at_unit_scale(self):
        rep = scaling_check(QParam(0.7), Gaussian(1.0), 1.0, 1.5)
        assert rep.rel_err < 1e-12

    def test_power(self):
        rep = scaling_check(Q5, Monomial(2), 2.0, 1.0)
        assert rep.lhs == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert rep.rel_err < 1e-9

    def test_classical(self):
        rep = scaling_check(Q1, Exponential(1.0, -1), 3.0, 1.0)
        assert rep.lhs == pytest.approx(0.25, rel=1e-9)
        assert rep.rel_err < 1e-9


class TestShiftKernel:
    def test_zero_shift(self):
        rep = shift_kernel_factor(Q5, 2.0, 0.0, 0.3)
        assert rep.rel_err < 1e-15

    def test_known_point(self):
        rep = shift_kernel_factor(Q5, 2.0, 1.0, 0.2)
        assert rep.lhs == pytest.approx(0.81, rel=1e-14)
        assert rep.rel_err < 1e-14

    def test_classical_additivity(self):
        rep = shift_kernel_factor(Q1, 2.0, 0.7, 1.3)
        assert rep.rel_err < 1e-14

    def test_cutoff_rejected(self):
        with pytest.raises(DomainError):
            shift_kernel_factor(Q5, 2.0, 1.0, 5.0)


class TestTranslation:
    def test_small_delay_ratio_near_one(self):
        rep = translation_check(Q5, Monomial(2), 1e-4, 1.0)
        assert rep.ratio_proof == pytest.approx(1.0, abs=1e-3)

    def test_classical_delay(self):
        rep = translation_check(Q1, Exponential(1.0, -1), 1.0, 1.0)
        assert rep.ratio_proof == pytest.approx(1.0, rel=1e-8)

    def test_deformed_diagnostic(self):
        rep = translation_check(Q5, Monomial(2), 0.1, 1.0)
        # the proof-form factor reproduces the integral; the stated form
        # (opposite kernel argument sign) visibly does not
        assert rep.ratio_proof == pytest.approx(1.0, rel=1e-8)
        assert abs(rep.ratio_stated - 1.0) > 0.1

    def test_delay_past_cutoff(self):
        with pytest.raises(DomainError):
            translation_check(Q5, Monomial(2), 3.0, 1.0)


class TestDerivativeRule:
    def test_first_derivative_of_power(self):
        rep = derivative_rule_check(QParam(0.8), Monomial(2), 1, 1.0)
        assert rep.lhs == pytest.approx(1.0 / 1.2, rel=1e-9)
        assert rep.rel_err < 1e-9

    def test_boundary_only(self):
        rep = derivative_rule_check(QParam(0.8), Monomial(1), 1, 1.0)
        assert rep.rel_err < 1e-9

    def test_classical_second_derivative(self):
        rep = derivative_rule_check(Q1, Sine(1.0), 2, 1.0)
        assert rep.lhs == pytest.approx(-0.5, rel=1e-8)
        assert rep.rel_err < 1e-8

    def test_degeneracy_rejected(self):
        with pytest.raises(DomainError):
            derivative_rule_check(QParam(0.4), Monomial(2), 1, 1.0)
        with pytest.raises(DomainError):
            derivative_rule_check(QParam(0.6), Monomial(2), 2, 1.0)


class TestQDerivativeOfTransform:
    def test_classical(self):
        rep = qderivative_of_transform_check(Q1, Exponential(1.0, -1), 1, 1.0)
        assert rep.rel_err < 1e-6

    def test_deformed_power(self):
        rep = qderivative_of_transform_check(Q5, Monomial(2), 1, 1.5)
        assert rep.rel_err < 1e-6

    def test_higher_order(self):
        rep = qderivative_of_transform_check(QParam(0.8), Monomial(1), 2, 1.2)
        assert rep.rel_err < 1e-6


class TestQIntegralOfTransform:
    def test_power_identity(self):
        rep = qintegral_of_transform_check(Q5, Monomial(3), 1.0)
        assert rep.lhs == pytest.approx(1.0 / 3.0, rel=1e-7)
        assert rep.rel_err < 1e-7

    def test_classical(self):
        rep = qintegral_of_transform_check(Q1, Monomial(2), 1.0)
        assert rep.lhs == pytest.approx(1.0, rel=1e-7)
        assert rep.rel_err < 1e-7

    def test_higher_power(self):
        # both sides Gamma(3)/(Q_3(1.1) * 8)
        rep = qintegral_of_transform_check(QParam(0.9), Monomial(4), 2.0)
        expected = 2.0 / (q_poly(1.1, 3) * 8.0)
        assert rep.lhs == pytest.approx(expected, rel=1e-7)
        assert rep.rel_err < 1e-7

    def test_strict_equality_for_powers(self):
        for m in (2, 3, 4, 5):
            for qv in (0.3, 0.6, 0.9):
                rep = qintegral_of_transform_check(QParam(qv), Monomial(m), 1.3)
                assert rep.rel_err < 1e-7, (m, qv)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            qintegral_of_transform_check(Q5, Monomial(1), 1.0)
        with pytest.raises(DomainError):
            qintegral_of_transform_check(Q5, Cosine(1.0), 1.0)

    @pytest.mark.parametrize("f", (QSine(QParam(0.7), 1.0), QSinh(QParam(0.7), 0.5), QSinh(QParam(0.5), 1.0)),
                             ids=lambda f: f.label)
    def test_classical_deformed_family(self, f):
        # the classical series of a deformed family grows faster than geometrically, or (sinh
        # at q' = 1/2) is the one-term t of a function cut at t = 2, yet holds from its s_min on
        s_min = _classical_series(f, 60).s_min
        for s in (s_min, 2.0 * s_min):
            assert qintegral_of_transform_check(Q1, f, s).rel_err < 1e-7, s
        with pytest.raises(DomainError, match="below series validity bound"):
            qintegral_of_transform_check(Q1, f, 0.5 * s_min)


class TestIntegralRuleDiagnostic:
    def test_classical_ratio_one(self):
        rep = integral_rule_diagnostic(Q1, Monomial(2), [0.5, 1.0, 2.0])
        assert rep.ratio_mean == pytest.approx(1.0, rel=1e-8)
        assert rep.spread_rel < 1e-8

    def test_deformed_ratio_constant(self):
        # desk algebra on powers gives the s-independent ratio (2-q)^2
        for qv, m in ((0.5, 2), (0.9, 3)):
            rep = integral_rule_diagnostic(QParam(qv), Monomial(m), [0.5, 1.0, 2.0, 4.0])
            assert rep.spread_rel < 1e-6
            assert rep.ratio_mean == pytest.approx((2.0 - qv) ** 2, rel=1e-8)

    def test_non_power_rejected(self):
        with pytest.raises(DomainError):
            integral_rule_diagnostic(Q5, Gaussian(1.0), [1.0])

    @pytest.mark.parametrize("q, s", ((QParam(0.6), 1e200), (Q1, 1e300)), ids=("q=0.6", "q=1"))
    def test_underflow_is_typed(self, q, s):
        # the antiderivative's transform underflows to 0: no ratio to report
        with pytest.raises(QLaplaceError, match="underflows"):
            integral_rule_diagnostic(q, Monomial(2), [s])


class TestConvolution:
    def test_constants(self):
        rep = convolution_check_classical(Monomial(1), Monomial(1), 1.0)
        assert rep.lhs == pytest.approx(1.0, rel=1e-8)
        assert rep.rel_err < 1e-8

    def test_exponential_with_constant(self):
        rep = convolution_check_classical(Exponential(1.0, -1), Monomial(1), 1.0)
        assert rep.lhs == pytest.approx(0.5, rel=1e-8)
        assert rep.rel_err < 1e-8

    def test_exponential_pair(self):
        rep = convolution_check_classical(Exponential(1.0, -1), Exponential(1.0, -1), 1.0)
        assert rep.lhs == pytest.approx(0.25, rel=1e-8)
        assert rep.rel_err < 1e-8
