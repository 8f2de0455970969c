"""Deformed special-function layer: frozen values and algebraic invariants."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlaplace import DomainError, QParam, q_exp, q_log, q_poly, q_product_arg, xi_factor
from qlaplace.qmath import _log_q_poly, _log_q_poly_real, _radius, _xi_factor_real

Q_GRID = (0.3, 0.6, 0.9)


def test_qparam_validation():
    QParam(1.0)
    QParam(1e-6)
    with pytest.raises(DomainError):
        QParam(0.0)
    with pytest.raises(DomainError):
        QParam(1.2)
    with pytest.raises(DomainError):
        QParam(-0.5)


class TestQExp:
    def test_direct_value(self):
        # (1 + 0.5*(-1))**2 = 0.25
        assert q_exp(QParam(0.5), -1.0) == pytest.approx(0.25, rel=1e-15)

    def test_cutoff(self):
        # 1 + 0.5*(-3) = -0.5 <= 0
        assert q_exp(QParam(0.5), -3.0) == 0.0
        assert q_exp(QParam(0.5), -2.0) == 0.0  # boundary is cut too

    def test_classical(self):
        assert q_exp(QParam(1.0), 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_cutoff_consistency_with_kernel(self):
        # q_exp(-s*t) vanishes exactly from t = 1/((1-q)s) on
        for qv in Q_GRID:
            q = QParam(qv)
            for s in (0.5, 1.0, 3.0):
                t_star = 1.0 / ((1.0 - qv) * s)
                for fac in (1.0, 1.001, 2.0, 10.0):
                    assert q_exp(q, -s * t_star * fac) == 0.0
                assert q_exp(q, -s * t_star * 0.999) > 0.0

    def test_monotone_classical_limit(self):
        xs = [-5.0 + 0.5 * i for i in range(21)]
        prev = None
        for qv in (0.99, 0.999, 0.9999):
            err = max(abs(q_exp(QParam(qv), x) - math.exp(x)) for x in xs)
            if prev is not None:
                assert err < prev
            prev = err

    def test_vectorized(self):
        import numpy as np

        out = q_exp(QParam(0.5), np.array([-1.0, -3.0, 0.0]))
        assert out.tolist() == [0.25, 0.0, 1.0]


class TestQLog:
    def test_direct_value(self):
        assert q_log(QParam(0.5), 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_identity_point(self):
        for qv in (0.2, 0.7, 1.0):
            assert q_log(QParam(qv), 1.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            q_log(QParam(0.5), 0.0)
        with pytest.raises(DomainError):
            q_log(QParam(0.5), -1.0)

    @given(
        qv=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0 - 1e-5)),
        x=st.floats(min_value=-2.0, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, qv, x):
        # q too close to 1 is excluded: the roundtrip error grows like
        # eps_mach/(1-q), which is why q = 1 has an exact branch
        q = QParam(qv)
        if 1.0 + q.eps * x <= 1e-6:
            return  # too close to the cutoff for a clean roundtrip
        assert q_log(q, q_exp(q, x)) == pytest.approx(x, rel=1e-9, abs=1e-9)


class TestQProductArg:
    def test_classical_additivity(self):
        assert q_product_arg(QParam(1.0), 2.0, 3.0) == 5.0

    def test_direct_value(self):
        assert q_product_arg(QParam(0.5), 1.0, 1.0) == pytest.approx(2.5, rel=1e-15)

    def test_shift_proof_combination(self):
        # x = -s*t, y = s0*t/(1-(1-q)st) combine to -(s-s0)*t
        q, s, s0, t = QParam(0.5), 2.0, 1.0, 0.5
        x = -s * t
        y = s0 * t / (1.0 - q.eps * s * t)
        assert q_product_arg(q, x, y) == pytest.approx(-(s - s0) * t, rel=1e-14)

    @given(
        qv=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0 - 1e-5)),
        x=st.floats(min_value=-0.9, max_value=2.0),
        y=st.floats(min_value=-0.9, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_product_rule(self, qv, x, y):
        q = QParam(qv)
        combined = q_product_arg(q, x, y)
        if min(1.0 + q.eps * x, 1.0 + q.eps * y, 1.0 + q.eps * combined) <= 1e-6:
            return
        lhs = q_exp(q, x) * q_exp(q, y)
        assert lhs == pytest.approx(q_exp(q, combined), rel=1e-10)


class TestQPoly:
    def test_direct_value(self):
        # (1 + 0.5)(1 + 1.0) = 3
        assert q_poly(1.5, 2) == pytest.approx(3.0, rel=1e-15)

    def test_empty_product(self):
        assert q_poly(0.37, 0) == 1.0

    def test_classical(self):
        assert q_poly(1.0, 5) == 1.0

    def test_negative_order(self):
        with pytest.raises(DomainError):
            q_poly(1.5, -1)

    @given(
        x=st.floats(min_value=1.0, max_value=1.9),
        m=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200)
    def test_recurrence(self, x, m):
        assert q_poly(x, m) == pytest.approx(q_poly(x, m - 1) * (1.0 - (1.0 - x) * m), rel=1e-12)


class TestXiFactor:
    def test_direct_value(self):
        assert xi_factor(QParam(0.5), 2) == pytest.approx(0.5, rel=1e-15)

    def test_classical(self):
        for m in (2, 5, 11):
            assert xi_factor(QParam(1.0), m) == 1.0

    def test_m3(self):
        # ((2-q)/Q_3(2-q))**(1/2) at q = 0.9: Q_3(1.1) = 1.1*1.2*1.3
        expected = math.sqrt(1.1 / (1.1 * 1.2 * 1.3))
        assert xi_factor(QParam(0.9), 3) == pytest.approx(expected, rel=1e-14)

    def test_defining_identity(self):
        for qv in Q_GRID:
            q = QParam(qv)
            for m in range(2, 13):
                lhs = xi_factor(q, m) ** (m - 1) * q_poly(2.0 - qv, m)
                assert lhs == pytest.approx(2.0 - qv, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            xi_factor(QParam(0.5), 1)


class TestRealOrderQPoly:
    def test_log_matches_integer_product(self):
        for qv in (0.1, 0.5, 0.9):
            for m in (0, 1, 2, 7, 40):
                got = _log_q_poly_real(2.0 - qv, m)
                assert got == pytest.approx(math.log(q_poly(2.0 - qv, m)), rel=1e-13, abs=1e-14)

    def test_log_domain_past_overflow(self):
        # q_poly(1.5, 600) ~ exp(2.5e3) is beyond double range; its log is not
        m = 600
        want = sum(math.log1p(0.5 * j) for j in range(1, m + 1))
        assert _log_q_poly_real(1.5, m) == pytest.approx(want, rel=1e-13)
        xi = _xi_factor_real(QParam(0.5), m)
        assert math.log(xi) == pytest.approx((math.log(1.5) - want) / (m - 1), rel=1e-13)


# 1-q from 1 down to 2**-27 (1/k for the finite-k factor R(k, p)), orders with
# and without a fractional part
MP_EPS = (1.0, 0.5, 0.25, 0.1, 1 / 64, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 2.0**-20, 2.0**-24, 2.0**-27)
MP_ORDERS = (0.5, 2, 3, 3.5, 9, 9.5, 49.5, 60.5, 199, 199.5)


def mp_log_q_poly(eps, m):
    """log((1-q)**m Gamma(z+m+1)/Gamma(z+1)), z = 1/(1-q), at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        return m * mpmath.log(e) + mpmath.loggamma(1 / e + m + 1) - mpmath.loggamma(1 / e + 1)


class TestOneQPolyRoutine:
    """qmath._log_q_poly: q_poly at real order, xi and R(k, p) = q_poly at 1-q = 1/k."""

    def test_against_mpmath(self):
        for m in MP_ORDERS:
            for eps, got in zip(MP_EPS, _log_q_poly(MP_EPS, m, 1)[:, 0]):
                want = mp_log_q_poly(eps, m)
                assert abs(got - want) <= 1e-14 * abs(want), (eps, m)

    def test_fractional_orders_against_mpmath(self):
        for f in (0.25, 0.5, 0.9):
            for eps, got in zip(MP_EPS, _log_q_poly(MP_EPS, f, 1)[:, 0]):
                want = mp_log_q_poly(eps, f)
                assert abs(got - want) <= 1e-14 * abs(want), (eps, f)

    def test_run_of_orders_is_the_single_orders(self):
        run = _log_q_poly(MP_EPS, 2.5, 6)
        for i in range(6):
            assert np.array_equal(run[:, i], _log_q_poly(MP_EPS, 2.5 + i, 1)[:, 0])

    def test_classical_is_zero(self):
        assert not np.any(_log_q_poly((0.0,), 3.5, 4))

    @given(q_arg=st.floats(min_value=1.0, max_value=2.0, exclude_max=True), m=st.integers(min_value=0, max_value=400))
    @settings(max_examples=300)
    def test_integer_orders_match_product(self, q_arg, m):
        # 1-q = q_arg - 1 exactly, so both sides see the same product; the
        # float product carries about m roundings
        product = q_poly(q_arg, m)
        assume(math.isfinite(product))
        got = _log_q_poly((q_arg - 1.0,), m, 1)[0, 0]
        assert got == pytest.approx(math.log(product), rel=1e-14, abs=4e-16 * (m + 1))

    def test_xi_factor_past_product_overflow(self):
        # q_poly(1.9, 200) overflows: the float product gave xi = 0.0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = mpmath.exp((mpmath.log(2 - mpmath.mpf(0.1)) - mp_log_q_poly(0.9, 200)) / 199)
        assert abs(xi_factor(QParam(0.1), 200) - want) <= 1e-14 * want

    def test_domain(self):
        with pytest.raises(DomainError):
            _log_q_poly((0.5,), -0.5, 1)
        with pytest.raises(DomainError):  # refused before any table is allocated
            xi_factor(QParam(0.5), 2**40)
        with pytest.raises(DomainError):
            _log_q_poly((0.5, -0.1), 2.0, 1)


def radius(x):
    """`_radius` of the series with coefficients x."""
    x = np.asarray(x, dtype=float)
    n = np.flatnonzero(x)
    return _radius(n, np.log(np.abs(x[n])), len(x))


class TestRadius:
    """The one validity rule, on series whose radius is known."""

    def test_at_most_one_term_is_exact_everywhere(self):
        for x in ((), (0.0, 0.0), (0.0, 3.0, 0.0, 0.0)):
            assert radius(x) == math.inf

    def test_terminated_series(self):
        # (1 - y/4)**4 ends before its last two slots: half the root-test radius of the
        # upper half of its terms, n = 2, 3, 4, where |x_n| = C(4, n)/4**n
        x = [math.comb(4, n) * (-0.25) ** n for n in range(5)] + [0.0] * 3
        want = min((math.comb(4, n) / 4.0**n) ** (-1.0 / n) for n in (2, 3, 4)) / 2.0
        assert radius(x) == pytest.approx(want, rel=1e-15)

    def test_truncated_geometric(self):
        # 1/(1 - y/3) to 200 terms: half the radius 3, the tail bound sits past it
        assert radius(3.0 ** -np.arange(200.0)) == pytest.approx(1.5, rel=1e-13)

    def test_truncated_tail_bound(self):
        # the last of 10 terms of 1/(1 - y/3) falls to 1e-13 of the first at y = 3e-13**(1/9)
        assert radius(3.0 ** -np.arange(10.0)) == pytest.approx(3.0 * 1e-13 ** (1 / 9), rel=1e-13)

    def test_every_other_term(self):
        # cos: the last nonzero term one slot before the end is still a truncated series
        x = [(-1.0) ** (n // 2) / math.factorial(n) if n % 2 == 0 else 0.0 for n in range(40)]
        half_root = min(math.factorial(n) ** (1 / n) for n in range(20, 40, 2)) / 2.0  # n = 20
        tail = math.factorial(38) ** (1 / 38) * 1e-13 ** (1 / 38)
        assert radius(x) == pytest.approx(min(half_root, tail), rel=1e-13)

    def test_overflowing_radius_is_inf(self):
        assert _radius(np.arange(3), np.array([0.0, -800.0, -1600.0]), 3) == math.inf


class TestBridgeIdentities:
    """Product identities linking Pochhammer symbols (mpmath.rf) to the q_poly
    products (these are what collapse the hypergeometric transforms back to
    the original series under term-wise inversion)."""

    def test_exponential_bridge(self):
        for qv in Q_GRID:
            e = 1.0 - qv
            for n in range(31):
                lhs = float(mpmath.rf((3.0 - 2.0 * qv) / e, n)) * e**n
                rhs = q_poly(2.0 - qv, n + 1) / q_poly(2.0 - qv, 1)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gaussian_bridge(self):
        for qv in Q_GRID:
            e = 1.0 - qv
            for n in range(31):
                lhs = float(mpmath.rf((3.0 - 2.0 * qv) / (2.0 * e), n) * mpmath.rf((4.0 - 3.0 * qv) / (2.0 * e), n))
                rhs = q_poly(2.0 - qv, 2 * n + 1) / (4.0**n * e ** (2 * n) * q_poly(2.0 - qv, 1))
                assert lhs == pytest.approx(rhs, rel=1e-12)
