"""Deformed special-function layer: frozen values and algebraic invariants."""

import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlaplace import DomainError, QLaplaceError, QParam, q_exp, q_log, q_poly, q_product_arg, xi_factor
from qlaplace import QCosh, QCosine, QExponential, QSine, QSinh
from qlaplace.catalog import _scaled
from qlaplace.qmath import _log_q_poly, _log_term_sum, _q_exp_u, _radius
from qlaplace.transform import _kernel_table

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
                got = _log_q_poly((1.0 - qv,), m, 1)[0, 0]
                assert got == pytest.approx(math.log(q_poly(2.0 - qv, m)), rel=1e-13, abs=1e-14)

    def test_log_domain_past_overflow(self):
        # q_poly(1.5, 600) ~ exp(2.5e3) is beyond double range; its log is not
        m = 600
        want = sum(math.log1p(0.5 * j) for j in range(1, m + 1))
        assert _log_q_poly((0.5,), m, 1)[0, 0] == pytest.approx(want, rel=1e-13)
        xi = xi_factor(QParam(0.5), m)
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


def checked_term_sum(log_w, sign, powers, x):
    """The series sum with every overflow left in (inf or nan), for comparison."""
    log_x = np.log(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * np.ndim(log_w))
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.exp(log_w + log_x * powers) * sign).sum(axis=-1)


class TestLogTermSum:
    """The one series evaluator: a sum that can leave double range raises, naming it."""

    @pytest.mark.parametrize(
        "log_w",
        (
            np.array([709.8]),  # the term itself overflows
            np.full(200, 705.0),  # each term finite, their sum past DBL_MAX
            np.array([0.0, math.nan, 1.0]),  # a nan weight
        ),
        ids=("one-term", "sum", "nan"),
    )
    def test_overflow_raises(self, log_w):
        n = len(log_w)
        with pytest.raises(QLaplaceError, match="the probe"):
            _log_term_sum(log_w, np.ones(n), np.zeros(n), [1.0], "the probe")

    def test_below_threshold_is_the_checked_sum(self):
        # largest exponent just under 709 - log(200), mixed signs, powers and two rows of x
        rng = np.random.default_rng(3)
        powers = np.arange(200.0)
        x = np.array([0.5, 2.0])
        log_w = rng.uniform(600.0, 700.0, 200) - powers * np.log(2.0)
        log_w += 709.0 - math.log(200.0) - 1e-9 - (log_w + powers * math.log(2.0)).max()
        sign = rng.choice((-1.0, 1.0), 200)
        got = _log_term_sum(log_w, sign, powers, x, "sum")
        assert np.array_equal(got, checked_term_sum(log_w, sign, powers, x))
        assert np.all(np.isfinite(got))

    def test_above_threshold_finite_sum(self):
        # 200 terms at 704 > 709 - log(200) take the checked route and still sum to e**709.3
        log_w = np.full(200, 704.0)
        got = _log_term_sum(log_w, np.ones(200), np.zeros(200), [1.0], "sum")
        assert got[0] == checked_term_sum(log_w, np.ones(200), np.zeros(200), [1.0])[0]
        assert got[0] == pytest.approx(200.0 * math.exp(704.0), rel=1e-13)


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


class TestPowerBody:
    """`_q_exp_u(u, a)`, the body of every deformed power: (1 + u)**a, exactly 0 at and past
    1 + u <= 0 for either sign of a, nan at a nan, no RuntimeWarning, any shape."""

    DEAD = (-1.0, -1.0 - 2.0**-52, -2.0, -1e300, -math.inf)

    @pytest.mark.parametrize("a", (2.0, 1.0, 1e-9, 0.0, -0.5, -3.5))
    def test_zero_at_and_past_the_cutoff(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _q_exp_u(np.array(self.DEAD), a)
            assert got.tolist() == [0.0] * len(self.DEAD) and not np.signbit(got).any()
            for u in self.DEAD:
                assert float(_q_exp_u(np.array(u), a)) == 0.0
            live = np.array([[-0.5, 0.0, 3.0], [-1.0, math.nan, -2.0]])
            out = _q_exp_u(live, a)
            assert out.shape == (2, 3)
            assert out[0].tolist() == pytest.approx([0.5**a, 1.0, 4.0**a], rel=1e-15)
            assert out[1, 0] == out[1, 2] == 0.0 and math.isnan(out[1, 1])
        assert np.geterr()["divide"] == "warn"  # the errstate block is left behind

    def test_nan_stays_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (1.0, -2.0):
                assert math.isnan(_q_exp_u(np.array(math.nan), a))
                assert np.isnan(_q_exp_u(np.array([math.nan, 0.5]), a)[0])

    def test_shapes(self):
        u = np.linspace(-0.9, 2.0, 6)
        want = np.exp(np.log1p(u) * 1.5)
        assert _q_exp_u(u, 1.5).tobytes() == want.tobytes()
        assert _q_exp_u(u.reshape(2, 3), 1.5).tobytes() == want.tobytes()
        assert _q_exp_u(u.reshape(2, 3), 1.5).shape == (2, 3)
        assert np.shape(_q_exp_u(np.array(0.25), 1.5)) == () and np.shape(_q_exp_u(np.float64(0.25), 1.5)) == ()
        assert float(_q_exp_u(np.array(0.25), 1.5)) == pytest.approx(1.25**1.5, rel=1e-15)
        assert _q_exp_u(np.empty(0), 1.5).shape == (0,)

    @pytest.mark.parametrize("order", (0, 1, 2, 3, 4))
    def test_catalog_derivatives_cut_for_either_sign_of_the_power(self, order):
        # at q' = 0.5, order >= 2 makes the power 1 - order*(1 - q') <= 0: still exactly 0 at
        # and past the cut, on the array and the scalar route, with no warning
        for f in (QExponential(QParam(0.5), 1.3, -1), QSinh(QParam(0.5), 1.3)):
            t = np.array([f.cut, f.cut * (1.0 + 2.0**-52), 2.0 * f.cut, 1e300])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d = f.derivative(order)
                if isinstance(f, QExponential):
                    assert d(t).tolist() == [0.0] * 4
                    assert [d(x) for x in t.tolist()] == [0.0] * 4
                else:  # only the decaying branch is cut: the odd part is half the growing one
                    grow = QExponential(QParam(0.5), 1.3, 1).derivative(order)
                    assert d(t[:3]).tolist() == (0.5 * grow(t[:3])).tolist()

    @pytest.mark.parametrize("order", (0, 1, 2, 3, 4))
    @pytest.mark.parametrize("qprime", (0.3, 0.5, 0.9, 1.0 - 1e-9))
    def test_circular_modulus_is_the_body(self, order, qprime):
        # the circular pair writes the body's exp(a*log1p(u)) at u = w*w without its cutoff
        # test (w*w >= 0): the same bits as the body itself on a w grid through 0, out to where
        # the modulus (1 + w*w)**(1/(2e)) nears exp(500)
        e, alpha = 1.0 - qprime, 1.7
        w_max = min(1e3, math.sqrt(math.expm1(1000.0 * e)))
        w_grid = np.geomspace(1e-12, w_max, 40)
        t = np.concatenate([-w_grid[::-1], [0.0], w_grid]) / (e * alpha)
        w = (e * alpha) * t
        modulus = _scaled(e, alpha, order, _q_exp_u(w * w, (1.0 - order * e) / (2.0 * e)))
        angle = (1.0 / e - order) * np.arctan(w)
        shift = order * math.pi / 2.0 if order else 0.0
        for f, circ in ((QCosine(QParam(qprime), alpha), np.cos), (QSine(QParam(qprime), alpha), np.sin)):
            want = modulus * circ(angle + shift if order else angle)
            assert f.derivative(order)(t).tobytes() == want.tobytes()

    def test_hyperbolic_scale_is_read_only(self):
        f = QCosh(QParam(0.6), 1.3)
        with pytest.raises(ValueError):
            f._u_scale[0, 0] = 2.0
        assert f == QCosh(QParam(0.6), 1.3) and f(0.5) == QCosh(QParam(0.6), 1.3)(0.5)


# sha256 of the bytes of (x, kernel, (1-q*u)**2) of `_kernel_table(q, p)`, as computed before the
# deformed catalog families moved to the shared power body: the kernel route did not move
KERNEL_TABLES = {
    (0.3, 0.0): "d0f00a0028370b65ad79138b0e603092734ca8e3b59c7cc11544521a4e200830",
    (0.3, 0.3): "bcb1dfc34403fede72886e55b1e38e24fb7695d96f445edb9f2d8e0575950276",
    (0.3, 1.0): "aa6d20b1573336e055d45e5ad29cbbfc6bf9af3dfbad36ddb3d74a5ab40b34bf",
    (0.6, 0.0): "3018cfe9ceeda90ffe79c6cd39114c2551efef9155605698fd6d0344b99dd8c9",
    (0.6, 0.6): "7ea0ea17c6bad8422fd1d130b516d40d08e8f072231de4b93c785440b7f7337e",
    (0.6, 1.0): "2bbf788fc8dda7cd5f1904df1740424a12a604be64557feb2cba38108802ad85",
    (0.9, 0.0): "d2f39fc876bf11ad730cdcf4df71007733ccac8ce1f87d0c935e5218ad4edb4c",
    (0.9, 0.9): "f1715dd9171dbf56fc2d81134e7c9bd14c86fcf807ee8c2b815c44ee50d94196",
    (0.9, 1.0): "4c121dd4480ef73e2d4578d845635f93a26b958272176ab358116bb305e0fd6a",
    (1.0, 0.0): "ed4c14671425754062d9d135b04a66a037466ac9174b2254a31f7f5e0dd9168a",
    (1.0, 1.0): "b6c901b5778c405e21d4df8d6e43e794a4644bd071d5abb338fc83efca535cd5",
}

Q_EXP_XS = (-3.0, -1.25, -0.5, 0.0, 1e-300, 0.7, 2.0, 40.0)
Q_EXP_HEX = {
    0.3: ("0x0.0p+0", "0x1.a402feeb9c534p-5", "0x1.14b23fb5447ccp-1", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.c488178ea3437p+0", "0x1.bf102b7203839p+1", "0x1.eb224cef8a3b1p+6"),
    0.6: ("0x0.0p+0", "0x1.6a09e667f3bcdp-3", "0x1.2515fdab8464ep-1", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.da88051ea83f5p+0", "0x1.1633dfc9ceabcp+2", "0x1.29e4f62ec9a94p+10"),
    0.9: ("0x1.ceceb4e8dc4b5p-6", "0x1.0d63af1000000p-2", "0x1.328da5e9df385p-1", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.f7973b39d737bp+0", "0x1.8c4568d7ea3e2p+2", "0x1.2a05f20000010p+23"),
    1.0 - 1e-9: ("0x1.97db0cae2045cp-5", "0x1.2561836ecd18bp-2", "0x1.368b2fc652a7dp-1", "0x1.0000000000000p+0",
                 "0x1.0000000000000p+0", "0x1.01c2a611595cep+1", "0x1.d8e64b7d6fadbp+2", "0x1.a220bdab922cfp+57"),
    1.0: ("0x1.97db0ccceb0afp-5", "0x1.25618372a584fp-2", "0x1.368b2fc6f960ap-1", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.01c2a61268987p+1", "0x1.d8e64b8d4ddaep+2", "0x1.a220d397972eap+57"),
}


@pytest.mark.parametrize("key", sorted(KERNEL_TABLES))
def test_kernel_table_is_pinned(key):
    digest = hashlib.sha256(b"".join(a.tobytes() for a in _kernel_table(*key))).hexdigest()
    assert digest == KERNEL_TABLES[key]


@pytest.mark.parametrize("qv", sorted(Q_EXP_HEX))
def test_q_exp_is_pinned(qv):
    want = list(Q_EXP_HEX[qv])
    assert [float.hex(q_exp(QParam(qv), x)) for x in Q_EXP_XS] == want
    assert [float.hex(x) for x in q_exp(QParam(qv), np.array(Q_EXP_XS)).tolist()] == want
