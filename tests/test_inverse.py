"""Post-Widder inversion: classical and deformed estimators, series rule."""

import importlib.util
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlaplace import (
    CATALOG,
    DomainError,
    Exponential,
    Monomial,
    PowerSeriesTransform,
    QGaussian,
    QCosh,
    QCosine,
    QLaplaceError,
    QParam,
    Sine,
    TaylorSeries,
    WidderConfig,
    WidderEstimate,
    catalog_transform,
    q_post_widder,
    roundtrip,
    series_invert,
    widder_weight,
    xi_factor,
)
from qlaplace.inverse import _richardson_weights, _widder_row, extrapolate_schedule
from qlaplace.qmath import _log_power_map, _log_term_sum, _power_map
from pfq_oracle import CATALOG_SPECS
from post_widder_oracle import classical_post_widder

Q5 = QParam(0.5)
Q1 = QParam(1.0)


def one_over_s_plus_one(k, s):
    """Exact k-th derivative of 1/(s+1): (-1)^k k!/(s+1)^(k+1)."""
    return (-1.0) ** k * math.exp(math.lgamma(k + 1) - (k + 1) * math.log(s + 1.0))


class TestClassicalPostWidder:
    def test_constant_is_exact(self):
        # F = 1/s: the k!/s^(k+1) factors cancel identically
        oracle = lambda k, s: (-1.0) ** k * math.exp(math.lgamma(k + 1) - (k + 1) * math.log(s))
        for k in (1, 5, 64):
            assert classical_post_widder(oracle, 1.0, k) == pytest.approx(1.0, rel=1e-12)

    def test_ramp_finite_k_factor(self):
        # F = 1/s^2 -> estimate is exactly t*(k+1)/k
        oracle = lambda k, s: (-1.0) ** k * math.exp(
            math.lgamma(k + 2) - (k + 2) * math.log(s)
        )
        for k in (2, 16, 64):
            got = classical_post_widder(oracle, 2.0, k)
            assert got == pytest.approx(2.0 * (k + 1) / k, rel=1e-12)

    def test_exponential_convergence(self):
        errs = {}
        for k in (16, 32, 64):
            est = classical_post_widder(one_over_s_plus_one, 1.0, k)
            errs[k] = abs(est - math.exp(-1.0)) / math.exp(-1.0)
        assert errs[64] <= 1e-2
        assert 0.4 <= errs[32] / errs[16] <= 0.6
        assert 0.4 <= errs[64] / errs[32] <= 0.6

    def test_validation(self):
        with pytest.raises(DomainError):
            classical_post_widder(one_over_s_plus_one, 0.0, 4)
        with pytest.raises(DomainError):
            classical_post_widder(one_over_s_plus_one, 1.0, 0)

    @pytest.mark.parametrize("t", (math.nan, math.inf))
    def test_non_finite_t(self, t):
        with pytest.raises(DomainError):
            classical_post_widder(one_over_s_plus_one, t, 4)


def loop_fixed_estimate(q, F, t, k, m):
    """Plain-loop fixed-power estimator, term by term with a running log
    binomial: the reference the vectorised estimator is pinned to."""
    s = k * xi_factor(q, m) / t
    total = 0.0
    log_binom = 0.0
    for n, c in enumerate(F.coeffs):
        if n:
            log_binom += math.log((k + n) / n)
        if c != 0.0:
            total += math.copysign(math.exp(math.log(abs(c)) + log_binom - n * math.log(s)), c)
    return (2.0 - q.q) * total


def loop_per_term_estimate(q, F, t, k):
    """Plain-loop per-term estimator sum_n a_n t**n prod_{j<=n} (k+j)/k over
    the Taylor coefficients of the term-wise inverse."""
    total = 0.0
    damp = 1.0
    for n, a in enumerate(series_invert(q, F).coeffs):
        if n:
            damp *= (k + n) / k
        total += a * t**n * damp
    return total


def neville_at_zero(xs, ys):
    """Value at x = 0 of the polynomial through (xs, ys), by Neville's scheme."""
    p = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            p[i] = (-xs[i + level] * p[i] + xs[i] * p[i + 1]) / (xs[i] - xs[i + level])
    return p[0]


REFERENCE_QS = (0.2, 0.6, 0.9)
REFERENCE_FAMILIES = (
    Monomial(3), Exponential(1.0, -1), Sine(1.0), QGaussian(QParam(0.7), 1.0), QCosh(QParam(0.6), 0.8)
)
REFERENCE_TS = (0.1, 0.5, 1.3)


class TestQPostWidderFixed:
    @pytest.mark.parametrize("qv", REFERENCE_QS)
    @pytest.mark.parametrize("f", REFERENCE_FAMILIES, ids=lambda f: f.kind)
    def test_matches_loop_reference(self, qv, f):
        q = QParam(qv)
        F = catalog_transform(q, f, 40)
        for m in (2, 3, 5):
            cfg = WidderConfig((4, 8, 16, 32, 64), fixed_m=m, extrapolate=False)
            for t in REFERENCE_TS:
                for est in q_post_widder(q, F, t, cfg):
                    assert est.value == pytest.approx(loop_fixed_estimate(q, F, t, est.k, m), rel=1e-12)

    def test_overflow_is_typed(self):
        F = PowerSeriesTransform((0.0, 1e300, 1e300), Q5)
        with pytest.raises(QLaplaceError):
            q_post_widder(Q5, F, 1e6, WidderConfig((16, 32, 64), fixed_m=2))

    def test_monomial_law(self):
        # estimate = t^(m-1) * Gamma(m+k) / (k^(m-1) Gamma(k+1)) exactly
        for qv in (0.5, 0.9):
            q = QParam(qv)
            for m in range(2, 7):
                F = catalog_transform(q, Monomial(m))
                cfg = WidderConfig((4, 8, 16, 32, 64), fixed_m=m, extrapolate=False)
                t = 1.3
                for est in q_post_widder(q, F, t, cfg):
                    factor = 1.0
                    for j in range(1, m):
                        factor *= (est.k + j) / est.k
                    assert est.value == pytest.approx(t ** (m - 1) * factor, rel=1e-12)

    def test_convergence_order(self):
        # O(1/k): err(2k)/err(k) near 1/2 once k >= 16
        q = QParam(0.9)
        F = catalog_transform(q, Monomial(3))
        cfg = WidderConfig((16, 32, 64), fixed_m=3, extrapolate=False)
        ests = q_post_widder(q, F, 1.0, cfg)
        errs = [abs(e.value - 1.0) for e in ests]
        assert 0.4 <= errs[1] / errs[0] <= 0.6
        assert 0.4 <= errs[2] / errs[1] <= 0.6

    def test_richardson_improves(self):
        q = QParam(0.5)
        F = catalog_transform(q, Monomial(4))
        cfg = WidderConfig((8, 16, 32, 64), fixed_m=4, extrapolate=True)
        ests = q_post_widder(q, F, 1.0, cfg)
        raw_err = abs(ests[-1].value - 1.0)
        extr_err = abs(ests[-1].extrapolated - 1.0)
        assert extr_err < 1e-2 * raw_err

    def test_richardson_exact_for_quadratic_factor(self):
        # for m = 3 the finite-k factor is quadratic in 1/k, which 3-point
        # extrapolation cancels identically
        q = QParam(0.9)
        F = catalog_transform(q, Monomial(3))
        cfg = WidderConfig((8, 16, 32), fixed_m=3, extrapolate=True)
        ests = q_post_widder(q, F, 2.0, cfg)
        assert ests[-1].extrapolated == pytest.approx(4.0, rel=1e-12)


class TestRichardson:
    @pytest.mark.parametrize(
        "ks", ((64,), (4, 8), (8, 16, 32), (4, 8, 16, 32), (4, 8, 16, 32, 64), (3, 5, 8, 13, 21, 34))
    )
    @pytest.mark.parametrize("fixed_m", (None, 3))
    def test_matches_neville(self, ks, fixed_m):
        # running extrapolation in 1/k over the last (up to) three raw values
        q = QParam(0.6)
        F = catalog_transform(q, Exponential(1.0, -1), 40)
        for t in REFERENCE_TS:
            ests = q_post_widder(q, F, t, WidderConfig(ks, fixed_m))
            assert ests[0].extrapolated is None
            for i in range(1, len(ests)):
                window = ests[max(0, i - 2) : i + 1]
                want = neville_at_zero([1.0 / e.k for e in window], [e.value for e in window])
                assert ests[i].extrapolated == pytest.approx(want, rel=1e-12)

    def test_disabled(self):
        q = QParam(0.6)
        F = catalog_transform(q, Exponential(1.0, -1), 40)
        ests = q_post_widder(q, F, 0.5, WidderConfig((4, 8, 16), extrapolate=False))
        assert all(e.extrapolated is None for e in ests)

    def test_schedule_rows(self):
        ks = (4, 8, 16, 32, 64)
        values = np.random.default_rng(5).normal(size=(3, len(ks)))
        off = extrapolate_schedule(ks, values, enabled=False)
        assert [[e.k for e in row] for row in off] == [list(ks)] * 3
        assert [[e.value for e in row] for row in off] == values.tolist()
        assert all(e.extrapolated is None for row in off for e in row)
        on = extrapolate_schedule(ks, values)
        want = values @ _richardson_weights(ks).T
        assert [[e.value for e in row] for row in on] == values.tolist()
        assert all(row[0].extrapolated is None for row in on)
        assert [[e.extrapolated for e in row[1:]] for row in on] == want[:, 1:].tolist()

    @pytest.mark.parametrize("ks", ((64,), (4, 8), (4, 8, 16, 32, 64), (3, 5, 8, 13, 21, 34)))
    @pytest.mark.parametrize("rows", (1, 3, 10))
    @pytest.mark.parametrize("enabled", (True, False))
    def test_schedule_records_are_the_per_row_records(self, ks, rows, enabled):
        # one map over the raveled values gives every record the per-row route gave, in float hex
        values = np.random.default_rng(rows).normal(size=(rows, len(ks))) * 10.0 ** np.arange(-3, len(ks) - 3)
        values[0, 0] = -0.0
        got = extrapolate_schedule(ks, values, enabled)
        assert [list(map(record_hex, row)) for row in got] == [
            list(map(record_hex, row)) for row in per_row_schedule(ks, values, enabled)]
        assert all(type(row) is tuple for row in got)


def record_hex(e) -> tuple:
    """A WidderEstimate as its type, k and the float hex of its fields (None kept)."""
    return type(e), e.k, e.value.hex(), None if e.extrapolated is None else e.extrapolated.hex()


def per_row_schedule(ks, values, enabled):
    """extrapolate_schedule as it was built one row at a time: the reference for the one-map route."""
    ks, values = [int(k) for k in ks], np.asarray(values, dtype=float)
    if enabled:
        extr = (values @ _richardson_weights(tuple(ks)).T).tolist()
        for row_e in extr:
            row_e[0] = None
    else:
        extr = itertools.repeat(itertools.repeat(None))
    return [list(map(WidderEstimate._make, zip(ks, row, row_e))) for row, row_e in zip(values.tolist(), extr)]


def list_route_transform(q, f, n_terms):
    """catalog_transform by the list route: f's Taylor list, copied into the power map."""
    n_max = f.power - 1 if isinstance(f, Monomial) else n_terms - 1
    return PowerSeriesTransform(_power_map(q, f.taylor_coefficients(n_max)), q, f.cut)


def dense_inverse(q, F):
    """series_invert by the dense inverse map: every coefficient through log|.| and back."""
    x = np.asarray(F.coeffs, dtype=float)
    log_map = _log_power_map(q.eps, len(x).bit_length())[: len(x)]
    with np.errstate(divide="ignore", over="ignore"):
        return TaylorSeries(np.sign(x) * np.exp(np.log(np.abs(x)) + -log_map))


def series_hex(build, *args):
    """The float hex of a built series' coefficients, or the QLaplaceError the build raised."""
    try:
        return [c.hex() for c in build(*args).coeffs]
    except QLaplaceError as exc:
        return type(exc), str(exc)


def entries(key: str):
    """The entries of one CATALOG constructor: several alphas, both signs of the exponentials, and
    for the q-families the terminating q' = 1/2 and 2/3 next to a q' whose series never ends."""
    make = CATALOG[key]
    if key == "monomial":
        return [make(m) for m in (1, 3, 7)]
    deformations = (QParam(0.5), QParam(2.0 / 3.0), QParam(0.85)) if key.startswith("q") else (None,)
    signs = (1, -1) if key.endswith("exponential") else (None,)
    out = []
    for qp, alpha, sign in itertools.product(deformations, (0.8, 2.5), signs):
        args = ((qp,) if qp else ()) + (alpha,) + ((sign,) if sign else ())
        out.append(make(*args))
    return out


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_array_routes_are_the_list_routes_to_the_bit(key):
    # catalog_transform maps f's Taylor array with no list in between, and series_invert maps the
    # transform's own log form: both give the coefficients of the routes they replace, in float hex,
    # or raise the same error
    for f, qv, n_terms in itertools.product(entries(key), (0.3, 0.6, 0.9, 1.0), (4, 21, 40, 200)):
        q = QParam(qv)
        got = series_hex(catalog_transform, q, f, n_terms)
        assert got == series_hex(list_route_transform, q, f, n_terms), (f.label, qv, n_terms)
        if isinstance(got, list):
            F = catalog_transform(q, f, n_terms)
            assert series_hex(series_invert, q, F) == series_hex(dense_inverse, q, F), (f.label, qv, n_terms)


def test_negative_zero_coefficients_map_to_positive_zero():
    # a terminated q-cosine flips the sign of zeros: both maps give +0.0 there, as before
    a = QCosine(QParam(2.0 / 3.0), 2.5).taylor_coefficients(12)
    assert [n for n, c in enumerate(a) if math.copysign(1.0, c) < 0.0 and not c] == [6, 10]
    q = QParam(0.6)
    F = catalog_transform(q, QCosine(QParam(2.0 / 3.0), 2.5), 13)
    assert all(math.copysign(1.0, c) > 0.0 for c in F.coeffs if not c)
    G = PowerSeriesTransform((1.0, -0.0, 0.5, -0.0), q)
    assert series_hex(series_invert, q, G) == series_hex(dense_inverse, q, G)
    assert [math.copysign(1.0, c) for c in series_invert(q, G).coeffs] == [1.0] * 4


class TestWidderEstimate:
    def test_immutable_record(self):
        e = WidderEstimate(8, 0.25)
        assert (e.k, e.value, e.extrapolated) == (8, 0.25, None)
        with pytest.raises(AttributeError):
            e.value = 1.0
        k, value, extrapolated = WidderEstimate(16, 0.5, 0.49)
        assert (k, value, extrapolated) == (16, 0.5, 0.49) == WidderEstimate(16, 0.5, 0.49)


class TestQPostWidderPerTerm:
    @pytest.mark.parametrize("qv", REFERENCE_QS)
    @pytest.mark.parametrize("f", REFERENCE_FAMILIES, ids=lambda f: f.kind)
    def test_matches_loop_reference(self, qv, f):
        q = QParam(qv)
        F = catalog_transform(q, f, 40)
        cfg = WidderConfig((4, 8, 16, 32, 64), None, extrapolate=False)
        for t in REFERENCE_TS:
            for est in q_post_widder(q, F, t, cfg):
                assert est.value == pytest.approx(loop_per_term_estimate(q, F, t, est.k), rel=1e-12)

    def test_converges_to_taylor_sum(self):
        q = QParam(0.6)
        f = Exponential(1.0, -1)
        F = catalog_transform(q, f, 40)
        t = 0.8
        cfg = WidderConfig((8, 32, 128, 512), None, extrapolate=False)
        errs = [abs(e.value - math.exp(-t)) for e in q_post_widder(q, F, t, cfg)]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[-1] < 2e-3

    def test_q1_degenerates_to_classical(self):
        F = PowerSeriesTransform((1.0, 0.5, 0.25, -0.1), Q1)
        cfg = WidderConfig((4, 8, 16, 32, 64), None, extrapolate=False)
        ests = q_post_widder(Q1, F, 0.7, cfg)
        for est in ests:
            classical = classical_post_widder(F.derivative_value, 0.7, est.k)
            assert est.value == pytest.approx(classical, rel=1e-12)

    def test_all_zero_series(self):
        # not empty: its inverse is f = 0, so every estimate is exactly 0
        F = PowerSeriesTransform((0.0, 0.0), Q5)
        for fixed_m in (None, 2):
            for t in (0.5, 1.0, 3.0):
                ests = q_post_widder(Q5, F, t, WidderConfig((4, 8, 16, 32, 64), fixed_m))
                assert [e.k for e in ests] == [4, 8, 16, 32, 64]
                assert all(e.value == 0.0 and e.extrapolated in (None, 0.0) for e in ests)

    @pytest.mark.parametrize("fixed_m", (None, 2))
    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf, 0.0))
    def test_non_finite_or_nonpositive_t(self, t, fixed_m):
        F = catalog_transform(Q5, Sine(1.0), 20)
        with pytest.raises(DomainError):
            q_post_widder(Q5, F, t, WidderConfig((4, 8), fixed_m))

    @pytest.mark.parametrize("t", (np.array([1.0, 2.0]), [[1.0]]), ids=("1-D", "2-D"))
    def test_array_t(self, t):
        # the estimates for t = 1 alone came back, for both shapes
        F = catalog_transform(Q5, Sine(1.0))
        with pytest.raises(DomainError, match=r"t must be a scalar, got an array of shape \("):
            q_post_widder(Q5, F, t)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            WidderConfig((4, 4, 8))
        with pytest.raises(DomainError):
            WidderConfig((8, 4))
        with pytest.raises(DomainError):
            WidderConfig((4, 8), fixed_m=1)
        with pytest.raises(DomainError):
            WidderConfig((4, 8), fixed_m=2.5)
        assert WidderConfig((4, 8), fixed_m=3.0).fixed_m == 3


class TestSeriesInvert:
    def test_monomial_delta(self):
        for m in (1, 2, 5):
            F = catalog_transform(Q5, Monomial(m))
            rec = series_invert(Q5, F)
            expected = [0.0] * m
            expected[m - 1] = 1.0
            assert list(rec.coeffs) == pytest.approx(expected, abs=1e-14)

    def test_exponential(self):
        q = QParam(0.6)
        F = catalog_transform(q, Exponential(1.0, 1), 21)
        rec = series_invert(q, F)
        for n, a in enumerate(rec.coeffs):
            assert a == pytest.approx(1.0 / math.factorial(n), rel=1e-12)

    def test_sine(self):
        q = QParam(0.6)
        alpha = 0.9
        F = catalog_transform(q, Sine(alpha), 21)
        rec = series_invert(q, F)
        for n, a in enumerate(rec.coeffs):
            if n % 2 == 0:
                assert a == 0.0
            else:
                k = (n - 1) // 2
                assert a == pytest.approx((-1.0) ** k * alpha**n / math.factorial(n), rel=1e-12)

    @pytest.mark.parametrize("f", CATALOG_SPECS, ids=lambda f: f.label)
    def test_200_terms(self, f):
        # past n = 170, n! alone overflows; the rule must stay finite
        q = QParam(0.3)
        rec = series_invert(q, catalog_transform(q, f, 200)).coeffs
        assert all(math.isfinite(a) for a in rec)
        for a, want in zip(rec, f.taylor_coefficients(20)):
            assert abs(a - want) <= 1e-10 * max(abs(a), abs(want))

    def test_classical_limit_rule(self):
        # at q = 1 the rule is the plain a_n = c_n / n!
        F = PowerSeriesTransform((2.0, 3.0, 4.0), Q1)
        rec = series_invert(Q1, F)
        assert list(rec.coeffs) == pytest.approx([2.0, 3.0, 2.0], rel=1e-15)

    def test_t_max_from_coefficients(self):
        # one term: exact everywhere, capped; a polynomial: half the root-test radius of its
        # upper half; e**t truncated: where the last term falls to 1e-13 of the first
        assert TaylorSeries((0.0, 2.0)).t_max == 1e3
        assert TaylorSeries((1.0, 0.0, 0.25, 0.0, 0.0)).t_max == pytest.approx(1.0, rel=1e-15)
        ts = TaylorSeries([1.0 / math.factorial(n) for n in range(20)])
        assert ts.t_max == pytest.approx(math.factorial(19) ** (1 / 19) * 1e-13 ** (1 / 19), rel=1e-14)
        assert abs(ts(ts.t_max) - math.exp(ts.t_max)) <= 1e-12 * math.exp(ts.t_max)
        assert "t_max" in vars(ts)

    def test_empty_taylor_series_rejected(self):
        with pytest.raises(DomainError, match="empty Taylor series"):
            TaylorSeries(())

    def test_taylor_series_evaluation(self):
        ts = TaylorSeries((1.0, -1.0, 0.5))
        assert ts(0.0) == 1.0
        assert ts(2.0) == pytest.approx(1.0 - 2.0 + 2.0, rel=1e-15)

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
    def test_taylor_series_non_finite_t(self, t):
        ts = TaylorSeries((1.0, -1.0, 0.5))
        for arg in (t, np.array([0.5, t])):
            with pytest.raises(DomainError):
                ts(arg)


class TestOneQ:
    """A transform carries the q it was built at; inverting it at another q is refused."""

    F = catalog_transform(QParam(0.5), Sine(1.0))

    @pytest.mark.parametrize(
        "invert",
        (lambda q, F: series_invert(q, F)(1.0), lambda q, F: q_post_widder(q, F, 1.0),
         lambda q, F: q_post_widder(q, F, 1.0, WidderConfig((16, 32, 64), fixed_m=2))),
        ids=("series-invert", "post-widder", "post-widder-fixed"),
    )
    @pytest.mark.parametrize("qv", (0.9, 1.0, 0.5 + 1e-12))
    def test_mismatch_names_both(self, invert, qv):
        # series_invert at q = 0.9 gave 0.4224 here against sin 1 = 0.8415, silently
        with pytest.raises(DomainError, match=rf"q = {qv} does not match the transform's q = 0\.5"):
            invert(QParam(qv), self.F)

    def test_same_q_by_value(self):
        assert series_invert(QParam(0.5), self.F)(1.0) == pytest.approx(math.sin(1.0), rel=1e-12)
        assert q_post_widder(QParam(0.5), self.F, 1.0) == q_post_widder(self.F.q, self.F, 1.0)


class TestTaylorValues:
    """Taylor values are the one log-magnitude term sum at |t|, with the parity sign
    (-1)**n where t < 0 and the constant term at t = 0."""

    # c of the bound c*u*sum|a_n t**n| against a 40-digit sum of the same coefficients: each
    # term is exp of its log magnitude, so it carries about |log|a_n t**n||*u; the largest
    # ratio measured on this grid is 8.2 (Horner's is 2.8), doubled and rounded up to 16
    C = 16.0

    @pytest.mark.parametrize("qv", (0.3, 0.6, 0.9, 1.0))
    @pytest.mark.parametrize("f", CATALOG_SPECS, ids=lambda f: f.label)
    def test_against_mpmath(self, f, qv):
        mpmath = pytest.importorskip("mpmath")
        q = QParam(qv)
        for n_terms in (16, 21, 24, 40):
            ts = series_invert(q, catalog_transform(q, f, n_terms))
            t = np.linspace(-1.0, 1.0, 33) * ts.t_max  # t = 0 in the middle
            values = ts(t)
            assert values[16] == ts(0.0) == ts.coeffs[0]
            for x, v in zip(t.tolist(), values.tolist()):
                with mpmath.workdps(40):
                    terms = [mpmath.mpf(a) * mpmath.mpf(x) ** n for n, a in enumerate(ts.coeffs)]
                    want, scale = mpmath.fsum(terms), float(mpmath.fsum(map(abs, terms)))
                    errors = [float(abs(mpmath.mpf(got) - want)) for got in (v, ts(x))]
                assert max(errors) <= self.C * 2.0**-53 * scale, (n_terms, x)


def _load_benchmark_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOneValidation:
    """Both series views are checked once, by qmath.PowerSeries: an empty series is a
    DomainError and a non-finite coefficient a QLaplaceError naming it; a Taylor value
    past double range raises instead of overflowing to inf."""

    VIEWS = ((TaylorSeries, "Taylor"), (lambda c: PowerSeriesTransform(c, Q5), "transform"))

    def test_empty(self):
        for make, what in self.VIEWS:
            with pytest.raises(DomainError, match=f"empty {what} series"):
                make(())

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_coefficient(self, bad):
        for make, what in self.VIEWS:
            with pytest.raises(QLaplaceError, match=f"{what} coefficient c_1 = ") as info:
                make((1.0, bad, 2.0))
            assert not isinstance(info.value, DomainError)

    def test_value_past_double_range(self):
        ts = TaylorSeries((1e300, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e10, -1e10, np.array([1.0, 1e10])):
                with pytest.raises(QLaplaceError, match="overflows"):
                    ts(t)

    def test_t_max_keeps_every_term_in_double_range(self):
        # t**120 passes DBL_MAX below t = 1e3: t_max stops where |a_n| t**n reaches
        # DBL_MAX/len(coeffs), so the roundtrip grid of Monomial(m >= 104) stays finite
        ts = TaylorSeries((0.0,) * 120 + (1.0,))
        assert ts.t_max == pytest.approx((sys.float_info.max / 121) ** (1 / 120), rel=1e-14)
        assert math.isfinite(ts(ts.t_max)) and math.isfinite(ts(-ts.t_max))
        assert TaylorSeries((1.0, 1e-300)).t_max == 1e3
        for m in (104, 120, 400):
            rep = roundtrip(Q5, Monomial(m), 20)
            assert all(e <= 1e-9 for e in rep.pointwise_errors), m

    def test_benchmark_invert200_inputs_do_not_raise(self):
        # the 39 fixed 200-term series_invert ops of the benchmark's series-inverse workload
        inputs = _load_benchmark_inputs()
        cases = inputs.invert200_inputs()
        assert len(cases) == 39
        for qv, spec in cases:
            q = QParam(qv)
            rec = series_invert(q, catalog_transform(q, inputs.build_family(spec), 200))
            assert all(math.isfinite(a) for a in rec.coeffs), (qv, spec)


class TestFiniteKFactor:
    """R(k, p) = Gamma(k+p+1)/(Gamma(k+1) k**p), the factor every finite-k
    estimate carries, is q_poly(2-q, p) at 1-q = 1/k."""

    @pytest.mark.parametrize("p", (9.0, 9.5, 49.5))
    def test_large_k_against_mpmath(self, p):
        # an lgamma difference for the fractional part floored at 3e-8 (k = 2**24)
        mpmath = pytest.importorskip("mpmath")
        ks = (2**20, 2**24, 2**27)
        got = _log_term_sum(*_widder_row(np.zeros(1), np.ones(1), p, ks), [1.0], "R")[0]
        for k, r in zip(ks, got):
            with mpmath.workdps(50):
                want = mpmath.exp(mpmath.loggamma(k + p + 1) - mpmath.loggamma(k + 1) - p * mpmath.log(k))
            assert abs(r - want) <= 1e-14 * want, k


class TestRoundtrip:
    def test_monomial_exact(self):
        rep = roundtrip(Q5, Monomial(3), 8)
        assert rep.max_coeff_rel_err <= 1e-14

    def test_qgaussian(self):
        rep = roundtrip(Q5, QGaussian(QParam(0.7), 1.0), 16)
        assert rep.max_coeff_rel_err <= 1e-10

    def test_qcosh_terminating(self):
        rep = roundtrip(QParam(0.9), QCosh(QParam(0.8), 0.5), 16)
        assert rep.max_coeff_rel_err <= 1e-10

    def test_pointwise(self):
        rep = roundtrip(QParam(0.6), Exponential(1.0, -1), 24)
        assert max(rep.pointwise_errors) < 1e-9

    @pytest.mark.parametrize("qv", (0.3, 0.6, 0.9))
    @pytest.mark.parametrize("n_terms", (16, 20, 21, 24))
    def test_pointwise_on_t_max_grid(self, qv, n_terms):
        # the reconstructed series against f on [0, t_max], t_max read off its coefficients
        for f in CATALOG_SPECS:
            rep = roundtrip(QParam(qv), f, n_terms)
            assert max(rep.pointwise_errors) <= 1e-9, f.label

    def test_minimum_terms(self):
        with pytest.raises(DomainError):
            roundtrip(Q5, Monomial(2), 3)


class TestWidderWeight:
    def test_zero_at_origin(self):
        assert widder_weight(Q5, 1, 0.0) == 0.0
        assert widder_weight(Q1, 3, 0.0) == 0.0

    def test_classical_form(self):
        y = 0.7
        for k in (1, 4, 9):
            assert widder_weight(Q1, k, y) == pytest.approx((y * math.exp(-y)) ** k, rel=1e-13)

    def test_known_point(self):
        assert widder_weight(Q5, 1, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_cutoff(self):
        # support ends at 1/((1-q)k)
        assert widder_weight(Q5, 4, 0.5) == 0.0
        assert widder_weight(Q5, 4, 0.499) > 0.0

    def test_unimodal_peak_at_one(self):
        # wherever y = 1 lies inside the support ((1-q)k < 1) the grid
        # maximum sits at y = 1
        cases = [(1.0, k) for k in (1, 2, 4, 8, 16, 32, 64)]
        cases += [(0.3, 1), (0.6, 1), (0.6, 2), (0.9, 1), (0.9, 4), (0.9, 9)]
        for qv, k in cases:
            q = QParam(qv)
            upper = 1.0 / ((1.0 - qv) * k) if qv < 1.0 else 8.0
            ys = np.linspace(0.0, min(upper * 0.999999, 8.0), 20001)
            vals = widder_weight(q, k, ys)
            peak = ys[int(np.argmax(vals))]
            assert abs(peak - 1.0) < 1e-3, (qv, k, peak)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            widder_weight(Q5, 1, -0.5)
