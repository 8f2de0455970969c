"""Partition functions and density-of-states recovery."""

import dataclasses
import math

import numpy as np
import pytest

from qlaplace import (
    DomainError,
    IdealGasModel,
    OscillatorModel,
    PowerSeriesTransform,
    QLaplaceError,
    QParam,
    WidderConfig,
    density_of_states,
    ideal_gas_partition_quadrature,
    partition_function,
    q_post_widder,
    widder_weight,
    xi_factor,
)
from post_widder_oracle import classical_post_widder

Q5 = QParam(0.5)
Q1 = QParam(1.0)


class TestIdealGasPartition:
    def test_frozen_value(self):
        # D=1, N=2, unit constants, q=1/2, beta=1 -> 2*pi/3
        z = partition_function(Q5, IdealGasModel(1, 2), 1.0)
        assert z == pytest.approx(2.0 * math.pi / 3.0, rel=1e-13)

    def test_beta_scaling(self):
        model = IdealGasModel(2, 3, V=0.7, mass=1.3, h=0.9)
        q = QParam(0.8)
        ratio = partition_function(q, model, 2.0) / partition_function(q, model, 1.0)
        assert ratio == pytest.approx(2.0 ** (-model.D * model.N / 2.0), rel=1e-13)

    def test_classical_limit_ladder(self):
        model = IdealGasModel(1, 2)
        beta = 1.3
        dn = model.D * model.N
        classical = (
            model.V**model.N
            * (2.0 * math.pi * model.mass / beta) ** (dn / 2.0)
            / (model.h**dn * math.factorial(model.N))
        )
        prev = None
        for qv in (0.99, 0.999, 0.9999):
            ratio = partition_function(QParam(qv), model, beta) / classical
            err = abs(ratio - 1.0)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-3

    def test_rejects_bad_beta(self):
        with pytest.raises(DomainError):
            partition_function(Q5, IdealGasModel(1, 2), 0.0)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            IdealGasModel(20, 11)

    def test_validation(self):
        with pytest.raises(DomainError):
            IdealGasModel(1, 1)  # D*N/2 < 1
        with pytest.raises(DomainError):
            IdealGasModel(1, 2, V=-1.0)


class TestOscillatorPartition:
    def test_frozen_value(self):
        z = partition_function(Q5, OscillatorModel(1, 1), 1.0)
        assert z == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_beta_scaling(self):
        model = OscillatorModel(2, 2, omega=1.7, hbar=0.8)
        q = QParam(0.7)
        ratio = partition_function(q, model, 2.0) / partition_function(q, model, 1.0)
        assert ratio == pytest.approx(2.0 ** (-4.0), rel=1e-13)

    def test_classical_limit(self):
        model = OscillatorModel(1, 1, omega=2.0)
        beta = 0.9
        classical = 1.0 / (beta * model.hbar * model.omega)
        err = abs(partition_function(QParam(0.9999), model, beta) / classical - 1.0)
        assert err < 1e-3


class TestLargeOrder:
    """D*N near the 200 guard, where q_poly(2-q, m) itself can overflow a double."""

    def test_partition_stays_in_log_domain(self):
        model = OscillatorModel(2, 100)
        log_qpoly = sum(math.log1p(0.5 * j) for j in range(1, 201))
        z = partition_function(Q5, model, 1e-3)
        assert z == pytest.approx(math.exp(-log_qpoly - 200 * math.log(1e-3)), rel=1e-11)
        assert math.isfinite(partition_function(Q5, model, 1e3))

    def test_overflow_is_typed(self):
        with pytest.raises(QLaplaceError):
            partition_function(Q5, OscillatorModel(2, 100, hbar=1e-5), 1.0)
        with pytest.raises(QLaplaceError):
            density_of_states(Q5, OscillatorModel(2, 100, hbar=1e-5), [1.0, 2.0])

    def test_density_of_states_finite_k_factor(self):
        cfg = WidderConfig((16, 32, 64), None, extrapolate=False)
        for qv in (0.05, 0.5):
            dos = density_of_states(QParam(qv), OscillatorModel(1, 180), [180.0], cfg)
            m = 180
            for est in dos.k_estimates[0][1]:
                k = est.k
                log_g = (m - 1) * math.log(180.0) - math.lgamma(m)
                log_factor = math.lgamma(m + k) - math.lgamma(k + 1) - (m - 1) * math.log(k)
                assert est.value == pytest.approx(math.exp(log_g + log_factor), rel=1e-10)


class TestBruteForceCrossCheck:
    def test_matches_closed_form(self):
        model = IdealGasModel(1, 2)
        for qv, beta in ((0.5, 1.0), (0.8, 1.7)):
            q = QParam(qv)
            brute = ideal_gas_partition_quadrature(q, model, beta)
            closed = partition_function(q, model, beta)
            assert brute == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("model", (IdealGasModel(1, 2), IdealGasModel(2, 1, V=2.0, mass=0.7, h=1.3)),
                             ids=("D1-N2", "D2-N1"))
    def test_radial_integral_matches_closed_form_across_q_and_beta(self, model):
        # the radial quadrature against the Gamma-ratio closed form, far inside criterion 9's 1e-6
        for qv in np.linspace(0.01, 0.999, 40).tolist():
            q = QParam(qv)
            for beta in (1e-3, 0.3, 1.0, 4.0, 1e3):
                closed = partition_function(q, model, beta)
                assert abs(ideal_gas_partition_quadrature(q, model, beta) - closed) <= 1e-12 * closed, (qv, beta)

    def test_requires_two_degrees(self):
        with pytest.raises(DomainError):
            ideal_gas_partition_quadrature(Q5, IdealGasModel(3, 2), 1.0)


class TestDensityOfStates:
    def test_gas_exponent_and_prefactor(self):
        # D=3, N=2: transform power 3, so g ~ E^2
        dos = density_of_states(QParam(0.9), IdealGasModel(3, 2), [1.0])
        assert dos.exponent == pytest.approx(2.0)
        model = IdealGasModel(3, 2)
        expected = math.exp(model.log_prefactor) / math.factorial(2)
        assert dos.prefactor == pytest.approx(expected, rel=1e-13)

    def test_oscillator_analytic(self):
        # D=1, N=3, unit hbar*omega: g(E) = E^2/2
        dos = density_of_states(QParam(0.6), OscillatorModel(1, 3), [1.0, 2.0])
        assert dos.analytic(1.0) == pytest.approx(0.5, rel=1e-13)
        assert dos.analytic(2.0) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, g2", ((OscillatorModel(1, 3), 2.0), (OscillatorModel(1, 1, omega=2.0), 0.5)),
                             ids=("m=3", "m=1"))
    def test_analytic_vanishes_below_zero_energy(self, model, g2):
        # at m = 1 (exponent 0) the power at E = 0 was 0 * log 0: a nan and a RuntimeWarning
        dos = density_of_states(QParam(0.6), model, [1.0])
        assert dos.analytic(0.0) == dos.analytic(-1.0) == 0.0
        assert list(dos.analytic([-1.0, 0.0, 2.0])) == [0.0, 0.0, pytest.approx(g2, rel=1e-13)]

    def test_analytic_overflow_raises(self):
        dos = density_of_states(QParam(0.5), OscillatorModel(1, 180), [170.0])
        with pytest.raises(QLaplaceError, match="overflows"):
            dos.analytic(1e6)

    def test_q_independence(self):
        cfg = WidderConfig((64,), None, extrapolate=False)
        values = []
        prefactors = []
        for qv in (0.3, 0.6, 0.9):
            dos = density_of_states(QParam(qv), IdealGasModel(3, 2), [1.7], cfg)
            values.append(dos.samples[0][1])
            prefactors.append(dos.prefactor)
        assert all(abs(v - values[0]) / values[0] < 1e-12 for v in values)
        assert all(abs(p - prefactors[0]) / prefactors[0] < 1e-12 for p in prefactors)

    def test_finite_k_factor(self):
        cfg = WidderConfig((64,), None, extrapolate=False)
        dos = density_of_states(QParam(0.6), OscillatorModel(1, 3), [2.0], cfg)
        m, k = 3, 64
        factor = (k + 1) * (k + 2) / k**2
        got = dos.samples[0][1]
        assert got == pytest.approx(dos.analytic(2.0) * factor, rel=1e-10)

    def test_monotone_improvement(self):
        cfg = WidderConfig((4, 8, 16, 32, 64), None, extrapolate=False)
        dos = density_of_states(QParam(0.9), IdealGasModel(3, 2), [1.0], cfg)
        (_, ests), = dos.k_estimates
        truth = float(dos.analytic(1.0))
        errs = [abs(e.value - truth) for e in ests]
        assert errs == sorted(errs, reverse=True)

    def test_half_integer_power(self):
        # D*N odd: transform power 2.5 via the gamma-ratio continuation
        cfg = WidderConfig((64,), None, extrapolate=False)
        dos = density_of_states(QParam(0.7), IdealGasModel(1, 5), [1.0], cfg)
        m, k = 2.5, 64
        factor = math.exp(
            math.lgamma(m + k) - math.lgamma(k + 1) - (m - 1.0) * math.log(k)
        )
        assert dos.samples[0][1] == pytest.approx(float(dos.analytic(1.0)) * factor, rel=1e-10)

    def test_extrapolated_sample_close(self):
        dos = density_of_states(QParam(0.9), IdealGasModel(3, 2), [1.0])
        truth = float(dos.analytic(1.0))
        assert dos.samples[0][1] == pytest.approx(truth, rel=1e-10)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(3, 2), [])
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(3, 2), [1.0, -2.0])
        # [[1.0, 2.0]] gave one sample, the estimate at E = 1.0 keyed by the whole row
        for grid in ([[1.0, 2.0]], [[1, 2], [3, 4]]):
            with pytest.raises(DomainError, match=r"E must be a scalar or a nonempty 1-D grid"):
                density_of_states(QParam(0.6), IdealGasModel(3, 2), grid)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_energy(self, bad):
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(3, 2), [1.0, bad])


def mp_prefactor(model):
    """The q-free prefactor of Z_q = prefactor / q_poly(2-q, m) * beta**-m from the model's
    constants, at the caller's mpmath precision."""
    mpmath = pytest.importorskip("mpmath")
    dn = model.D * model.N
    if isinstance(model, IdealGasModel):
        return (mpmath.mpf(model.V) ** model.N * (2 * mpmath.pi * model.mass) ** (mpmath.mpf(dn) / 2)
                / (mpmath.mpf(model.h) ** dn * mpmath.factorial(model.N)))
    return (mpmath.mpf(model.hbar) * model.omega) ** -dn


def mp_finite_k(model, E, k):
    """g(E) * R(k, m-1), R(k, p) = Gamma(k+p+1)/(Gamma(k+1) k**p), from the model's constants
    at 40 digits: the raw finite-k density of states, whatever q."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.mpf(model.transform_power)
        g = mp_prefactor(model) * mpmath.mpf(E) ** (m - 1) / mpmath.gamma(m)
        return g * mpmath.gamma(k + m) / (mpmath.gamma(k + 1) * mpmath.mpf(k) ** (m - 1))


class TestFiniteKAgainstMpmath:
    """The raw finite-k density of states is g(E) * R(k, m-1) at every m >= 1 and q."""

    @pytest.mark.parametrize(
        "model, bound",
        (
            (IdealGasModel(2, 1), 1e-14),  # m = 1, one particle in 2-D
            (OscillatorModel(1, 1), 1e-14),  # m = 1, the 1-D linear oscillator
            (IdealGasModel(3, 1), 1e-14),  # m = 1.5, one particle in 3-D
            (IdealGasModel(1, 5), 1e-14),  # m = 2.5
            (IdealGasModel(3, 2), 1e-14),  # m = 3
            (IdealGasModel(2, 5, V=0.7, mass=1.3, h=0.9), 1e-14),  # m = 5
            (OscillatorModel(1, 7, omega=1.7, hbar=0.8), 1e-14),  # m = 7
            (IdealGasModel(3, 7), 1e-14),  # m = 10.5
            (OscillatorModel(3, 4), 1e-14),  # m = 12
            # past m of about 12 the log-magnitude exponents carry more: these bounds are the
            # errors of the weight (2-q) C/(Gamma(m) xi**(m-1)), which the prefactor replaced
            (IdealGasModel(3, 40), 7.25e-14),  # m = 60
            (OscillatorModel(2, 30), 5.88e-14),  # m = 60
            (OscillatorModel(1, 149), 2.65e-13),  # m = 149
        ),
        ids=repr,
    )
    def test_raw_estimates(self, model, bound):
        cfg, m = WidderConfig((4, 8, 16, 32, 64, 128), extrapolate=False), model.transform_power
        for qv in (0.3, 0.6, 1.0):
            dos = density_of_states(QParam(qv), model, [0.3 * m, m, 2.0 * m], cfg)
            for E, ests in dos.k_estimates:
                for est in ests:
                    want = mp_finite_k(model, E, est.k)
                    assert abs(est.value - want) <= bound * want, (qv, E, est.k)


class TestXiAtOwnOrder:
    """density_of_states takes xi at the model's own m: it is the per-term q_post_widder
    estimate of the one-term series C * s**-m, and a fixed_m is refused."""

    @pytest.mark.parametrize(
        "model, bound",
        (
            (IdealGasModel(1, 4), 4e-15),  # m = 2
            (IdealGasModel(3, 2), 4e-15),  # m = 3
            (IdealGasModel(2, 5, V=0.7, mass=1.3, h=0.9), 4e-15),  # m = 5
            (OscillatorModel(1, 2), 4e-15),  # m = 2
            (OscillatorModel(1, 7, omega=1.7, hbar=0.8), 4e-15),  # m = 7
            # past m of about 10 the log-magnitude exponents carry a few 1e-14
            (OscillatorModel(2, 20), 6e-14),  # m = 40
            (IdealGasModel(3, 40), 6e-14),  # m = 60
        ),
        ids=repr,
    )
    def test_matches_per_term_post_widder(self, model, bound):
        cfg, m = WidderConfig(extrapolate=False), int(model.transform_power)
        for qv in (0.1, 0.3, 0.5, 0.9, 0.999, 1.0):
            q = QParam(qv)
            # Z_q(beta) = C * beta**-m with C = Z_q(1)
            F = PowerSeriesTransform((0.0,) * (m - 1) + (partition_function(q, model, 1.0),), q)
            dos = density_of_states(q, model, [0.3 * m, m, 2.0 * m], cfg)
            for E, ests in dos.k_estimates:
                for got, want in zip(ests, q_post_widder(q, F, E, cfg), strict=True):
                    assert got.k == want.k
                    assert abs(got.value - want.value) <= bound * want.value, (qv, E, got.k)

    @pytest.mark.parametrize("fixed_m", (2, 3, 5))
    def test_fixed_m_is_refused(self, fixed_m):
        # fixed_m = 3 is the model's own m, and still refused: there is no second order to choose
        with pytest.raises(DomainError, match=f"fixed_m = {fixed_m}"):
            density_of_states(Q5, IdealGasModel(3, 2), [1.0], WidderConfig(fixed_m=fixed_m))


class TestModelChecks:
    """Both models run the one set of checks, in one order, with one set of messages."""

    @pytest.mark.parametrize("cls", (IdealGasModel, OscillatorModel))
    @pytest.mark.parametrize(
        "D, N, match",
        (
            (0, 3, "D must be an integer >= 1, got D = 0"),
            (3, 0, "N must be an integer >= 1, got N = 0"),
            (20, 11, r"D\*N > 200 rejected \(overflow guard\)"),
            (0, 1000, "D must be"),  # D is checked before the overflow guard
        ),
    )
    def test_shared_checks(self, cls, D, N, match):
        with pytest.raises(DomainError, match=match):
            cls(D, N)

    @pytest.mark.parametrize("cls", (IdealGasModel, OscillatorModel))
    def test_constant_checked_before_the_guard(self, cls):
        field = dataclasses.fields(cls)[-1].name
        with pytest.raises(DomainError, match=f"{field} must be finite and positive"):
            cls(20, 11, **{field: -1.0})


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    @pytest.mark.parametrize("field", ("V", "mass", "h"))
    def test_gas(self, field, bad):
        with pytest.raises(DomainError, match="finite"):
            IdealGasModel(1, 2, **{field: bad})

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    @pytest.mark.parametrize("field", ("omega", "hbar"))
    def test_oscillator(self, field, bad):
        with pytest.raises(DomainError, match="finite"):
            OscillatorModel(1, 3, **{field: bad})

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    @pytest.mark.parametrize(
        "call, named",
        (
            (lambda x: partition_function(Q5, IdealGasModel(1, 2), x), "beta"),
            (lambda x: partition_function(Q5, OscillatorModel(1, 1), x), "beta"),
            (lambda x: ideal_gas_partition_quadrature(Q5, IdealGasModel(1, 2), x), "beta"),
            (lambda x: widder_weight(Q5, 3, x), "y"),
            (lambda x: xi_factor(Q5, x), "m"),
        ),
        ids=("gas", "oscillator", "gas-quadrature", "widder-weight", "xi-factor"),
    )
    def test_argument_is_named(self, call, named, bad):
        # each used to return nan or 0, warn, or raise an error naming another quantity
        with pytest.raises(DomainError, match=f"{named} = {bad}"):
            call(bad)


def mp_partition(q, model, beta):
    """Z_q(beta) = prefactor / q_poly(2-q, m) * beta**-m from the model's
    constants, q_poly as (1-q)**m Gamma(z+m+1)/Gamma(z+1), z = 1/(1-q), at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        e = 1 - mpmath.mpf(q.q)
        m = mpmath.mpf(model.transform_power)
        q_poly = e**m * mpmath.gamma(1 / e + m + 1) / mpmath.gamma(1 / e + 1)
        return mp_prefactor(model) / q_poly * mpmath.mpf(beta) ** -m


class TestClassicalContinuity:
    """q -> 1-: the Gamma ratio is taken at 1-q itself, without cancellation."""

    @pytest.mark.parametrize("j", range(4, 13))
    def test_partitions_against_mpmath(self, j):
        q = QParam(1.0 - 10.0**-j)
        models = (
            IdealGasModel(1, 3, V=0.7, mass=1.3, h=0.9),  # m = 1.5
            IdealGasModel(3, 2),  # m = 3
            OscillatorModel(1, 3, omega=1.7, hbar=0.8),
            OscillatorModel(2, 5),
        )
        for model in models:
            want = mp_partition(q, model, 1.3)
            assert abs(partition_function(q, model, 1.3) - want) <= 1e-14 * want, model

    def test_oscillator_at_one_minus_1e8(self):
        # the Gamma ratio at 1/(2-q-1) was 1.8e-7 off here
        q, model = QParam(1.0 - 1e-8), OscillatorModel(1, 3)
        want = mp_partition(q, model, 1.0)
        assert abs(partition_function(q, model, 1.0) - want) <= 1e-14 * want


class TestClassicalQ:
    """q = 1: the q_poly factor and xi are 1, so Z and the Post-Widder estimates of g(E)
    are the classical ones."""

    def test_gas_partition(self):
        model = IdealGasModel(2, 3, V=0.7, mass=1.3, h=0.9)
        beta, dn = 1.3, 6
        classical = model.V**model.N * (2.0 * math.pi * model.mass / beta) ** (dn / 2.0) / (
            model.h**dn * math.factorial(model.N)
        )
        assert partition_function(Q1, model, beta) == pytest.approx(classical, rel=1e-14)

    def test_oscillator_partition(self):
        model = OscillatorModel(2, 2, omega=1.7, hbar=0.8)
        beta = 0.9
        assert partition_function(Q1, model, beta) == pytest.approx((beta * 0.8 * 1.7) ** -4.0, rel=1e-14)

    @pytest.mark.parametrize("model", (IdealGasModel(3, 2, V=0.7), OscillatorModel(1, 3, omega=2.0)),
                             ids=("gas", "oscillator"))
    def test_density_of_states_is_classical_post_widder(self, model):
        # Z = C beta**-m: F^(k)(s) = C (-1)**k Gamma(m+k)/Gamma(m) s**-(m+k)
        m = model.transform_power
        log_c = model.log_prefactor
        oracle = lambda k, s: (-1.0) ** k * math.exp(log_c + math.lgamma(m + k) - math.lgamma(m) - (m + k) * math.log(s))
        cfg = WidderConfig((4, 16, 64), None, extrapolate=False)
        dos = density_of_states(Q1, model, [0.5, 2.0], cfg)
        for e, ests in dos.k_estimates:
            for est in ests:
                assert est.value == pytest.approx(classical_post_widder(oracle, e, est.k), rel=1e-12)
        assert dos.analytic(2.0) == pytest.approx(math.exp(log_c) * 2.0 ** (m - 1) / math.gamma(m), rel=1e-13)

    def test_brute_force_needs_q_below_1(self):
        # the momentum disc of radius 1/sqrt((1-q) beta/(2 mass)) is unbounded at q = 1
        with pytest.raises(DomainError, match="q < 1"):
            ideal_gas_partition_quadrature(Q1, IdealGasModel(1, 2), 1.0)
