"""Partition functions and density-of-states recovery."""

import math

import pytest

from qlaplace import (
    DomainError,
    IdealGasModel,
    OscillatorModel,
    QLaplaceError,
    QParam,
    WidderConfig,
    density_of_states,
    ideal_gas_partition,
    ideal_gas_partition_quadrature,
    oscillator_partition,
)

Q5 = QParam(0.5)


class TestIdealGasPartition:
    def test_frozen_value(self):
        # D=1, N=2, unit constants, q=1/2, beta=1 -> 2*pi/3
        z = ideal_gas_partition(Q5, IdealGasModel(1, 2), 1.0)
        assert z == pytest.approx(2.0 * math.pi / 3.0, rel=1e-13)

    def test_beta_scaling(self):
        model = IdealGasModel(2, 3, V=0.7, mass=1.3, h=0.9)
        q = QParam(0.8)
        ratio = ideal_gas_partition(q, model, 2.0) / ideal_gas_partition(q, model, 1.0)
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
            ratio = ideal_gas_partition(QParam(qv), model, beta) / classical
            err = abs(ratio - 1.0)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-3

    def test_rejects_classical_and_bad_beta(self):
        with pytest.raises(DomainError):
            ideal_gas_partition(QParam(1.0), IdealGasModel(1, 2), 1.0)
        with pytest.raises(DomainError):
            ideal_gas_partition(Q5, IdealGasModel(1, 2), 0.0)

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
        z = oscillator_partition(Q5, OscillatorModel(1, 1), 1.0)
        assert z == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_beta_scaling(self):
        model = OscillatorModel(2, 2, omega=1.7, hbar=0.8)
        q = QParam(0.7)
        ratio = oscillator_partition(q, model, 2.0) / oscillator_partition(q, model, 1.0)
        assert ratio == pytest.approx(2.0 ** (-4.0), rel=1e-13)

    def test_classical_limit(self):
        model = OscillatorModel(1, 1, omega=2.0)
        beta = 0.9
        classical = 1.0 / (beta * model.hbar * model.omega)
        err = abs(oscillator_partition(QParam(0.9999), model, beta) / classical - 1.0)
        assert err < 1e-3


class TestLargeOrder:
    """D*N near the 200 guard, where q_poly(2-q, m) itself can overflow a double."""

    def test_partition_stays_in_log_domain(self):
        model = OscillatorModel(2, 100)
        log_qpoly = sum(math.log1p(0.5 * j) for j in range(1, 201))
        z = oscillator_partition(Q5, model, 1e-3)
        assert z == pytest.approx(math.exp(-log_qpoly - 200 * math.log(1e-3)), rel=1e-11)
        assert math.isfinite(oscillator_partition(Q5, model, 1e3))

    def test_overflow_is_typed(self):
        with pytest.raises(QLaplaceError):
            oscillator_partition(Q5, OscillatorModel(2, 100, hbar=1e-5), 1.0)
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
            closed = ideal_gas_partition(q, model, beta)
            assert brute == pytest.approx(closed, rel=1e-6)

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
    def test_analytic_vanishes_below_zero_energy(self):
        dos = density_of_states(QParam(0.6), OscillatorModel(1, 3), [1.0])
        assert list(dos.analytic([-1.0, 0.0, 2.0])) == [0.0, 0.0, pytest.approx(2.0, rel=1e-13)]

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

    def test_power_too_small(self):
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(1, 2), [1.0])  # m = 1
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(1, 3), [1.0])  # m = 1.5
        with pytest.raises(DomainError):
            density_of_states(Q5, OscillatorModel(1, 1), [1.0])  # m = 1

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(3, 2), [])
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(3, 2), [1.0, -2.0])

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_energy(self, bad):
        with pytest.raises(DomainError):
            density_of_states(Q5, IdealGasModel(3, 2), [1.0, bad])


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


def mp_partition(q, model, beta):
    """Z_q(beta) = prefactor / q_poly(2-q, m) * beta**-m from the model's
    constants, q_poly as (1-q)**m Gamma(z+m+1)/Gamma(z+1), z = 1/(1-q), at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        e = 1 - mpmath.mpf(q.q)
        m = mpmath.mpf(model.transform_power)
        if isinstance(model, IdealGasModel):
            dn = model.D * model.N
            pref = (mpmath.mpf(model.V) ** model.N * (2 * mpmath.pi * model.mass) ** (mpmath.mpf(dn) / 2)
                    / (mpmath.mpf(model.h) ** dn * mpmath.factorial(model.N)))
        else:
            pref = (mpmath.mpf(model.hbar) * model.omega) ** -m
        q_poly = e**m * mpmath.gamma(1 / e + m + 1) / mpmath.gamma(1 / e + 1)
        return pref / q_poly * mpmath.mpf(beta) ** -m


class TestClassicalContinuity:
    """q -> 1-: the Gamma ratio is taken at 1-q itself, without cancellation."""

    @pytest.mark.parametrize("j", range(4, 13))
    def test_partitions_against_mpmath(self, j):
        q = QParam(1.0 - 10.0**-j)
        cases = (
            (ideal_gas_partition, IdealGasModel(1, 3, V=0.7, mass=1.3, h=0.9)),  # m = 1.5
            (ideal_gas_partition, IdealGasModel(3, 2)),  # m = 3
            (oscillator_partition, OscillatorModel(1, 3, omega=1.7, hbar=0.8)),
            (oscillator_partition, OscillatorModel(2, 5)),
        )
        for partition, model in cases:
            want = mp_partition(q, model, 1.3)
            assert abs(partition(q, model, 1.3) - want) <= 1e-14 * want, model

    def test_oscillator_at_one_minus_1e8(self):
        # the Gamma ratio at 1/(2-q-1) was 1.8e-7 off here
        q, model = QParam(1.0 - 1e-8), OscillatorModel(1, 3)
        want = mp_partition(q, model, 1.0)
        assert abs(oscillator_partition(q, model, 1.0) - want) <= 1e-14 * want
