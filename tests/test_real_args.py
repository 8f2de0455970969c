"""The one real-argument rule: every real input of the library is checked by `qmath._real_arg`,
so nan, inf, -inf and an out-of-range value each raise a DomainError naming the argument and
the value it got ("{name} = {value}"), and an array given for a scalar one naming its shape."""

import math

import numpy as np
import pytest

from qlaplace import (
    Cosine,
    DomainError,
    IdealGasModel,
    Monomial,
    OscillatorModel,
    QGaussian,
    QParam,
    Sine,
    TaylorSeries,
    catalog_transform,
    convolution_check_classical,
    density_of_states,
    derivative_rule_check,
    forward_numeric,
    ideal_gas_partition_quadrature,
    integral_rule_diagnostic,
    integrate,
    integrate_half_line,
    kernel_pair_integral,
    linearity_check,
    partition_function,
    q_log,
    q_post_widder,
    qderivative_of_transform_check,
    qintegral_of_transform_check,
    scaling_check,
    shift_kernel_factor,
    translation_check,
    widder_weight,
    xi_factor,
)

Q6 = QParam(0.6)
Q1 = QParam(1.0)
F = catalog_transform(Q6, Sine(1.0))
MONO2, MONO3, DECAY = Monomial(2), Monomial(3), Cosine(1.0)
DOS = density_of_states(Q6, IdealGasModel(3, 2), [1.0])  # analytic(E) is 0 at E <= 0: finite only

# (id, call of the one bad value x, the argument's name, an out-of-range value or None where
# only finiteness is required); every other argument of the call is valid
ENTRY_POINTS = (
    ("catalog-alpha", lambda x: QGaussian(Q6, x), "alpha", 0.0),
    ("series-value", lambda x: F.value(x), "s", 0.0),
    ("series-value-array", lambda x: F.value(np.array([2.0, x])), "s", -1.0),
    ("series-derivative", lambda x: F.derivative_value(2, x), "s", -1.0),
    ("forward-numeric", lambda x: forward_numeric(Q6, DECAY, x), "s", 0.0),
    ("forward-numeric-q1", lambda x: forward_numeric(Q1, DECAY, x), "s", -1.0),
    ("kernel-pair-s", lambda x: kernel_pair_integral(Q6, x, 1.0), "s", 0.0),
    ("kernel-pair-s-prime", lambda x: kernel_pair_integral(Q6, 2.0, x), "s_prime", 3.0),
    ("scaling-a", lambda x: scaling_check(Q6, MONO2, x, 1.0), "a", 0.0),
    ("shift-s", lambda x: shift_kernel_factor(Q6, x, 1.0, 0.1), "s", None),
    ("shift-s0", lambda x: shift_kernel_factor(Q6, 2.0, x, 0.1), "s0", None),
    ("shift-t", lambda x: shift_kernel_factor(Q6, 2.0, 1.0, x), "t", None),
    ("translation-t0", lambda x: translation_check(Q6, MONO2, x, 1.0), "t0", -1.0),
    ("translation-s", lambda x: translation_check(Q6, MONO2, 0.1, x), "s", 0.0),
    ("qderivative-s", lambda x: qderivative_of_transform_check(Q6, MONO2, 1, x), "s", 0.0),
    ("qintegral-s", lambda x: qintegral_of_transform_check(Q6, MONO3, x), "s", -1.0),
    ("integral-rule-s", lambda x: integral_rule_diagnostic(Q6, MONO2, [1.0, x]), "s", 0.0),
    ("linearity-a1", lambda x: linearity_check(Q6, MONO2, x, DECAY, -0.5, 1.0), "a1", None),
    ("linearity-a2", lambda x: linearity_check(Q6, MONO2, 2.0, DECAY, x, 1.0), "a2", None),
    ("taylor-t", lambda x: TaylorSeries((1.0, 2.0))(x), "t", None),
    ("taylor-t-array", lambda x: TaylorSeries((1.0, 2.0))(np.array([0.5, x])), "t", None),
    ("post-widder-t", lambda x: q_post_widder(Q6, F, x), "t", 0.0),
    ("widder-weight-y", lambda x: widder_weight(Q6, 3, x), "y", -1.0),
    ("gas-V", lambda x: IdealGasModel(1, 2, V=x), "V", 0.0),
    ("gas-mass", lambda x: IdealGasModel(1, 2, mass=x), "mass", -1.0),
    ("gas-h", lambda x: IdealGasModel(1, 2, h=x), "h", 0.0),
    ("oscillator-omega", lambda x: OscillatorModel(1, 3, omega=x), "omega", 0.0),
    ("oscillator-hbar", lambda x: OscillatorModel(1, 3, hbar=x), "hbar", -1.0),
    ("gas-beta", lambda x: partition_function(Q6, IdealGasModel(1, 2), x), "beta", 0.0),
    ("oscillator-beta", lambda x: partition_function(Q6, OscillatorModel(1, 3), x), "beta", -1.0),
    ("gas-quadrature-beta", lambda x: ideal_gas_partition_quadrature(Q6, IdealGasModel(1, 2), x), "beta", 0.0),
    ("density-of-states-E", lambda x: density_of_states(Q6, IdealGasModel(3, 2), [1.0, x]), "E", 0.0),
    ("dos-analytic-E", lambda x: DOS.analytic(x), "E", None),
    ("dos-analytic-E-array", lambda x: DOS.analytic(np.array([1.0, x])), "E", None),
    ("q-log-x", lambda x: q_log(Q6, x), "x", 0.0),
    ("q-log-x-q1", lambda x: q_log(Q1, np.array([1.0, x])), "x", -1.0),
    ("xi-factor-m", lambda x: xi_factor(Q6, x), "m", 1.5),
    ("half-line-scale", lambda x: integrate_half_line(np.exp, scale=x), "scale", 0.0),
    ("integrate-a", lambda x: integrate(np.exp, x, 3.0), "a", None),
    ("integrate-b", lambda x: integrate(np.exp, 0.0, x), "b", None),
    ("derivative-rule-s", lambda x: derivative_rule_check(Q6, MONO2, 1, x), "s", 0.0),
    ("convolution-s", lambda x: convolution_check_classical(DECAY, DECAY, x), "s", 0.0),
)
# the entries whose argument takes an array; every other one is a scalar
ARRAY_ENTRIES = {
    "series-value", "series-value-array", "series-derivative", "taylor-t", "taylor-t-array", "widder-weight-y",
    "density-of-states-E", "dos-analytic-E", "dos-analytic-E-array", "q-log-x", "q-log-x-q1", "integral-rule-s",
}
SCALAR_ENTRIES = [e for e in ENTRY_POINTS if e[0] not in ARRAY_ENTRIES]

CASES = [
    pytest.param(call, name, bad, id=f"{entry}-{bad}")
    for entry, call, name, out_of_range in ENTRY_POINTS
    for bad in (math.nan, math.inf, -math.inf, out_of_range)
    if bad is not None
]


@pytest.mark.parametrize("call, name, bad", CASES)
def test_bad_real_argument_is_a_named_domain_error(call, name, bad):
    # kernel_pair_integral at s = inf returned 0.0 and q_log returned nan or inf, both silently
    with pytest.raises(DomainError) as info:
        call(bad)
    assert f"{name} = {bad}" in str(info.value)


@pytest.mark.parametrize("call, name, out_of_range", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS])
def test_message_form(call, name, out_of_range):
    rule = "finite" if out_of_range is None else "finite and (positive|nonnegative|>= 2)"
    with pytest.raises(DomainError, match=f"^{name} must be {rule}, got {name} = nan$"):
        call(math.nan)


@pytest.mark.parametrize("call, name", [e[1:3] for e in SCALAR_ENTRIES], ids=[e[0] for e in SCALAR_ENTRIES])
def test_array_for_a_scalar_is_a_named_domain_error(call, name):
    # numpy's broadcast ValueError, "truth value of an array is ambiguous", a TypeError or a
    # QuadratureError naming nothing, each from deeper in the call, before the shape rule
    with pytest.raises(DomainError, match=rf"^{name} must be a scalar, got an array of shape \(2,\)$"):
        call(np.array([1.5, 2.5]))


def test_zero_dimensional_array_is_a_scalar():
    assert forward_numeric(Q6, DECAY, np.array(2.0)) == forward_numeric(Q6, DECAY, 2.0)
    gas = IdealGasModel(1, 2)
    assert partition_function(Q6, gas, np.array(1.5)) == partition_function(Q6, gas, 1.5)
    assert integrate(np.exp, np.array(0.0), np.array(1.0)) == integrate(np.exp, 0.0, 1.0)


@pytest.mark.parametrize(
    "from_array, from_float",
    (
        (lambda: QGaussian(QParam(0.6), np.array(0.9)), lambda: QGaussian(QParam(0.6), 0.9)),
        (lambda: IdealGasModel(1, 2, V=np.array(2.0)), lambda: IdealGasModel(1, 2, V=2.0)),
        (lambda: OscillatorModel(1, 2, omega=np.float64(1.5)), lambda: OscillatorModel(1, 2, omega=1.5)),
    ),
    ids=("catalog", "gas", "oscillator"),
)
def test_zero_dimensional_field_is_stored_as_a_float(from_array, from_float):
    # a 0-d array field was kept as given, and hash() of the frozen instance raised TypeError
    entry, want = from_array(), from_float()
    assert entry == want and hash(entry) == hash(want) and repr(entry) == repr(want)
