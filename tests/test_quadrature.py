"""Adaptive integration engine basics."""

import math
import re

import numpy as np
import pytest

from qlaplace import (
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
    QuadratureConfig,
    QuadratureError,
    Sine,
    Sinh,
    forward_numeric,
    integrate,
    integrate_half_line,
)
from qlaplace import quadrature
from qlaplace.quadrature import dyadic_breakpoints


def test_polynomial_exact():
    assert integrate(lambda t: 3.0 * t**2, 0.0, 2.0) == pytest.approx(8.0, rel=1e-13)


def test_oscillatory():
    val = integrate(np.sin, 0.0, 10.0)
    assert val == pytest.approx(1.0 - math.cos(10.0), rel=1e-11)


def test_kink():
    val = integrate(lambda t: np.abs(t - 0.3), 0.0, 1.0)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    assert val == pytest.approx(exact, rel=1e-10)


def test_small_scale_feature_with_breakpoints():
    # sharp bump at 1e-6 scale inside a unit interval
    val = integrate(
        lambda t: np.exp(-t / 1e-6) / 1e-6,
        0.0,
        1.0,
        breakpoints=dyadic_breakpoints(0.0, 1.0),
    )
    assert val == pytest.approx(1.0, rel=1e-9)


def test_half_line():
    assert integrate_half_line(lambda t: np.exp(-t)) == pytest.approx(1.0, rel=1e-11)
    assert integrate_half_line(lambda t: np.exp(-t / 7.0), scale=7.0) == pytest.approx(7.0, rel=1e-11)


def test_scalar_only_callable_fallback():
    val = integrate(lambda t: float(t) ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def value_error_on_arrays(t):
        if np.ndim(t):
            raise ValueError("arrays not supported")
        return t * t

    assert integrate(value_error_on_arrays, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_empty_and_reversed_interval():
    assert integrate(lambda t: t, 1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        integrate(lambda t: t, 2.0, 1.0)


@pytest.mark.parametrize("a, b", ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)))
def test_non_finite_limits(a, b):
    with pytest.raises(DomainError, match="finite"):
        integrate(lambda t: t, a, b)


@pytest.mark.parametrize("scale", (math.nan, math.inf, 0.0))
def test_half_line_scale_validation(scale):
    with pytest.raises(DomainError, match="scale"):
        integrate_half_line(np.exp, scale=scale)


def test_non_finite_sample():
    with pytest.raises(QuadratureError):
        integrate(lambda t: np.where(t < 0.5, np.inf, 1.0), 0.0, 1.0)


def test_overflow_is_typed_without_warning():
    # finite samples whose panel value, or whose sum of panels, passes double range;
    # the suite turns an escaped numpy RuntimeWarning into an error
    big = lambda t: np.full_like(t, 5e307)  # noqa: E731
    with pytest.raises(QuadratureError, match="non-finite panel value"):
        integrate(big, 0.0, 8.0)
    with pytest.raises(QuadratureError, match="overflows"):
        integrate(big, 0.0, 6.0, breakpoints=[1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(QuadratureError, match="non-finite integrand sample"):
        integrate(lambda t: np.exp(1e3 * t), 0.0, 1.0)


def test_half_line_scalar_only_callable():
    assert integrate_half_line(lambda t: math.exp(-t)) == pytest.approx(1.0, rel=1e-11)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unreachable_tolerance_near_pole():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / (t - 0.5342817), 0.0, 1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_depth=0)


@pytest.mark.parametrize(
    "kwargs, what",
    (
        ({"rel_tol": math.nan}, "tolerances"),
        ({"abs_tol": math.nan}, "tolerances"),
        ({"rel_tol": math.inf}, "tolerances"),
        ({"max_depth": 2.5}, "max_depth"),
        ({"max_depth": math.nan}, "max_depth"),
    ),
)
def test_config_rejects_nan_and_fractional(kwargs, what):
    with pytest.raises(DomainError, match=what):
        QuadratureConfig(**kwargs)


def test_library_error_from_the_integrand_propagates():
    def strict(t):
        raise DomainError("t out of range")

    def strict_on_scalars(t):
        if np.ndim(t):
            raise TypeError("scalars only")
        raise DomainError("t out of range")

    for f in (strict, strict_on_scalars):
        with pytest.raises(DomainError, match="t out of range"):
            integrate(f, 0.0, 1.0)
        with pytest.raises(DomainError, match="t out of range"):
            integrate_half_line(f)


def test_callable_failing_on_scalars_keeps_its_message():
    def broken(t):
        raise TypeError("boom")

    with pytest.raises(QuadratureError, match="boom"):
        integrate(broken, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="boom"):
        integrate_half_line(broken)
    for q in (QParam(0.5), QParam(1.0)):
        with pytest.raises(QuadratureError, match="boom"):
            forward_numeric(q, broken, 2.0)


def test_scalar_callable_arithmetic_error_is_typed():
    # math.exp overflows inside the support; the scalar fallback chains it into a QuadratureError
    with pytest.raises(QuadratureError, match="integrand fails on arrays and on scalars") as info:
        forward_numeric(QParam(0.6), lambda t: math.exp(50 * t), 0.1)
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.parametrize("qv", (0.6, 1.0))
def test_kernel_route_names_a_non_finite_sample_by_its_t(qv):
    # the kernel is integrated in u; the error names the t at which f was nan
    seen = []

    def f(t):
        if not seen:
            seen.append(float(t[7]))
        return np.where(t == seen[0], np.nan, 1.0)

    with pytest.raises(QuadratureError) as info:
        forward_numeric(QParam(qv), f, 0.5)
    assert str(info.value) == f"non-finite integrand sample at t = {seen[0]}"


# --------------------------------------------------------------------------
# one integrand call per panel measurement


def _reference_panel_rule(f, a, b):
    """Reference rule: one 15-node integrand call, three per panel measurement."""
    h = 0.5 * (b - a)
    x = a + h * (quadrature._NODES + 1.0)
    y = f(x)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise QuadratureError(f"non-finite integrand sample at t = {bad}")
    return h * float(quadrature._WEIGHTS @ y)


def _reference_measure(f, a, b):
    whole = _reference_panel_rule(f, a, b)
    mid = 0.5 * (a + b)
    halves = _reference_panel_rule(f, a, mid) + _reference_panel_rule(f, mid, b)
    return halves, abs(whole - halves)


QP = QParam(0.7)
ALL_FAMILIES = (
    Monomial(3), Exponential(0.8, 1), QExponential(QP, 0.8, -1), Gaussian(0.9), QGaussian(QP, 0.9),
    Cosine(1.1), Sine(1.1), QCosine(QP, 1.1), QSine(QP, 1.1), Cosh(0.7), Sinh(0.7),
    QCosh(QP, 0.7), QSinh(QP, 0.7),
)
CLASSICAL_DECAYING = (Monomial(3), Exponential(0.8, -1), Gaussian(0.9), Cosine(1.1), Sine(1.1))


@pytest.mark.parametrize(
    "qv, f",
    [(qv, f) for qv in (0.3, 0.6, 0.9) for f in ALL_FAMILIES]
    + [(1.0, f) for f in CLASSICAL_DECAYING],
    ids=lambda v: v.label if hasattr(v, "label") else f"q={v}",
)
def test_single_call_measure_matches_three_call_reference(monkeypatch, qv, f):
    q = QParam(qv)
    s_grid = (0.6, 1.7, 4.0)
    got = [forward_numeric(q, f, s) for s in s_grid]
    monkeypatch.setattr(quadrature, "_measure", _reference_measure)
    want = [forward_numeric(q, f, s) for s in s_grid]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_one_45_point_call_per_panel():
    sizes = []
    fam = Exponential(1.0)

    def counting(t):
        sizes.append(np.size(t))
        return fam(t)

    forward_numeric(QParam(0.5), counting, 2.0)
    assert sizes == [45] * 64
    assert sum(sizes) == 2880


@pytest.mark.parametrize("node", (3, 15 + 7, 30 + 11), ids=("whole", "left-half", "right-half"))
def test_nan_at_one_node_is_named(node):
    # first panel measured is [0, 1]: 15 whole-panel nodes, then each half's
    x = np.concatenate([0.0 + 0.5 * (quadrature._NODES + 1.0),
                        0.0 + 0.25 * (quadrature._NODES + 1.0),
                        0.5 + 0.25 * (quadrature._NODES + 1.0)])
    bad = float(x[node])

    def f(t):
        return np.where(t == bad, np.nan, 1.0)

    with pytest.raises(QuadratureError, match=re.escape(f"t = {bad}")):
        integrate(f, 0.0, 1.0)
