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
    QuadratureError,
    Sine,
    Sinh,
    forward_numeric,
    integrate,
    integrate_half_line,
    kernel_pair_integral,
)
from qlaplace import quadrature, transform
from qlaplace.qmath import _q_exp_pow
from qlaplace.quadrature import _ABS_TOL, _REL_TOL, dyadic_breakpoints


def test_rule_is_numpy_leggauss_15():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert quadrature._NODES.tolist() == nodes.tolist()
    assert quadrature._WEIGHTS.tolist() == weights.tolist()


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


def test_package_tolerance_is_met():
    # the one tolerance, on an integrand whose derivative is singular at an endpoint
    tol = max(_ABS_TOL, _REL_TOL * 2.0 / 3.0)
    assert abs(integrate(np.sqrt, 0.0, 1.0) - 2.0 / 3.0) <= tol


# --------------------------------------------------------------------------
# the adaptive loop returns at once when its initial panels meet the tolerance


def _never(x):
    raise AssertionError("the integrand was called")


def _in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_refine_returns_the_in_order_sum_when_the_panels_meet_the_tolerance():
    # 1 + 1e16 rounds to 1e16, so the in-order sum is 0 where an exact sum gives 1
    values = [1.0, 1e16, -1e16]
    panels = [(float(i), i + 1.0, v, 0.0) for i, v in enumerate(values)]
    assert quadrature._refine(_never, panels) == _in_order(values) == 0.0 != math.fsum(values)
    # err_total equal to the tolerance, max(_ABS_TOL, _REL_TOL*|total|), still meets it
    values, errs = [0.5, 0.25, 0.25], [0.0, _REL_TOL, 0.0]
    assert sum(errs) == max(_ABS_TOL, _REL_TOL * abs(_in_order(values)))
    panels = [(float(i), i + 1.0, v, e) for i, (v, e) in enumerate(zip(values, errs))]
    assert quadrature._refine(_never, panels) == 1.0


def test_refine_bisects_panels_just_above_the_tolerance():
    # every panel exact but the middle one, whose err is one ulp above the tolerance: the heap
    # route bisects it once, measuring both halves, and its total is the running sum it keeps
    f, calls = np.exp, []

    def counted(x):
        calls.append(x)
        return f(x)

    panels = [(lo, lo + 1.0, quadrature._measure(f, lo, lo + 1.0)[0], 0.0) for lo in (0.0, 1.0, 2.0)]
    total = _in_order(v for _, _, v, _ in panels)
    tol = max(_ABS_TOL, _REL_TOL * abs(total))
    lo, hi, value, _ = panels[1]
    panels[1] = (lo, hi, value, tol)
    assert quadrature._refine(_never, panels) == total
    panels[1] = (lo, hi, value, math.nextafter(tol, math.inf))
    left, right = quadrature._measure(f, lo, 1.5)[0], quadrature._measure(f, 1.5, hi)[0]
    measure = lambda lo, hi: quadrature._measure(counted, lo, hi)  # noqa: E731
    assert quadrature._refine(measure, panels) == total - value + left + right
    assert len(calls) == 2


def test_refine_raises_on_a_non_finite_total():
    # each panel is finite, the sum is not; tol is inf, so the sums meet it
    panels = [(0.0, 1.0, 1e308, 0.0), (1.0, 2.0, 1e308, 0.0)]
    with pytest.raises(QuadratureError, match="integral overflows double precision"):
        quadrature._refine(_never, panels)


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
    # forward_numeric measures its initial panels from a table, without _measure: the reference
    # is the per-panel route over the same 64 panels
    monkeypatch.setattr(quadrature, "_measure", _reference_measure)
    want = [_per_panel_route(q, f, s, 1.0) for s in s_grid]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def _per_panel_route(q, g, s, p):
    """`transform._kernel_quadrature` as it was before its initial panels read a table: `integrate`
    of one kernel integrand over u, which builds x, the kernel and (1-q*u)**2 for every panel."""
    g, scale = quadrature._vectorized(g), 1.0 / s

    def integrand(u):
        om = 1.0 - q.q * u
        x = u / om
        w = _q_exp_pow(q.eps, -x, p) * (scale / (om * om))
        t = scale * x
        if w.item(w.argmin()) > 0.0:
            y = w * g(t)
        else:
            y = np.zeros_like(u)
            live = w > 0.0
            if live.any():
                y[live] = w[live] * g(t[live])
        if not math.isfinite(y @ y):
            bad = t[~np.isfinite(y)]
            if len(bad):
                raise QuadratureError(f"non-finite integrand sample at t = {bad[0]}")
        return y

    return integrate(integrand, 0.0, 1.0, breakpoints=transform._KERNEL_BREAKS)


def _pair_integrand(q, s, s_prime):  # the integrand of kernel_pair_integral, at kernel power 0
    eps, power = q.eps, 2.0 * q.q - 3.0
    return lambda t: np.exp((np.log1p(-eps * s * t) + power * np.log1p(-eps * s_prime * t)) / eps)


@pytest.mark.parametrize("qv", (0.3, 0.6, 0.9, 1.0))
@pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.label)
def test_table_sweep_is_the_per_panel_route_to_the_bit(qv, f):
    # at q = 1 the growing families need s above their rate, p = q is the transform itself and
    # the kernel at power 0 is 1 on the half line
    q, s_grid = QParam(qv), (0.6, 1.7, 4.0) if qv < 1.0 else (1.7, 4.0)
    powers = (qv, 0.0) if qv < 1.0 else ()
    for s in s_grid:
        assert forward_numeric(q, f, s) == _per_panel_route(q, f, s, 1.0)
        for p in powers:
            assert transform._kernel_quadrature(q, quadrature._vectorized(f), s, p) == _per_panel_route(q, f, s, p)


@pytest.mark.parametrize("qv", (0.3, 0.6, 0.9, 1.0))
def test_kernel_pair_is_the_per_panel_route_to_the_bit(qv):
    q = QParam(qv)
    for s, s_prime in ((1.0, 0.5), (2.0, 0.2), (0.7, 0.6)):
        want = (_per_panel_route(q, np.ones_like, s - s_prime, 1.0) if q.classical
                else _per_panel_route(q, _pair_integrand(q, s, s_prime), s, 0.0))
        assert kernel_pair_integral(q, s, s_prime) == want


def _outcome(fn, *args):
    """fn(*args) as its float's hex, or the type and message of the QuadratureError it raised."""
    try:
        return float.hex(fn(*args))
    except QuadratureError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("qv", (0.6, 0.9, 1.0))
@pytest.mark.parametrize("s", (1e300, 1e-300, 5e-324), ids=("s=1e300", "s=1e-300", "s=5e-324"))
def test_masking_decision_is_the_per_panel_rule_at_the_extremes(qv, s):
    # the sweep decides over the whole table which panels need the kernel masked; the reference
    # decides panel by panel (argmin), on rows with exact zeros (the kernel or w underflowing at
    # q = 1 or huge s), on rows with nan (0 * inf once 1/(s(1-u)**2) overflows) and at
    # s = 5e-324, where 1/s itself overflows and every t is inf
    q = QParam(qv)
    for p in (1.0, qv, 0.0):
        for f in (np.ones_like, Gaussian(0.9), QExponential(QP, 0.8, -1)):
            assert (_outcome(transform._kernel_quadrature, q, quadrature._vectorized(f), s, p)
                    == _outcome(_per_panel_route, q, f, s, p))


@pytest.mark.parametrize("s", (0.5, 2.0, 7.0))
def test_dead_partly_live_and_live_rows_are_the_per_panel_route_to_the_bit(s):
    # at q = 1 exp(-x) underflows toward u = 1: the table has fully live rows (g on all 45
    # nodes), a partly live row (g on its live nodes only) and dead rows (no call)
    q = QParam(1.0)
    _, ker, om2 = transform._kernel_table(1.0, 1.0)
    live = ker * ((1.0 / s) / om2) > 0.0
    full, some = live.all(axis=1), live.any(axis=1)
    assert full.any() and (some & ~full).any() and not some.all()
    for f in (Exponential(0.8, -1), Cosine(1.1), Gaussian(0.9), np.ones_like):
        sizes = []

        def g(t):
            sizes.append(len(t))
            return f(t)

        assert float.hex(forward_numeric(q, g, s)) == float.hex(_per_panel_route(q, f, s, 1.0))
        assert sizes[:int(some.sum())] == live.sum(axis=1)[some].tolist()


def test_extreme_s_reach_rows_with_zeros_and_nans():
    # the rows the test above needs do occur: a row mixing zeros with live weights, and nan rows
    def rows(qv, s):
        _, ker, om2 = transform._kernel_table(qv, 1.0)
        with np.errstate(all="ignore"):
            w = ker * ((1.0 / s) / om2)
        mixed = ((w == 0.0).any(axis=1) & (w > 0.0).any(axis=1)).any()
        return bool(mixed), bool(np.isnan(w).any())

    assert rows(0.9, 1e300) == (True, False)
    assert rows(1.0, 1e-300) == (True, True)
    assert rows(1.0, 5e-324)[1]
    assert _outcome(forward_numeric, QParam(0.6), np.cos, 5e-324) == (
        "QuadratureError", "non-finite integrand sample at t = inf")


@pytest.mark.parametrize("qv", (0.6, 1.0))
def test_non_finite_sample_on_a_bisected_panel_is_named_by_its_t(qv):
    # the kink at t = 0.3 forces bisection; every sample of the initial panels is finite, and the
    # first bisected panel's call has one nan, which must be named by its t, not its u (g is not
    # called on an initial panel whose kernel is 0 throughout, as near u = 1 at q = 1)
    _, ker, om2 = transform._kernel_table(qv, 1.0)
    sweep = int((ker / om2 > 0.0).any(axis=1).sum())
    calls, bad = [], []

    def f(t):
        calls.append(t)
        y = np.abs(t - 0.3)
        if len(calls) == sweep + 1:
            bad.append(float(t[7]))
            y[7] = np.nan
        return y

    with pytest.raises(QuadratureError) as info:
        forward_numeric(QParam(qv), f, 1.0)
    assert len(calls) == sweep + 1 and all(np.isfinite(t).all() for t in calls[:sweep])
    assert str(info.value) == f"non-finite integrand sample at t = {bad[0]}"  # u = t/(1 + q t) here


@pytest.mark.parametrize("s", (1e-3, 0.5, 7.0))
def test_bisected_rows_with_dead_nodes_are_the_per_panel_route(s):
    # at q = 1 and kernel power 0 the weight 1/(s(1-u)**2) times |s t - 0.3| = |x - 0.3| is not
    # integrable at u = 1, so bisection runs toward u = 1 until panels are narrower than float
    # spacing; on the last ones nodes round onto u = 1, where x = inf and the kernel exp(0 * -inf)
    # is nan: rows with dead nodes among live ones, whose live nodes alone get g, as on the
    # per-panel route, which ends in the same typed error
    q = QParam(1.0)
    _, ker, _ = transform._kernel_table(1.0, 0.0)
    assert (ker == 1.0).all()  # every initial row is fully live
    sizes, want_sizes = [], []

    def g(t):
        sizes.append(len(t))
        return np.abs(s * t - 0.3)

    def reference(t):
        want_sizes.append(len(t))
        return np.abs(s * t - 0.3)

    got = _outcome(transform._kernel_quadrature, q, quadrature._vectorized(g), s, 0.0)
    assert got == _outcome(_per_panel_route, q, reference, s, 0.0)
    assert got == ("QuadratureError", "tolerance not met: panel narrower than float spacing")
    assert sizes == want_sizes and sizes[:64] == [45] * 64
    short = [n for n in sizes[64:] if n < 45]
    assert len(short) == 8 and min(short) > 0


def _nan_at(bad):
    return lambda t: np.where(np.isin(t, bad), np.nan, 1.0)


@pytest.mark.parametrize("qv", (0.6, 1.0))
def test_first_non_finite_panel_in_edge_order_is_named(qv):
    # nan samples on two initial panels, the later one listed first: the error names the earlier
    # panel's t, as the per-panel route does (at s = 1 the table's x is t)
    x, _, _ = transform._kernel_table(qv, 1.0)
    early, late = float(x[10, 20]), float(x[40, 3])
    want = ("QuadratureError", f"non-finite integrand sample at t = {early}")
    assert _outcome(forward_numeric, QParam(qv), _nan_at([late, early]), 1.0) == want
    assert _outcome(_per_panel_route, QParam(qv), _nan_at([late, early]), 1.0, 1.0) == want


def test_g_is_called_on_every_live_initial_panel_before_any_is_checked():
    # a nan on panel 10 and a raise on panel 40: the sweep calls g on all live panels first, so
    # g's own error surfaces (panel by panel, the nan on panel 10 stopped the sweep before it)
    x, _, _ = transform._kernel_table(0.6, 1.0)
    early, late = float(x[10, 20]), float(x[40, 3])

    def g(t):
        if late in t:
            raise DomainError("boom")
        return _nan_at([early])(t)

    with pytest.raises(DomainError, match="boom"):
        forward_numeric(QParam(0.6), g, 1.0)
    assert _outcome(_per_panel_route, QParam(0.6), g, 1.0, 1.0) == (
        "QuadratureError", f"non-finite integrand sample at t = {early}")


def test_huge_finite_samples_raise_on_neither_path():
    # y @ y overflows at 1e200 samples although every sample and every panel value is finite:
    # neither the table sweep nor a bisected panel may call that non-finite
    q, calls = QParam(0.6), []

    def huge_kink(t):
        calls.append(1)
        return 1e200 * np.abs(t - 0.3)

    x, ker, om2 = transform._kernel_table(0.6, 1.0)  # at s = 1, t = x
    y = ker[-2] / om2[-2] * huge_kink(x[-2])
    with np.errstate(over="ignore"):
        assert np.isfinite(y).all() and not math.isfinite(y @ y)
    calls.clear()
    got = forward_numeric(q, huge_kink, 1.0)
    assert len(calls) > 64 and math.isfinite(got)
    assert got == pytest.approx(1e200 * forward_numeric(q, lambda t: np.abs(t - 0.3), 1.0), rel=1e-12)
    flat = forward_numeric(q, lambda t: np.full_like(t, 1e200), 1.0)
    assert flat == pytest.approx(1e200 * forward_numeric(q, np.ones_like, 1.0), rel=1e-12)


def test_kernel_table_cache_is_bounded_and_read_only():
    for qv in np.linspace(0.01, 1.0, 100):
        forward_numeric(QParam(float(qv)), np.cos, 2.0)
    info = transform._kernel_table.cache_info()
    assert info.maxsize <= 16 and info.currsize <= info.maxsize
    for arr in transform._kernel_table(0.5, 1.0):
        assert arr.shape == (64, 45) and not arr.flags.writeable


def test_refined_panels_use_the_kernel_integrand():
    # a kink inside one initial panel forces bisection past the table's 64 panels
    calls = []

    def g(t):
        calls.append(np.size(t))
        return np.abs(t - 0.3)

    q = QParam(0.6)
    assert forward_numeric(q, g, 1.0) == _per_panel_route(q, lambda t: np.abs(t - 0.3), 1.0, 1.0)
    assert len(calls) > 64 and set(calls) == {45}


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
