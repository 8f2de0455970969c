"""Forward deformed Laplace transform and its identity/diagnostic suite.

The transform of f with deformation q in (0, 1] is

    F_q(s) = integral_0^inf f(t) * q_exp(-s*t) dt .

The kernel is supported on [0, 1/((1-q)*s)] for q < 1 and on the half line
at q = 1; the numeric route maps either onto [0, 1) by one substitution,
t = u/(s*(1-q*u)), and integrates there by adaptive quadrature.

The analytic route (`catalog_transform`) gives the closed forms of the
catalog families as power series F(s) = sum_n c_n s^-(n+1), transforming
the Taylor series of f term by term: t^n maps to n!/q_poly(2-q, n+1)
s^-(n+1), the rule the paper sums into pFq closed forms; its values and
s-derivatives are one log-magnitude term sum (`qmath._log_term_sum`).  The
numeric route shares none of this, so each can serve as the other's oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import CatalogFunction, Monomial
from .errors import DomainError, QLaplaceError, QuadratureError
# perfbench/spans.py wraps pfq_term_coefficients and q_poly here: keep both importable.
from .hypergeom import pfq_term_coefficients  # noqa: F401
from .qmath import (  # noqa: F401
    QParam, _log_power_map, _log_term_sum, _power_map, _q_exp_pow, _radius, _TAIL, q_exp, q_poly,
)
from .quadrature import QuadratureConfig, _vectorized, dyadic_breakpoints, integrate
# perfbench/spans.py wraps integrate_half_line here, which nothing in the package calls: keep it importable.
from .quadrature import integrate_half_line  # noqa: F401

__all__ = [
    "PowerSeriesTransform",
    "QuadratureConfig",
    "forward_numeric",
    "catalog_transform",
    "kernel_pair_integral",
    "CheckReport",
    "LimitIdentityReport",
    "TranslationReport",
    "RatioScanReport",
    "limit_identity_check",
    "scaling_check",
    "shift_kernel_factor",
    "translation_check",
    "derivative_rule_check",
    "integral_rule_diagnostic",
    "qderivative_of_transform_check",
    "qintegral_of_transform_check",
    "convolution_check_classical",
    "linearity_check",
]


# --------------------------------------------------------------------------
# power-series representation of a transform


@dataclass(frozen=True)
class PowerSeriesTransform:
    """F(s) = sum_n coeffs[n] * s**-(n+1), valid for s >= s_min.

    ``s_min``, read off the coefficients on first read and cached, keeps 1/s
    within their radius and the kernel support 1/((1-q)s) within that of the
    Taylor coefficients they map from, and short of ``t_cut``, the t past
    which the input function leaves its Taylor series (inf if it never
    does; at q = 1 the kernel reaches t = -log(1e-13)/s).  Every coefficient
    must be finite.  Values and derivatives, exact term by term, are one
    log-magnitude sum over the nonzero terms, at s in (0, inf):

        F^(k)(s) = sum_n coeffs[n] * (-1)**k * (n+k)!/n! * s**-(n+k+1).
    """

    coeffs: tuple[float, ...]
    q: QParam
    t_cut: float = math.inf

    def __post_init__(self) -> None:
        # one float array gives the coeffs tuple and the log form every evaluation sums:
        # nonzero indices, log|c_n| and signs
        c = np.asarray(self.coeffs, dtype=float)
        if len(c) == 0:
            raise DomainError("empty transform series")
        if not np.all(np.isfinite(c)):
            n = int(np.flatnonzero(~np.isfinite(c))[0])
            raise QLaplaceError(f"transform coefficient c_{n} = {c[n]} is not finite")
        if not self.t_cut > 0.0:
            raise DomainError(f"t_cut must be positive, got {self.t_cut}")
        object.__setattr__(self, "coeffs", tuple(c.tolist()))
        n = np.flatnonzero(c)
        object.__setattr__(self, "_log_form", (n, np.log(np.abs(c[n])), np.sign(c[n])))

    @functools.cached_property
    def s_min(self) -> float:
        """The largest of 1/R(c), 1/((1-q) R(a)) and the s whose kernel reaches t_cut, for the
        radii R of `qmath._radius` (the second is dropped at q = 1)."""
        n, log_c, _ = self._log_form
        size, reach = len(self.coeffs), -math.log(_TAIL)  # exp(-s t) falls to _TAIL at t = reach/s
        radius = _radius(n, log_c, size)
        if not self.q.classical:  # the support ends at t = reach/s
            log_a = log_c - _log_power_map(self.q.eps, size.bit_length())[n]
            radius, reach = min(radius, self.q.eps * _radius(n, log_a, size)), 1.0 / self.q.eps
        return max(1.0 / radius if radius else math.inf, reach / self.t_cut)

    def value(self, s):
        """F(s) for s in (0, inf), scalar or array."""
        return self._term_sum(0, s)

    def derivative_value(self, k, s):
        """F^(k)(s) for an integral order k >= 0 and s in (0, inf), scalar or array."""
        if not (float(k).is_integer() and k >= 0):
            raise DomainError(f"derivative order must be an integer >= 0, got k = {k}")
        return self._term_sum(int(k), s)

    def _term_sum(self, k: int, s):
        arr = np.asarray(s, dtype=float)
        inside = (arr > 0.0) & (arr < math.inf)
        if not inside.all():
            raise DomainError(f"s must be finite and positive, got s = {arr[~inside].flat[0]}")
        n, log_c, sign = self._log_form
        log_fact = _log_power_map(0.0, (len(self.coeffs) + k).bit_length())  # log(j!): q = 1
        log_w = log_c + (log_fact[n + k] - log_fact[n])
        out = _log_term_sum(log_w, -sign if k % 2 else sign, -1.0 - k - n, arr, f"F^({k})(s)")
        return out.reshape(arr.shape) if arr.ndim else float(out[0])


# --------------------------------------------------------------------------
# numeric forward transform


def forward_numeric(
    q: QParam,
    f,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Numeric transform of a callable f at s > 0.

    The kernel support [0, 1/((1-q)s)], the half line at q = 1, is mapped
    onto u in [0, 1) by t = u/(s*(1-q*u)), with initial panels accumulating
    geometrically toward the origin and the cutoff u = 1 (the integrand is
    continuous but not smooth there).  f is evaluated only where the kernel
    is nonzero.  At q = 1 the caller is responsible for f being integrable
    against exp(-s*t).
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"forward transform requires finite s > 0, got s = {s}")
    return _kernel_quadrature(q, _vectorized(f), s, ctl)


# u in [0, 1) spans the kernel support for every q, with panels accumulating toward both ends
_KERNEL_BREAKS = dyadic_breakpoints(0.0, 1.0, toward_a=True, toward_b=True)


def _kernel_quadrature(q: QParam, g, s: float, ctl: QuadratureConfig, t0: float = 0.0) -> float:
    """Integral of q_exp(-s*t) * g(t - t0) over t >= t0, for a vectorised g.

    One substitution serves every q in (0, 1]: with c = 1 - (1-q)*s*t0 and
    x = u/(1 - q*u), t = t0 + (c/s)*x maps u in [0, 1) onto the support
    [t0, 1/((1-q)s)) (the half line at q = 1), and since
    1 - (1-q)*s*t = c*(1-u)/(1-q*u), q_exp(-s*t) = q_exp(-s*t0) * q_exp(-x)
    exactly.  The integral is then

        (c/s) q_exp(-s*t0) * integral_0^1 q_exp(-x) (1-q*u)**-2 g((c/s)*x) du,

    with the cutoff at u = 1 for every q.  g is evaluated only where the
    kernel is nonzero, and a non-finite sample is reported at its t.
    """
    scale = (1.0 - q.eps * s * t0) / s  # c/s
    weight = scale * _q_exp_pow(q.eps, -s * t0)

    def integrand(u: np.ndarray) -> np.ndarray:
        om = 1.0 - q.q * u
        x = u / om
        w = _q_exp_pow(q.eps, -x) * (weight / (om * om))
        t = scale * x
        if w.item(w.argmin()) > 0.0:
            y = w * g(t)
        else:
            y = np.zeros_like(u)
            live = w > 0.0
            if live.any():
                y[live] = w[live] * g(t[live])
        if not math.isfinite(y @ y):  # one dot product flags a nan or inf (or a huge) sample
            bad = t[~np.isfinite(y)]
            if len(bad):
                raise QuadratureError(f"non-finite integrand sample at t = {t0 + bad[0]}")
        return y

    return integrate(integrand, 0.0, 1.0, ctl, breakpoints=_KERNEL_BREAKS)


# --------------------------------------------------------------------------
# closed-form catalog


def catalog_transform(q: QParam, f: CatalogFunction, n_terms: int = 40) -> PowerSeriesTransform:
    """Closed-form transform of a catalog function as a 1/s power series.

    Each Taylor term a_n t**n of f maps to c_n = a_n * n!/q_poly(2-q, n+1)
    s**-(n+1), the power map `series_invert` undoes; summed, the terms are
    the paper's pFq closed forms.  A power t**(m-1) gives an m-term series
    whatever ``n_terms``.  The series' ``s_min`` is read off these
    coefficients, the paper's |z| <= 1/2 rule for any series, and keeps the
    kernel support short of ``f.cut``.  Requires q < 1.
    """
    if q.classical:
        raise DomainError("catalog_transform requires q < 1")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    n_max = f.power - 1 if isinstance(f, Monomial) else n_terms - 1
    return PowerSeriesTransform(_power_map(q, f.taylor_coefficients(n_max)), q, f.cut)


def _classical_series(f: CatalogFunction, n_terms: int) -> PowerSeriesTransform:
    """Classical (q = 1) transform series c_n = a_n * n! for catalog f."""
    q = QParam(1.0)
    return PowerSeriesTransform(_power_map(q, f.taylor_coefficients(n_terms - 1)), q, f.cut)


# --------------------------------------------------------------------------
# kernel-pair integral


def kernel_pair_integral(
    q: QParam,
    s: float,
    s_prime: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Integral of q_exp(-s t) * q_exp(-s' t)**(2q-3) over t >= 0.

    Requires 0 < s' < s; equals 1/((2-q)(s-s')).  For q < 1 the first
    factor's support bounds the domain and the second factor stays finite
    there.
    """
    if not (0.0 < s_prime < s):
        raise DomainError("kernel pair integral requires 0 < s_prime < s")
    if q.classical:  # exp(-s t) exp(s' t) is the kernel at s - s' alone
        return _kernel_quadrature(q, np.ones_like, s - s_prime, ctl)
    return _kernel_quadrature(q, lambda t: _q_exp_pow(q.eps, -s_prime * t, 2.0 * q.q - 3.0), s, ctl)


# --------------------------------------------------------------------------
# identity checks and diagnostics


def _rel_err(lhs: float, rhs: float, scale: float = 0.0) -> float:
    denom = max(abs(lhs), abs(rhs), scale)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    rel_err: float


@dataclass(frozen=True)
class LimitIdentityReport:
    which: str
    s_values: tuple[float, ...]
    lhs_values: tuple[float, ...]
    rhs: float
    errors: tuple[float, ...]

    @property
    def lhs(self) -> float:
        return self.lhs_values[-1]

    @property
    def rel_err(self) -> float:
        return self.errors[-1]


@dataclass(frozen=True)
class TranslationReport:
    rhs_integral: float
    lhs_proof_form: float
    lhs_stated_form: float
    ratio_proof: float
    ratio_stated: float


@dataclass(frozen=True)
class RatioScanReport:
    s_values: tuple[float, ...]
    ratios: tuple[float, ...]
    ratio_mean: float
    spread_rel: float


_LADDER_I = (1e3, 1e4, 1e5, 1e6)
_LADDER_II = (1e-3, 1e-4, 1e-5, 1e-6)


def limit_identity_check(
    q: QParam,
    f: CatalogFunction,
    which: str,
    ctl: QuadratureConfig = QuadratureConfig(),
    ladder: tuple[float, ...] | None = None,
) -> LimitIdentityReport:
    """Initial/final-value identity: s*F_q(s) -> f(0)/(2-q) as s -> inf
    (which="I") and -> f(inf)/(2-q) as s -> 0 (which="II").

    Evaluates s*F_q(s) along an s ladder; errors are scaled against
    max(|rhs|, 1) so a zero limit still reports a meaningful number.
    """
    if which not in ("I", "II"):
        raise DomainError("which must be 'I' or 'II'")
    if which == "I":
        rhs = f.value_at_zero / (2.0 - q.q)
        s_values = ladder or _LADDER_I
    else:
        tail = f.limit_at_infinity
        if tail is None:
            raise DomainError(f"{f.label} has no limit at infinity; identity II does not apply")
        rhs = tail / (2.0 - q.q)
        s_values = ladder or _LADDER_II
    lhs_values = tuple(s * forward_numeric(q, f, s, ctl) for s in s_values)
    scale = max(abs(rhs), 1.0)
    errors = tuple(abs(v - rhs) / scale for v in lhs_values)
    return LimitIdentityReport(which, tuple(s_values), lhs_values, rhs, errors)


def scaling_check(
    q: QParam,
    f: CatalogFunction,
    a: float,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> CheckReport:
    """Dilation rule: transform of f(a*t) equals F_q(s/a)/a."""
    if a <= 0.0:
        raise DomainError("scaling factor must be positive")
    lhs = forward_numeric(q, lambda t: f(a * np.asarray(t, dtype=float)), s, ctl)
    rhs = forward_numeric(q, f, s / a, ctl) / a
    return CheckReport("scaling", lhs, rhs, _rel_err(lhs, rhs))


def shift_kernel_factor(q: QParam, s: float, s0: float, t: float) -> CheckReport:
    """Pointwise kernel factorization behind the shift rule:

        q_exp(-(s-s0)t) = q_exp(-st) * q_exp(s0*t / (1-(1-q)st)).

    All three arguments must stay above the kernel cutoff.
    """
    den = 1.0 - q.eps * s * t
    if den <= 0.0:
        raise DomainError("shift factorization: -s*t argument at or past cutoff")
    args = (-(s - s0) * t, -s * t, s0 * t / den)
    for x in args:
        if 1.0 + q.eps * x <= 0.0:
            raise DomainError(f"shift factorization: argument {x} at or past cutoff")
    lhs = q_exp(q, args[0])
    rhs = q_exp(q, args[1]) * q_exp(q, args[2])
    return CheckReport("shift-kernel", lhs, rhs, _rel_err(lhs, rhs))


def translation_check(
    q: QParam,
    f: CatalogFunction,
    t0: float,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> TranslationReport:
    """Delay rule diagnostic.

    Computes the delayed-argument transform

        RHS = L_q[ f((t-t0)/(1-(1-q)s t0)) * step(t-t0) ](s)

    and compares it against both candidate left-hand sides: the proof form
    L_q[f] * q_exp(-s t0)**(2-q) and the stated form with q_exp(+s t0).
    Reports the two ratios; asserts nothing.
    """
    if t0 <= 0.0:
        raise DomainError("t0 must be positive")
    c = 1.0 - q.eps * s * t0
    if c <= 0.0:
        raise DomainError("t0 lies at or beyond the kernel cutoff for this s")

    rhs = _kernel_quadrature(q, lambda u: np.asarray(f(u / c), dtype=float), s, ctl, t0)
    base_transform = forward_numeric(q, f, s, ctl)
    power = 2.0 - q.q
    lhs_proof = base_transform * q_exp(q, -s * t0) ** power
    lhs_stated = base_transform * q_exp(q, s * t0) ** power
    ratio_proof = rhs / lhs_proof if lhs_proof != 0.0 else math.inf
    ratio_stated = rhs / lhs_stated if lhs_stated != 0.0 else math.inf
    return TranslationReport(rhs, lhs_proof, lhs_stated, ratio_proof, ratio_stated)


def derivative_rule_check(
    q: QParam,
    f: CatalogFunction,
    n: int,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> CheckReport:
    """Transform-of-derivative rule with re-deformed right-hand side.

    With a_j = j*q - (j-1) and P_j = a_0 * a_1 * ... * a_j,

        L_q[f^(n)](s) = -( f^(n-1)(0) + sum_{l=1}^{n-1} P_{l-1} s**l f^(n-l-1)(0) )
                        + P_{n-1} s**n L_{a_{n+1}/a_n}[f](a_n s).

    Requires a_j > 0 up to j = n+1 (q close enough to 1 for the given n).
    """
    if n < 1:
        raise DomainError("derivative order n must be >= 1")
    a = [j * q.q - (j - 1) for j in range(n + 2)]
    if any(aj <= 0.0 for aj in a):
        raise DomainError(
            f"parameter degeneracy: a_j = j*q-(j-1) must stay positive up to j={n + 1}"
        )
    prods = []
    acc = 1.0
    for aj in a:
        acc *= aj
        prods.append(acc)

    lhs = forward_numeric(q, f.derivative(n), s, ctl)

    boundary = float(f.derivative(n - 1)(0.0))
    for ell in range(1, n):
        boundary += prods[ell - 1] * s**ell * float(f.derivative(n - ell - 1)(0.0))
    q_shift = QParam(a[n + 1] / a[n])
    shifted = forward_numeric(q_shift, f, a[n] * s, ctl)
    main = prods[n - 1] * s**n * shifted
    rhs = -boundary + main
    scale = max(abs(boundary), abs(main))
    return CheckReport(f"derivative-rule(n={n})", lhs, rhs, _rel_err(lhs, rhs, scale))


def _s_derivative(fn, s: float, rel_h: float = 0.01) -> float:
    """Richardson-extrapolated central difference d fn / ds."""
    h = rel_h * s
    d1 = (fn(s + h) - fn(s - h)) / (2.0 * h)
    d2 = (fn(s + 0.5 * h) - fn(s - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def qderivative_of_transform_check(
    q: QParam,
    f: CatalogFunction,
    n: int,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> CheckReport:
    """Deformed-derivative action on the transform, in integrated form.

    The operator identity (deformed derivative of F equals the transform
    of (-t)^n f) is checked without inverting the operator:

        G_n(s) - (1-q) s G_n'(s)  ==  G_{n-1}'(s),

    where G_j = L_q[(-t)^j f] and the s-derivatives come from
    Richardson-extrapolated central differences of quadrature values.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if s <= 0.0:
        raise DomainError("s must be positive")

    def g(j: int):
        sign = -1.0 if j % 2 else 1.0

        def fn(sv: float) -> float:
            return forward_numeric(
                q, lambda t: sign * np.asarray(t, dtype=float) ** j * np.asarray(f(t), dtype=float), sv, ctl
            )

        return fn

    g_n = g(n)
    g_prev = g(n - 1)
    gn_s = g_n(s)
    lhs = gn_s - q.eps * s * _s_derivative(g_n, s)
    rhs = _s_derivative(g_prev, s)
    return CheckReport(
        f"qderivative-of-transform(n={n})", lhs, rhs, _rel_err(lhs, rhs, abs(gn_s))
    )


def qintegral_of_transform_check(
    q: QParam,
    f: CatalogFunction,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
    n_terms: int = 60,
) -> CheckReport:
    """Deformed-integral action on the transform:

        integral_s^inf [ F(sigma) - (1-q) sigma F'(sigma) ] dsigma
            ==  L_q[f(t)/t](s).

    Requires f(0) = 0 so that f/t is integrable at the origin.  F and its
    derivative come from the closed-form series (classical series at q=1),
    so s must sit inside the series' validity domain.
    """
    if f.value_at_zero != 0.0:
        raise DomainError("f(0) != 0: f(t)/t is not integrable at the origin")
    series = _classical_series(f, n_terms) if q.classical else catalog_transform(q, f, n_terms)
    if s < series.s_min:
        raise DomainError(f"s = {s} below series validity bound s_min = {series.s_min}")

    def integrand(u: np.ndarray) -> np.ndarray:
        sigma = s / u
        vals = series.value(sigma) - q.eps * sigma * series.derivative_value(1, sigma)
        return vals * s / u**2

    pts = dyadic_breakpoints(0.0, 1.0, toward_a=True, toward_b=False)
    lhs = integrate(integrand, 0.0, 1.0, ctl, breakpoints=pts)

    def over_t(t: np.ndarray) -> np.ndarray:
        return np.asarray(f(t), dtype=float) / t

    rhs = forward_numeric(q, over_t, s, ctl)
    return CheckReport("qintegral-of-transform", lhs, rhs, _rel_err(lhs, rhs))


def integral_rule_diagnostic(
    q: QParam,
    f: CatalogFunction,
    s_grid,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> RatioScanReport:
    """Transform-of-antiderivative diagnostic.

    Computes LHS = L_q[ integral_0^t f ] and
    RHS = ((2-q)/s) L_{1/(2-q)}[f](s(2-q)) over a grid of s values and
    reports the ratio RHS/LHS.  For q < 1 the ratio is a q-dependent
    constant ((2-q)**2 on powers) rather than 1; the meaningful assertion
    is that it does not depend on s, and this diagnostic only records it.
    """
    if not isinstance(f, Monomial):
        raise DomainError("integral-rule diagnostic needs a catalog-expressible antiderivative (powers only)")
    m = f.power
    s_values = tuple(float(s) for s in s_grid)
    if any(s <= 0.0 for s in s_values) or not s_values:
        raise DomainError("s grid must be positive and nonempty")

    def antiderivative(t):
        return np.asarray(t, dtype=float) ** m / m

    q_inner = QParam(1.0 / (2.0 - q.q))
    ratios = []
    for s in s_values:
        lhs = forward_numeric(q, antiderivative, s, ctl)
        rhs = (2.0 - q.q) / s * forward_numeric(q_inner, f, s * (2.0 - q.q), ctl)
        if lhs == 0.0:
            raise QLaplaceError(f"transform of the antiderivative underflows to 0 at s = {s}")
        ratios.append(rhs / lhs)
    mean = sum(ratios) / len(ratios)
    spread = max(abs(r - mean) for r in ratios) / abs(mean) if mean != 0.0 else math.inf
    return RatioScanReport(s_values, tuple(ratios), mean, spread)


def convolution_check_classical(
    f: CatalogFunction,
    g: CatalogFunction,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> CheckReport:
    """Classical (q = 1) convolution theorem: L[f * g] = F(s) G(s).

    The convolution is evaluated by nested quadrature with the inner
    tolerance loosened tenfold for cost control.
    """
    one = QParam(1.0)
    inner_cfg = replace(ctl, rel_tol=ctl.rel_tol * 10.0, abs_tol=ctl.abs_tol * 10.0)

    def conv(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return integrate(lambda tau: f(tau) * g(t - tau), 0.0, t, inner_cfg)

    lhs = forward_numeric(one, conv, s, ctl)
    rhs = forward_numeric(one, f, s, ctl) * forward_numeric(one, g, s, ctl)
    return CheckReport("convolution(q=1)", lhs, rhs, _rel_err(lhs, rhs))


def linearity_check(
    q: QParam,
    f1: CatalogFunction,
    a1: float,
    f2: CatalogFunction,
    a2: float,
    s: float,
    ctl: QuadratureConfig = QuadratureConfig(),
) -> CheckReport:
    """L_q[a1 f1 + a2 f2] against a1 F1 + a2 F2."""

    def combo(t):
        arr = np.asarray(t, dtype=float)
        return a1 * np.asarray(f1(arr), dtype=float) + a2 * np.asarray(f2(arr), dtype=float)

    lhs = forward_numeric(q, combo, s, ctl)
    v1 = forward_numeric(q, f1, s, ctl)
    v2 = forward_numeric(q, f2, s, ctl)
    rhs = a1 * v1 + a2 * v2
    scale = max(abs(a1 * v1), abs(a2 * v2))
    return CheckReport("linearity", lhs, rhs, _rel_err(lhs, rhs, scale))
