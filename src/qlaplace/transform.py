"""Forward deformed Laplace transform and its identity/diagnostic suite.

The transform of f with deformation q in (0, 1] is

    F_q(s) = integral_0^inf f(t) * q_exp(-s*t) dt .

The kernel is supported on [0, 1/((1-q)*s)] for q < 1 and on the half line
at q = 1; the numeric route maps either onto [0, 1) by one substitution,
t = u/(s*(1-q*u)), and integrates there by adaptive quadrature at the
package's one tolerance (`quadrature._REL_TOL`, `_ABS_TOL`), as does every
other integral here, the convolution's inner one included; no function
here takes a quadrature setting.  The route takes the kernel at a power p:
1 for the transform, q for its exact s-derivative, 0 for the kernel-pair
integrand.
The integrand is sampled in one place, on rows of nodes: g called once a live
row, in row order, and its samples weighted by the kernel.  The 64 initial
panels are that routine on one cached table of all that depends on (q, p)
alone, scaled by 1/s, and are measured together: one stacked product of the
samples with the panel weights, one finiteness check.  The rare panels
`quadrature._refine` bisects are that routine on their one row of nodes,
measured by the panel rule; a non-finite sample is named by its t.
The paper's identities run from one table, `IDENTITIES`, whose rows
`identity_rows(q, s)` returns for the CLI `identities` command to print.

The analytic route (`catalog_transform`) gives the closed forms of the
catalog families as power series F(s) = sum_n c_n s^-(n+1) for every q,
q = 1 included, transforming the Taylor series of f term by term: t^n maps
to n!/q_poly(2-q, n+1) s^-(n+1) (n! s^-(n+1) at q = 1), the rule the paper
sums into pFq closed forms, held as a PowerSeriesTransform (the 1/s view of
`qmath.PowerSeries`; a value or s-derivative is one `qmath._log_term_sum` on a
row built for its derivative order).  The numeric route shares none of this, so
each can serve as the other's oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogFunction, Cosine, Exponential, Monomial
from .errors import DomainError, QLaplaceError
from .qmath import (
    PowerSeries, QParam, _grid_arg, _integer_arg, _log_power_map, _log_term_sum, _power_map, _q_exp_pow, _radius,
    _real_arg, _TAIL, q_exp,
)
from .quadrature import _FRACTIONS, _PANEL_WEIGHTS, _panel_value, _refine, _vectorized, dyadic_breakpoints, integrate
# perfbench/spans.py wraps these three here (nothing in the package calls the last): keep them importable.
from .hypergeom import pfq_term_coefficients  # noqa: F401
from .qmath import q_poly  # noqa: F401
from .quadrature import integrate_half_line  # noqa: F401

__all__ = [
    "PowerSeriesTransform",
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
    "IDENTITIES",
    "identity_rows",
]


# --------------------------------------------------------------------------
# power-series representation of a transform


@dataclass(frozen=True)
class PowerSeriesTransform(PowerSeries):
    """F(s) = sum_n coeffs[n] * s**-(n+1), valid for s >= s_min, the 1/s view of `qmath.PowerSeries`.

    ``s_min``, read off the coefficients on first read and cached, keeps 1/s
    within their radius and the kernel support 1/((1-q)s) within that of the
    Taylor coefficients they map from, and short of ``t_cut``, the t past
    which the input function leaves its Taylor series (inf if it never
    does; at q = 1 the kernel reaches t = -log(1e-13)/s).  Values and
    derivatives, exact term by term, are one log-magnitude term sum over the
    nonzero terms, at s in (0, inf), on a row built for the order k from the
    powers -(n+1), a float array made at construction:

        F^(k)(s) = sum_n coeffs[n] * (-1)**k * (n+k)!/n! * s**-(n+k+1).

    The sign (-1)**k goes on each term, not on the sum: where every term
    underflows, the sum's zero takes its sign from the terms' signed zeros.
    """

    q: QParam
    t_cut: float = math.inf
    _kind = "transform"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.t_cut > 0.0:
            raise DomainError(f"t_cut must be positive, got {self.t_cut}")
        object.__setattr__(self, "_powers", -1.0 - self._log_form[0])

    @functools.cached_property
    def s_min(self) -> float:
        """The largest of 1/R(c), 1/((1-q) R(a)) and the s whose kernel reaches t_cut, for the
        radii R of `qmath._radius` (the second is dropped at q = 1)."""
        (n, log_c, _), radius = self._log_form, self.radius
        size, reach = len(self.coeffs), -math.log(_TAIL)  # exp(-s t) falls to _TAIL at t = reach/s
        if not self.q.classical:  # the support ends at t = reach/s
            log_a = log_c - _log_power_map(self.q.eps, size.bit_length())[n]
            radius, reach = min(radius, self.q.eps * _radius(n, log_a, size)), 1.0 / self.q.eps
        return max(1.0 / radius if radius else math.inf, reach / self.t_cut)

    def value(self, s):
        """F(s) for s in (0, inf), scalar or array."""
        return self._term_sum(0, s)

    def derivative_value(self, k, s):
        """F^(k)(s) for an integral order k >= 0 and s in (0, inf), scalar or array."""
        return self._term_sum(_integer_arg("k", k, 0), s)

    def _term_sum(self, k: int, s):
        arr = _real_arg("s", s, arrays=True)
        out = _log_term_sum(*self._derivative_row(k), arr, f"F^({k})(s)")
        if isinstance(arr, float):
            return float(out)
        return out.reshape(arr.shape) if arr.ndim else float(out[0])

    def _derivative_row(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row of F^(k): log|c_n| + log((n+k)!/n!), the sign of (-1)**k c_n and
        the powers -(n+k+1)."""
        n, log_w, sign = self._log_form
        if not k:
            return log_w, sign, self._powers
        log_fact = _log_power_map(0.0, (len(self.coeffs) + k).bit_length())  # log(j!): q = 1
        return log_w + (log_fact[k:][n] - log_fact[n]), -sign if k % 2 else sign, self._powers - k


# --------------------------------------------------------------------------
# numeric forward transform


def forward_numeric(q: QParam, f, s: float) -> float:
    """Numeric transform of a callable f at s > 0.

    The kernel support [0, 1/((1-q)s)], the half line at q = 1, is mapped
    onto u in [0, 1) by t = u/(s*(1-q*u)), with initial panels accumulating
    geometrically toward the origin and the cutoff u = 1 (the integrand is
    continuous but not smooth there).  f is evaluated only where the kernel
    is nonzero.  At q = 1 the caller is responsible for f being integrable
    against exp(-s*t).
    """
    return _kernel_quadrature(q, _vectorized(f), _real_arg("s", s))


# u in [0, 1) spans the kernel support for every q, with panels accumulating toward both ends
_KERNEL_BREAKS = dyadic_breakpoints(0.0, 1.0, toward_a=True, toward_b=True)
_KERNEL_EDGES = (0.0, *_KERNEL_BREAKS, 1.0)
_KERNEL_WIDTHS = np.diff(_KERNEL_EDGES)[:, None]


def _kernel_parts(qv: float, p: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = u/(1-q*u), the kernel q_exp(-x)**p and (1-q*u)**2 at the nodes u: all of the
    integrand of `_kernel_quadrature` but g and 1/s."""
    om = 1.0 - qv * u
    x = u / om
    return x, _q_exp_pow(1.0 - qv, -x, p), om * om


@functools.lru_cache(maxsize=16)
def _kernel_table(qv: float, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_kernel_parts` at the 45 `_measure` nodes u of each initial panel, a row a panel: all of
    the initial sweep but 1/s, read-only (69 KB)."""
    edges = np.array(_KERNEL_EDGES)[:, None]
    table = _kernel_parts(qv, p, edges[:-1] + (edges[1:] - edges[:-1]) * _FRACTIONS)
    for arr in table:
        arr.flags.writeable = False
    return table


def _kernel_quadrature(q: QParam, g, s: float, p: float = 1.0) -> float:
    """Integral of q_exp(-s*t)**p * g(t) over t >= 0, for a vectorised g.

    One substitution serves every q in (0, 1]: with x = u/(1 - q*u),
    t = x/s maps u in [0, 1) onto the support [0, 1/((1-q)s)) (the half
    line at q = 1), and since 1 - (1-q)*s*t = (1-u)/(1-q*u),
    q_exp(-s*t) = q_exp(-x) exactly.  The integral is then

        (1/s) integral_0^1 q_exp(-x)**p (1-q*u)**-2 g(x/s) du,

    with the cutoff at u = 1 for every q.  The kernel power p is 1 for a
    transform, q for its s-derivative (d/ds q_exp(-s*t) = -t q_exp(-s*t)**q)
    and 0 for an integrand that carries its own kernel
    (`kernel_pair_integral`).

    The integrand is sampled in one place, ``weighted``, on rows of nodes
    (x, kernel, (1-q*u)**2): it forms the weight w and t = x/s of each row,
    calls g once a row, in row order, on the row's live nodes (where w > 0:
    all 45 of a fully live row, none of a dead one, which gets no call) and
    weights the samples, leaving zeros elsewhere.  The 64 initial panels are
    ``weighted`` on `_kernel_table`, so g is called on every live initial
    panel, in edge order, before any value is checked; one stacked product
    with `_PANEL_WEIGHTS` then gives every panel's (whole, value) as
    `_panel_value` would, to the bit, and one finiteness check covers them.
    A panel `_refine` bisects is ``weighted`` on its one row of `_kernel_parts`
    and measured by `_panel_value`.  Either way a non-finite sample is named
    by its t, through `_panel_value` (for the sweep, on the first failing
    panel in edge order).
    """
    scale = 1.0 / s

    def weighted(x: np.ndarray, ker: np.ndarray, om2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weighted samples w*g(t) on rows of nodes, zeros where w is not > 0, and t."""
        w, t = ker * (scale / om2), scale * x
        live = w > 0.0  # False at a kernel zero and at a nan weight
        full = live.all(axis=1).tolist()
        y = np.zeros_like(w)
        for i in np.flatnonzero(live.any(axis=1)).tolist():  # row order; no call on a row with no live node
            if full[i]:
                y[i] = g(t[i])
            else:
                y[i, live[i]] = g(t[i, live[i]])
        np.multiply(y, w, out=y, where=live)
        return y, t

    def measure(lo: float, hi: float) -> tuple[float, float]:  # a bisected panel, as `_measure` lays it out
        y, t = weighted(*_kernel_parts(q.q, p, (lo + (hi - lo) * _FRACTIONS)[None]))
        return _panel_value(y[0], t[0], lo, hi)

    with np.errstate(all="ignore"):  # _panel_value raises on what these warnings flag
        y, t = weighted(*_kernel_table(q.q, p))
        # row i is _panel_value's (whole, value) of panel i: the stacked product is its own to the bit
        sums = _KERNEL_WIDTHS * np.matmul(_PANEL_WEIGHTS, y[:, :, None])[:, :, 0]
        finite = np.isfinite(sums).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())  # the first panel in edge order with a non-finite value
            _panel_value(y[i], t[i], _KERNEL_EDGES[i], _KERNEL_EDGES[i + 1])  # raises
        whole, value = sums.T
        panels = list(zip(_KERNEL_EDGES, _KERNEL_EDGES[1:], value.tolist(), abs(whole - value).tolist()))
        return _refine(measure, panels)


# --------------------------------------------------------------------------
# closed-form catalog


def catalog_transform(q: QParam, f: CatalogFunction, n_terms: int = 40) -> PowerSeriesTransform:
    """Closed-form transform of a catalog function as a 1/s power series.

    Each Taylor term a_n t**n of f maps to c_n = a_n * n!/q_poly(2-q, n+1)
    s**-(n+1), the power map `series_invert` undoes; summed, the terms are
    the paper's pFq closed forms.  A power t**(m-1) gives an m-term series
    whatever ``n_terms``; any other entry needs ``n_terms`` >= 4 (DomainError
    otherwise): a series of at most one nonzero term reads as exact at every
    s, and 4 slots give every family two nonzero terms unless its series
    ends there.  The series' ``s_min`` is read off these
    coefficients, the paper's |z| <= 1/2 rule for any series, and keeps the
    kernel support short of ``f.cut``.  At q = 1 the map is the classical
    t**n -> n! s**-(n+1).
    """
    n_max = f.power - 1 if isinstance(f, Monomial) else _integer_arg("n_terms", n_terms, 4) - 1
    return PowerSeriesTransform(_power_map(q, f._taylor(n_max)), q, f.cut)


# --------------------------------------------------------------------------
# kernel-pair integral


def kernel_pair_integral(q: QParam, s: float, s_prime: float) -> float:
    """Integral of q_exp(-s t) * q_exp(-s' t)**(2q-3) over t >= 0.

    Requires 0 < s' < s; equals 1/((2-q)(s-s')).  For q < 1 the first
    factor's support bounds the domain, and the integrand is formed as one
    exponent, (log1p(-eps*s*t) + (2q-3)*log1p(-eps*s'*t))/eps, at kernel
    power 0: the second factor alone, about exp(s't), overflows near q = 1
    where the product is still finite.
    """
    s, s_prime = _real_arg("s", s), _real_arg("s_prime", s_prime)
    if not s_prime < s:
        raise DomainError(f"kernel pair integral requires s_prime < s, got s_prime = {s_prime}, s = {s}")
    if q.classical:  # exp(-s t) exp(s' t) is the kernel at s - s' alone
        return _kernel_quadrature(q, np.ones_like, s - s_prime)
    eps, power = q.eps, 2.0 * q.q - 3.0

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp((np.log1p(-eps * s * t) + power * np.log1p(-eps * s_prime * t)) / eps)

    return _kernel_quadrature(q, integrand, s, p=0.0)


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
_LADDER_II = (1e-4, 1e-5, 1e-6, 1e-7)


def limit_identity_check(q: QParam, f: CatalogFunction, which: str) -> LimitIdentityReport:
    """Initial/final-value identity: s*F_q(s) -> f(0)/(2-q) as s -> inf
    (which="I") and -> f(inf)/(2-q) as s -> 0 (which="II").

    Evaluates s*F_q(s) along the s ladder 1e3..1e6 (I) or 1e-4..1e-7 (II);
    errors are scaled against max(|rhs|, 1) so a zero limit still reports a
    meaningful number.
    """
    if which not in ("I", "II"):
        raise DomainError("which must be 'I' or 'II'")
    if which == "I":
        rhs = f.value_at_zero / (2.0 - q.q)
        s_values = _LADDER_I
    else:
        tail = f.limit_at_infinity
        if tail is None:
            raise DomainError(f"{f.label} has no limit at infinity; identity II does not apply")
        rhs = tail / (2.0 - q.q)
        s_values = _LADDER_II
    lhs_values = tuple(s * forward_numeric(q, f, s) for s in s_values)
    scale = max(abs(rhs), 1.0)
    errors = tuple(abs(v - rhs) / scale for v in lhs_values)
    return LimitIdentityReport(which, s_values, lhs_values, rhs, errors)


def scaling_check(q: QParam, f: CatalogFunction, a: float, s: float) -> CheckReport:
    """Dilation rule: transform of f(a*t) equals F_q(s/a)/a; QLaplaceError where exactly one
    side underflows to 0, which no rel_err can weigh."""
    a = _real_arg("a", a)
    lhs = forward_numeric(q, lambda t: f(a * t), s)
    rhs = forward_numeric(q, f, s / a) / a
    if (lhs == 0.0) != (rhs == 0.0):
        raise QLaplaceError(f"scaling: one side underflows to 0 (lhs = {lhs}, rhs = {rhs}) at s/a = {s / a}")
    return CheckReport("scaling", lhs, rhs, _rel_err(lhs, rhs))


def shift_kernel_factor(q: QParam, s: float, s0: float, t: float) -> CheckReport:
    """Pointwise kernel factorization behind the shift rule:

        q_exp(-(s-s0)t) = q_exp(-st) * q_exp(s0*t / (1-(1-q)st)).

    All three arguments must stay above the kernel cutoff.
    """
    s, s0, t = (_real_arg(name, x, -math.inf) for name, x in (("s", s), ("s0", s0), ("t", t)))
    den = 1.0 - q.eps * s * t
    if den <= 0.0:
        raise DomainError("shift factorization: -s*t argument at or past cutoff")
    args = (-(s - s0) * t, -s * t, s0 * t / den)
    for x in args:
        if 1.0 + q.eps * x <= 0.0:
            raise DomainError(f"shift factorization: argument {x} at or past cutoff")
    with np.errstate(over="ignore"):
        lhs = q_exp(q, args[0])
        rhs = q_exp(q, args[1]) * q_exp(q, args[2])
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise QLaplaceError(f"shift factorization: q_exp overflows double precision at arguments {args}")
    return CheckReport("shift-kernel", lhs, rhs, _rel_err(lhs, rhs))


def translation_check(q: QParam, f: CatalogFunction, t0: float, s: float) -> TranslationReport:
    """Delay rule diagnostic.

    Computes the delayed-argument transform

        RHS = L_q[ f((t-t0)/(1-(1-q)s t0)) * step(t-t0) ](s)

    as `forward_numeric` of the delayed function itself, a route
    independent of L_q[f], and compares it against both candidate
    left-hand sides: the proof form L_q[f] * q_exp(-s t0)**(2-q) and the
    stated form with q_exp(+s t0).  Reports the two ratios; asserts nothing.
    """
    t0, s = _real_arg("t0", t0), _real_arg("s", s)
    c = 1.0 - q.eps * s * t0
    if c <= 0.0:
        raise DomainError("t0 lies at or beyond the kernel cutoff for this s")

    def delayed(t: np.ndarray) -> np.ndarray:
        return np.where(t > t0, f(np.maximum(t - t0, 0.0) / c), 0.0)

    rhs = forward_numeric(q, delayed, s)
    base_transform = forward_numeric(q, f, s)
    power = 2.0 - q.q
    lhs_proof = base_transform * q_exp(q, -s * t0) ** power
    lhs_stated = base_transform * q_exp(q, s * t0) ** power
    ratio_proof = rhs / lhs_proof if lhs_proof != 0.0 else math.inf
    ratio_stated = rhs / lhs_stated if lhs_stated != 0.0 else math.inf
    return TranslationReport(rhs, lhs_proof, lhs_stated, ratio_proof, ratio_stated)


def derivative_rule_check(q: QParam, f: CatalogFunction, n: int, s: float) -> CheckReport:
    """Transform-of-derivative rule with re-deformed right-hand side.

    With a_j = j*q - (j-1) and P_j = a_0 * a_1 * ... * a_j,

        L_q[f^(n)](s) = -( f^(n-1)(0) + sum_{l=1}^{n-1} P_{l-1} s**l f^(n-l-1)(0) )
                        + P_{n-1} s**n L_{a_{n+1}/a_n}[f](a_n s).

    Requires a_j > 0 up to j = n+1 (q close enough to 1 for the given n).
    """
    n = _integer_arg("n", n, 1)
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

    lhs = forward_numeric(q, f.derivative(n), s)

    boundary = f.derivative(n - 1)(0.0)
    for ell in range(1, n):
        boundary += prods[ell - 1] * s**ell * f.derivative(n - ell - 1)(0.0)
    q_shift = QParam(a[n + 1] / a[n])
    shifted = forward_numeric(q_shift, f, a[n] * s)
    main = prods[n - 1] * s**n * shifted
    rhs = -boundary + main
    scale = max(abs(boundary), abs(main))
    return CheckReport(f"derivative-rule(n={n})", lhs, rhs, _rel_err(lhs, rhs, scale))


def qderivative_of_transform_check(q: QParam, f: CatalogFunction, n: int, s: float) -> CheckReport:
    """Deformed-derivative action on the transform, in integrated form.

    The operator identity (deformed derivative of F equals the transform
    of (-t)^n f) is checked without inverting the operator:

        G_n(s) - (1-q) s G_n'(s)  ==  G_{n-1}'(s),

    where G_j = L_q[(-t)^j f].  The s-derivatives are exact: since
    d/ds q_exp(-s t) = -t q_exp(-s t)**q, G_j'(s) is the integral of
    (-t)^(j+1) f(t) against the kernel at power q.  At q = 1 the row is
    definitional: the (1-q) term vanishes and G_n' at power q is G_n
    itself, so both sides are G_n(s) and no further quadrature is run.
    """
    n, s = _integer_arg("n", n, 1), _real_arg("s", s)
    fv = _vectorized(f)

    def moment(j: int, p: float) -> float:  # integral of (-t)^j f(t) q_exp(-s t)**p
        sign = -1.0 if j % 2 else 1.0
        return _kernel_quadrature(q, lambda t: sign * t**j * fv(t), s, p=p)

    gn_s = moment(n, 1.0)
    if q.classical:
        lhs = rhs = gn_s
    else:
        lhs = gn_s - q.eps * s * moment(n + 1, q.q)
        rhs = moment(n, q.q)
    return CheckReport(
        f"qderivative-of-transform(n={n})", lhs, rhs, _rel_err(lhs, rhs, abs(gn_s))
    )


def qintegral_of_transform_check(q: QParam, f: CatalogFunction, s: float) -> CheckReport:
    """Deformed-integral action on the transform:

        integral_s^inf [ F(sigma) - (1-q) sigma F'(sigma) ] dsigma
            ==  L_q[f(t)/t](s).

    Requires f(0) = 0 so that f/t is integrable at the origin.  F and its
    derivative come from the 60-term closed-form series, so s must sit
    inside the series' validity domain.
    """
    s = _real_arg("s", s)
    if f.value_at_zero != 0.0:
        raise DomainError("f(0) != 0: f(t)/t is not integrable at the origin")
    series = catalog_transform(q, f, 60)
    if s < series.s_min:
        raise DomainError(f"s = {s} below series validity bound s_min = {series.s_min}")

    def integrand(u: np.ndarray) -> np.ndarray:
        sigma = s / u
        vals = series.value(sigma) - q.eps * sigma * series.derivative_value(1, sigma)
        return vals * s / u**2

    pts = dyadic_breakpoints(0.0, 1.0, toward_a=True, toward_b=False)
    lhs = integrate(integrand, 0.0, 1.0, breakpoints=pts)

    rhs = forward_numeric(q, lambda t: f(t) / t, s)
    return CheckReport("qintegral-of-transform", lhs, rhs, _rel_err(lhs, rhs))


def integral_rule_diagnostic(q: QParam, f: CatalogFunction, s_grid) -> RatioScanReport:
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
    s_values = tuple(_grid_arg("s", s_grid).tolist())

    def antiderivative(t):
        return np.asarray(t, dtype=float) ** m / m

    q_inner = QParam(1.0 / (2.0 - q.q))
    ratios = []
    for s in s_values:
        lhs = forward_numeric(q, antiderivative, s)
        rhs = (2.0 - q.q) / s * forward_numeric(q_inner, f, s * (2.0 - q.q))
        if lhs == 0.0:
            raise QLaplaceError(f"transform of the antiderivative underflows to 0 at s = {s}")
        ratios.append(rhs / lhs)
    mean = sum(ratios) / len(ratios)
    spread = max(abs(r - mean) for r in ratios) / abs(mean) if mean != 0.0 else math.inf
    return RatioScanReport(s_values, tuple(ratios), mean, spread)


def convolution_check_classical(f: CatalogFunction, g: CatalogFunction, s: float) -> CheckReport:
    """Classical (q = 1) convolution theorem: L[f * g] = F(s) G(s).

    The convolution is evaluated by nested quadrature, the inner integral
    at the package tolerance like the outer one.
    """
    one = QParam(1.0)

    def conv(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return integrate(lambda tau: f(tau) * g(t - tau), 0.0, t)

    lhs = forward_numeric(one, conv, s)
    rhs = forward_numeric(one, f, s) * forward_numeric(one, g, s)
    return CheckReport("convolution(q=1)", lhs, rhs, _rel_err(lhs, rhs))


def linearity_check(
    q: QParam,
    f1: CatalogFunction,
    a1: float,
    f2: CatalogFunction,
    a2: float,
    s: float,
) -> CheckReport:
    """L_q[a1 f1 + a2 f2] against a1 F1 + a2 F2."""
    a1, a2 = _real_arg("a1", a1, -math.inf), _real_arg("a2", a2, -math.inf)
    lhs = forward_numeric(q, lambda t: a1 * f1(t) + a2 * f2(t), s)
    v1 = forward_numeric(q, f1, s)
    v2 = forward_numeric(q, f2, s)
    rhs = a1 * v1 + a2 * v2
    scale = max(abs(a1 * v1), abs(a2 * v2))
    return CheckReport("linearity", lhs, rhs, _rel_err(lhs, rhs, scale))


# --------------------------------------------------------------------------
# the suite as one table


_MONO2, _DECAY = Monomial(2), Exponential(1.0, -1)

# (name, build(q, s), tol): each build runs one check at deformation q and base point s (None
# where the row does not apply, the convolution away from q = 1); tol None marks a diagnostic.
# The checks are looked up here at call time, so a replaced module attribute is the one run.
IDENTITIES = (
    ("limit-I", lambda q, s: limit_identity_check(q, Cosine(1.0), "I"), 1e-6),
    ("limit-II", lambda q, s: limit_identity_check(q, _DECAY, "II"), 1e-5),
    ("scaling", lambda q, s: scaling_check(q, _MONO2, 2.0, s), 1e-6),
    ("shift-kernel", lambda q, s: shift_kernel_factor(q, 2.0 * s, s, 0.2 / s), 1e-6),
    ("translation", lambda q, s: translation_check(q, _MONO2, 0.1 / s, s), None),
    ("derivative-rule-n1", lambda q, s: derivative_rule_check(q, _MONO2, 1, s), 1e-6),
    ("qderivative-of-transform", lambda q, s: qderivative_of_transform_check(q, _MONO2, 1, s), 1e-6),
    ("qintegral-of-transform", lambda q, s: qintegral_of_transform_check(q, Monomial(3), s), 1e-6),
    ("integral-rule", lambda q, s: integral_rule_diagnostic(q, _MONO2, [0.5 * s, s, 2.0 * s, 4.0 * s]), 1e-6),
    ("linearity", lambda q, s: linearity_check(q, _MONO2, 2.0, _DECAY, -0.5, s), 1e-6),
    ("convolution", lambda q, s: convolution_check_classical(_DECAY, _DECAY, s) if q.classical else None, 1e-6),
)


def identity_rows(q: QParam, s: float) -> list[tuple]:
    """`IDENTITIES` at q and s as (name, status, lhs, rhs, rel_err, ratio) rows: pass or fail
    against tol, or diagnostic; a DomainError makes a skipped row carrying its message (commas
    made semicolons).  A ratio scan reads its first and last ratio, spread and mean."""
    rows = []
    for name, build, tol in IDENTITIES:
        try:
            rep = build(q, s)
        except DomainError as exc:
            rows.append((name, "skipped", "", "", "", str(exc).replace(",", ";")))
            continue
        if rep is None:
            continue
        if isinstance(rep, TranslationReport):
            lhs, rhs, err, ratio = rep.lhs_proof_form, rep.rhs_integral, abs(rep.ratio_proof - 1.0), rep.ratio_proof
        elif isinstance(rep, RatioScanReport):
            lhs, rhs, err, ratio = rep.ratios[0], rep.ratios[-1], rep.spread_rel, rep.ratio_mean
        else:
            lhs, rhs, err, ratio = rep.lhs, rep.rhs, rep.rel_err, ""
        status = "diagnostic" if tol is None else "pass" if err <= tol else "fail"
        rows.append((name, status, lhs, rhs, err, ratio))
    return rows
