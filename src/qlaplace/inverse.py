"""Real-variable inversion of the deformed Laplace transform.

Post-Widder route: f(t) is recovered from high-order derivatives of F at
real points, no contour integration.  The deformed finite-k estimator is

    est_k = (-1)**k / k! * F^(k)(s) * (2-q) * s**(k+1)  at  s = k*xi/t,

where xi is the argument-scaling factor of qmath.xi_factor.  On a power
series it is one weighted sum, computed by one kernel for all points and k:

    est_k(x) = sum_n w_n * x**(p0+n) * R(k, p0+n),
    R(k, p) = Gamma(k+p+1) / (Gamma(k+1) * k**p) = 1 + O(1/k),

which is q_poly(2-q, p) at 1-q = 1/k, from the one q_poly routine qmath._log_q_poly.

Only the weights and the offset p0 differ between callers:

* per-term scaling (default): w_n = c_n * q_poly(2-q, n+1) / n!, each term
  at its index-matched scale; the k -> inf limit is the coefficient rule of
  `series_invert`, the exact inverse of the power-function forward map;
* fixed power m: the literal estimator with xi = xi_factor(q, m),
  w_n = (2-q) * c_n / (n! * xi**n), exact up to R when F is one power s**-m;
* statmech.density_of_states: one power C * s**-m at real m >= 1, a single
  term at p0 = m - 1, whose weight is the q-free prefactor / Gamma(m).

Every term, of these and of a TaylorSeries value (the t view of the one series
type, qmath.PowerSeries), is formed in log magnitude by qmath._log_term_sum, so the
schedule runs to large k and a sum past double range raises QLaplaceError.  On a
series an evaluation is one term sum on a row it builds: the weights with log R
folded in, for a TaylorSeries the signs of t's side.  Richardson extrapolation in
1/k is one cached weight matrix per schedule, and a call's records are built by one
map over its raveled values.  `series_invert` maps the transform's own log form
(nonzero n, log|c_n|, signs) into an array, with no pass back through its
coefficient tuple.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import CatalogFunction
from .errors import DomainError
from .qmath import (
    PowerSeries, QParam, _integer_arg, _log_power_map, _log_q_poly, _log_term_sum, _q_exp_pow, _real_arg,
    xi_factor,
)
from .transform import PowerSeriesTransform, _rel_err, catalog_transform

__all__ = [
    "TaylorSeries",
    "WidderConfig",
    "WidderEstimate",
    "RoundtripReport",
    "q_post_widder",
    "series_invert",
    "roundtrip",
    "widder_weight",
]


@dataclass(frozen=True)
class TaylorSeries(PowerSeries):
    """f(t) = sum_n coeffs[n] * t**n, valid for |t| <= t_max, the t view of `qmath.PowerSeries`
    summed by its term sum: t_max, cached on first read, is its radius capped at 1e3 (a one-term
    series still gets a grid) and at the t where a term |a_n| t**n would reach DBL_MAX/len(coeffs)."""

    _kind = "Taylor"

    @functools.cached_property
    def t_max(self) -> float:
        n, log_a, _ = self._log_form
        i = 1 if len(n) and not n[0] else 0  # no t reaches the cap through a_0
        log_cap = ((math.log(sys.float_info.max / len(self.coeffs)) - log_a[i:]) / n[i:]).min(initial=math.inf)
        return min(self.radius, 1e3 if log_cap > math.log(1e3) else math.exp(log_cap))

    def __call__(self, t):
        arr = _real_arg("t", t, -math.inf, arrays=True)
        if isinstance(arr, float):  # t = 0 is a_0
            return float(_log_term_sum(*self._taylor_row(arr < 0.0), abs(arr), "f(t)")) if arr else self.coeffs[0]
        t = arr.reshape(-1)
        out, neg = np.full(t.shape, self.coeffs[0]), t < 0.0
        for flip, at in ((False, t > 0.0), (True, neg)) if neg.any() else ((False, t > 0.0),):
            out[at] = _log_term_sum(*self._taylor_row(flip), np.abs(t[at]), "f(t)")
        return out.reshape(arr.shape) if arr.ndim else float(out[0])

    def _taylor_row(self, flip: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row at |t|: log|a_n|, the sign of a_n, times (-1)**n for t < 0 (``flip``), and the
        powers n."""
        n, log_a, sign = self._log_form
        return log_a, sign * (1 - 2 * (n % 2)) if flip else sign, n


@dataclass(frozen=True)
class WidderConfig:
    """Schedule and scaling mode for the finite-k estimator sequence.

    ``fixed_m = None`` selects per-term scaling; an integer m >= 2 selects
    the literal fixed-power estimator (meaningful when F is concentrated
    on s**-m).  ``extrapolate`` adds Richardson extrapolation in 1/k.
    """

    k_schedule: tuple[int, ...] = (4, 8, 16, 32, 64)
    fixed_m: int | None = None
    extrapolate: bool = True

    def __post_init__(self) -> None:
        ks = tuple(_integer_arg("k", k, 1) for k in self.k_schedule)
        object.__setattr__(self, "k_schedule", ks)
        if not ks:
            raise DomainError("k_schedule must not be empty")
        if any(b <= a for a, b in zip(ks[:-1], ks[1:])):
            raise DomainError("k_schedule must be strictly increasing")
        if self.fixed_m is not None:
            object.__setattr__(self, "fixed_m", _integer_arg("fixed_m", self.fixed_m, 2))


class WidderEstimate(NamedTuple):
    """One finite-k estimate and, after the first of a schedule, its running
    Richardson value (None when extrapolation is off)."""

    k: int
    value: float
    extrapolated: float | None = None


@functools.lru_cache(maxsize=64)
def _richardson_weights(ks: tuple[int, ...]) -> np.ndarray:
    """Read-only matrix whose row i > 0 holds the Lagrange weights at 1/k = 0
    on the nodes 1/k of schedule entries max(0, i-2)..i: two extrapolation
    levels over the clean O(1/k) leading error."""
    x = 1.0 / np.asarray(ks, dtype=float)
    weights = np.zeros((len(ks), len(ks)))
    for i in range(1, len(ks)):
        nodes = range(max(0, i - 2), i + 1)
        for j in nodes:
            weights[i, j] = math.prod(x[l] / (x[l] - x[j]) for l in nodes if l != j)
    weights.flags.writeable = False
    return weights


def extrapolate_schedule(ks, values, enabled: bool = True) -> list[tuple[WidderEstimate, ...]]:
    """Wrap raw finite-k values, one row per point and one column per k, as one tuple of
    estimates a row, attaching to each estimate after the first its running 1/k Richardson
    value when ``enabled``: one map over the raveled values builds every record of the call."""
    ks, values = tuple(map(int, ks)), np.asarray(values, dtype=float)
    if enabled:
        extr = (values @ _richardson_weights(ks).T).ravel().tolist()
        extr[:: len(ks)] = [None] * len(values)  # the first k has nothing to extrapolate from
    else:
        extr = itertools.repeat(None)
    # tuple.__new__ builds each record in C (the named tuple's own __new__ is a Python function),
    # and zip over one iterator repeated len(ks) times cuts the records into rows
    fields = zip(itertools.cycle(ks), values.ravel().tolist(), extr)
    return list(zip(*[map(tuple.__new__, itertools.repeat(WidderEstimate), fields)] * len(ks)))


def _widder_row(log_w: np.ndarray, sign: np.ndarray, p0: float, ks: tuple[int, ...]):
    """The row of the finite-k estimates sum_n w_n x**(p0+n) R(k, p0+n) for weights
    w_n = sign_n * exp(log_w_n) (-inf for a zero weight): log w_n + log R(k, p0+n), one row per
    k (qmath._log_q_poly at 1-q = 1/k), the signs and the powers p0+n."""
    powers = np.arange(len(log_w), dtype=float)
    powers += p0  # p0 + an int arange would cost a type promotion and a second array
    return log_w + _log_q_poly(tuple(1.0 / k for k in ks), p0, len(log_w)), sign, powers


def _same_q(q: QParam, F: PowerSeriesTransform) -> None:
    """DomainError unless q is the deformation F was built at: the inversion would silently
    apply one q's power map to another q's coefficients."""
    if q.q != F.q.q:
        raise DomainError(f"q = {q.q} does not match the transform's q = {F.q.q}")


def q_post_widder(
    q: QParam,
    F: PowerSeriesTransform,
    t: float,
    cfg: WidderConfig = WidderConfig(),
) -> list[WidderEstimate]:
    """Finite-k inversion estimates of a power-series transform at one scalar t > 0.

    Returns one estimate per k in the schedule, with optional running
    Richardson extrapolation in 1/k.  At q = 1 the formula degenerates to
    the classical Post-Widder estimator (scale factor 1, prefactor 1).
    """
    _same_q(q, F)
    t = _real_arg("t", t)

    n, log_c, sign_c = F._log_form
    # per-term: w_n = c_n * q_poly(2-q, n+1)/n!; fixed m: (2-q) * c_n/(n! * xi_m**n); a zero
    # c_n stays in as a -inf exponent, as the row takes the whole run of orders 0..size-1
    size = len(F.coeffs)
    log_w, sign = np.empty(size), np.zeros(size)
    log_w.fill(-math.inf)  # np.full is these two steps behind a Python-level call
    log_w[n] = log_c - _log_power_map(0.0 if cfg.fixed_m else q.eps, size.bit_length())[n]
    sign[n] = sign_c
    if cfg.fixed_m:
        log_w += math.log(2.0 - q.q) - np.arange(size) * math.log(xi_factor(q, cfg.fixed_m))
    values = _log_term_sum(*_widder_row(log_w, sign, 0.0, cfg.k_schedule), t, "estimate")
    return list(extrapolate_schedule(cfg.k_schedule, values.reshape(-1, len(cfg.k_schedule)), cfg.extrapolate)[0])


def series_invert(q: QParam, F: PowerSeriesTransform) -> TaylorSeries:
    """Exact term-wise inverse: coefficient rule a_n = c_n * q_poly(2-q, n+1)/n!.

    This is the k -> inf limit of the per-term-scaled estimator and the
    exact inverse of the forward power map
    t**n -> n!/q_poly(2-q, n+1) * s**-(n+1), in log magnitude: each nonzero
    term of F's log form gives sign_n * exp(log|c_n| - log(n!/q_poly(2-q, n+1))),
    and every other a_n is +0.0.  Also valid at q = 1, where it reduces to the
    classical rule a_n = c_n/n!.
    """
    _same_q(q, F)
    n, log_c, sign_c = F._log_form
    size = len(F.coeffs)
    a = np.zeros(size)
    with np.errstate(over="ignore"):  # a coefficient past double range is refused as not finite
        a[n] = sign_c * np.exp(log_c - _log_power_map(q.eps, size.bit_length())[n])
    return TaylorSeries(a)


@dataclass(frozen=True)
class RoundtripReport:
    max_coeff_rel_err: float
    coeff_errors: tuple[float, ...]
    recovered: tuple[float, ...]
    reference: tuple[float, ...]
    t_grid: tuple[float, ...]
    pointwise_errors: tuple[float, ...]


def roundtrip(q: QParam, f: CatalogFunction, n_terms: int = 20) -> RoundtripReport:
    """Forward closed form then term-wise inversion, against f itself.

    The recovered Taylor coefficients are compared with f's defining series,
    from which `catalog_transform` built the transform: this measures only
    the round-off of the power map and its inverse (the tests check against
    the independent pFq closed forms).  The reconstructed series is
    compared with f pointwise at 33 points of [0, t_max].
    """
    n_terms = _integer_arg("n_terms", n_terms, 4)
    F = catalog_transform(q, f, n_terms)
    rec = series_invert(q, F)
    ref = f.taylor_coefficients(len(rec.coeffs) - 1)
    errors = tuple(map(_rel_err, rec.coeffs, ref))
    t_grid = np.linspace(0.0, rec.t_max, 33)
    true_vals = f(t_grid)
    pw = np.abs(rec(t_grid) - true_vals) / np.maximum(np.abs(true_vals), 1.0)
    return RoundtripReport(max(errors), errors, rec.coeffs, tuple(ref), tuple(t_grid.tolist()), tuple(pw.tolist()))


def widder_weight(q: QParam, k: int, y):
    """Kernel weight y**k * (1 - (1-q)*k*y)**(1/(1-q) - k) (cutoff to 0).

    At q = 1 this is (y*exp(-y))**k.  Whenever y = 1 lies inside the
    support, i.e. (1-q)*k < 1, the only interior stationary point is
    exactly y = 1: the log-derivative condition
    k/y = k*(1 - (1-q)*k)/(1 - (1-q)*k*y) collapses to y = 1.  For larger
    k the support ends before y = 1 and the weight grows without bound
    toward the cutoff.  Formed as (y * q_exp(-k*y)**(1/k - (1-q)))**k, the
    k-th power of one factor, so that y**k and the kernel power cannot
    overflow and underflow apart.
    """
    k = _integer_arg("k", k, 1)
    arr = np.asarray(_real_arg("y", y, closed=True, arrays=True))
    with np.errstate(over="ignore"):
        out = (arr * _q_exp_pow(q.eps, -k * arr, 1.0 / k - q.eps)) ** k
    return out if arr.ndim else float(out)
