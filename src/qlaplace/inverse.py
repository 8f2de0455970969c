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
* statmech.density_of_states: one power C * s**-m at real m, a single term
  at p0 = m - 1.

Every term, of these and of a TaylorSeries value (the t view of the one series
type, qmath.PowerSeries), is formed in log magnitude by qmath._log_term_sum, so the
schedule runs to large k and a sum past double range raises QLaplaceError.
Richardson extrapolation in 1/k is one cached weight matrix per schedule.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import CatalogFunction
from .errors import DomainError
from .qmath import (
    PowerSeries, QParam, _integer_arg, _log_power_map, _log_q_poly, _log_term_sum, _power_map, _q_exp_pow, xi_factor,
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
        log_cap = ((math.log(sys.float_info.max / len(self.coeffs)) - log_a[n > 0]) / n[n > 0]).min(initial=math.inf)
        return min(self.radius, 1e3 if log_cap > math.log(1e3) else math.exp(log_cap))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if not np.isfinite(arr).all():
            raise DomainError(f"t must be finite, got t = {arr[~np.isfinite(arr)].flat[0]}")
        n, log_a, sign = self._log_form
        # terms at |t| with the sign (-1)**n where t < 0; t = 0 (summed at the least normal |t|) is a_0
        y, signs = np.abs(arr).reshape(-1), np.where(arr.reshape(-1, 1) < 0.0, sign * (1 - 2 * (n % 2)), sign)
        out = np.where(y > 0.0, _log_term_sum(log_a, signs, n, y.clip(sys.float_info.min), "f(t)"), self.coeffs[0])
        return out.reshape(arr.shape) if arr.ndim else float(out[0])


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


def extrapolate_schedule(ks, values, enabled: bool = True) -> list[list[WidderEstimate]]:
    """Wrap raw finite-k values, one row per point and one column per k,
    attaching to each estimate after the first its running 1/k Richardson
    value when ``enabled``."""
    ks, values = [int(k) for k in ks], np.asarray(values, dtype=float)
    if not enabled:
        return [list(map(WidderEstimate, ks, row)) for row in values.tolist()]
    extr = (values @ _richardson_weights(tuple(ks)).T).tolist()
    for row_e in extr:  # the first k has nothing to extrapolate from
        row_e[0] = None
    return [list(map(WidderEstimate, ks, row, row_e)) for row, row_e in zip(values.tolist(), extr)]


def _widder_sums(log_w: np.ndarray, sign: np.ndarray, p0: float, x, ks: tuple[int, ...]) -> np.ndarray:
    """Finite-k estimates sum_n w_n x**(p0+n) R(k, p0+n), one row per x > 0
    and one column per k, for weights w_n = sign_n * exp(log_w_n) (-inf for
    a zero weight): qmath._log_term_sum with log R, qmath._log_q_poly at 1-q = 1/k, added."""
    n, log_r = len(log_w), _log_q_poly(tuple(1.0 / k for k in ks), p0, len(log_w))
    return _log_term_sum(log_w + log_r, sign, p0 + np.arange(n), x, "estimate")


def q_post_widder(
    q: QParam,
    F: PowerSeriesTransform,
    t: float,
    cfg: WidderConfig = WidderConfig(),
) -> list[WidderEstimate]:
    """Finite-k inversion estimates of a power-series transform at t > 0.

    Returns one estimate per k in the schedule, with optional running
    Richardson extrapolation in 1/k.  At q = 1 the formula degenerates to
    the classical Post-Widder estimator (scale factor 1, prefactor 1).
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be finite and positive, got t = {t}")
    n, log_c, sign_c = F._log_form
    if not len(n):
        raise DomainError("empty transform series")
    # per-term: w_n = c_n * q_poly(2-q, n+1)/n!; fixed m: (2-q) * c_n/(n! * xi_m**n); a zero c_n
    # stays in as a -inf exponent, as _widder_sums takes the whole run of orders 0..size-1
    size = len(F.coeffs)
    log_w, sign = np.full(size, -math.inf), np.zeros(size)
    log_w[n] = log_c - _log_power_map(0.0 if cfg.fixed_m else q.eps, size.bit_length())[n]
    sign[n] = sign_c
    if cfg.fixed_m:
        log_w += math.log(2.0 - q.q) - np.arange(size) * math.log(xi_factor(q, cfg.fixed_m))
    values = _widder_sums(log_w, sign, 0.0, [t], cfg.k_schedule)
    return extrapolate_schedule(cfg.k_schedule, values, cfg.extrapolate)[0]


def series_invert(q: QParam, F: PowerSeriesTransform) -> TaylorSeries:
    """Exact term-wise inverse: coefficient rule a_n = c_n * q_poly(2-q, n+1)/n!.

    This is the k -> inf limit of the per-term-scaled estimator and the
    exact inverse of the forward power map
    t**n -> n!/q_poly(2-q, n+1) * s**-(n+1), in log magnitude.  Also valid
    at q = 1, where it reduces to the classical rule a_n = c_n/n!.
    """
    return TaylorSeries(_power_map(q, F.coeffs, inverse=True))


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
    errors = [_rel_err(a_rec, a_ref) for a_rec, a_ref in zip(rec.coeffs, ref)]
    t_grid = np.linspace(0.0, rec.t_max, 33)
    series_vals = rec(t_grid)
    true_vals = f(t_grid)
    pw = np.abs(series_vals - true_vals) / np.maximum(np.abs(true_vals), 1.0)
    return RoundtripReport(
        max(errors),
        tuple(errors),
        rec.coeffs,
        tuple(ref),
        tuple(float(t) for t in t_grid),
        tuple(float(e) for e in pw),
    )


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
    arr = np.asarray(y, dtype=float)
    inside = (arr >= 0.0) & (arr < math.inf)
    if not inside.all():
        raise DomainError(f"y must be finite and nonnegative, got y = {arr[~inside].flat[0]}")
    with np.errstate(over="ignore"):
        out = (arr * _q_exp_pow(q.eps, -k * arr, 1.0 / k - q.eps)) ** k
    return out if np.ndim(y) else float(out)
