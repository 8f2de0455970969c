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

Every term is formed in log magnitude by the package's one series evaluator,
qmath._log_term_sum, so the schedule can run to large k; a result past double
range raises QLaplaceError.  Richardson extrapolation in 1/k is one cached
weight matrix per schedule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogFunction
from .errors import DomainError, QLaplaceError
from .qmath import QParam, _log_power_map, _log_q_poly, _log_term_sum, _power_map, xi_factor
from .transform import PowerSeriesTransform, catalog_transform

__all__ = [
    "TaylorSeries",
    "WidderConfig",
    "WidderEstimate",
    "RoundtripReport",
    "classical_post_widder",
    "q_post_widder",
    "series_invert",
    "roundtrip",
    "widder_weight",
]


@dataclass(frozen=True)
class TaylorSeries:
    """f(t) = sum_n coeffs[n] * t**n with a rough validity radius t_max."""

    coeffs: tuple[float, ...]
    t_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if not all(math.isfinite(a) for a in self.coeffs):
            raise DomainError("non-finite Taylor coefficient")

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"t must be finite, got t = {arr[~np.isfinite(arr)].flat[0]}")
        acc = np.zeros_like(arr)
        for a in reversed(self.coeffs):
            acc = acc * arr + a
        return acc if np.ndim(t) else float(acc)


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
        ks = tuple(int(k) for k in self.k_schedule)
        object.__setattr__(self, "k_schedule", ks)
        if not ks or any(k < 1 for k in ks):
            raise DomainError("k_schedule must contain positive integers")
        if any(b <= a for a, b in zip(ks[:-1], ks[1:])):
            raise DomainError("k_schedule must be strictly increasing")
        if self.fixed_m is not None:
            if not float(self.fixed_m).is_integer() or self.fixed_m < 2:
                raise DomainError(f"fixed-power mode requires an integer m >= 2, got {self.fixed_m}")
            object.__setattr__(self, "fixed_m", int(self.fixed_m))


@dataclass(frozen=True)
class WidderEstimate:
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
    values = np.asarray(values, dtype=float)
    extr = values @ _richardson_weights(tuple(ks)).T
    return [
        [WidderEstimate(int(k), v, e if enabled and i else None) for i, (k, v, e) in enumerate(zip(ks, row, row_e))]
        for row, row_e in zip(values.tolist(), extr.tolist())
    ]


def classical_post_widder(F_deriv, t: float, k: int) -> float:
    """Finite-k classical estimate (-1)**k/k! * s**(k+1) * F^(k)(s) at s = k/t.

    ``F_deriv`` is a derivative oracle: a callable (k, s) -> F^(k)(s)
    backed by an exact series or a closed form (finite differences are
    hopeless at this order and are deliberately not offered).  Error
    decays like O(1/k) for smooth f.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be finite and positive, got t = {t}")
    if k < 1:
        raise DomainError("k must be >= 1")
    s = k / t
    d = float(F_deriv(k, s))
    if not math.isfinite(d):
        raise QLaplaceError(f"derivative oracle returned non-finite value at k={k}, s={s}")
    if d == 0.0:
        return 0.0
    log_mag = math.log(abs(d)) + (k + 1) * math.log(s) - math.lgamma(k + 1)
    sign = math.copysign(1.0, d) * (-1.0 if k % 2 else 1.0)
    try:
        return sign * math.exp(log_mag)
    except OverflowError:
        raise QLaplaceError("estimate overflows double precision despite log-domain handling")


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
    c = np.asarray(F.coeffs)
    if not np.any(c):
        raise DomainError("empty transform series")
    # per-term: w_n = c_n * q_poly(2-q, n+1)/n!; fixed m: (2-q) * c_n/(n! * xi_m**n)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(c)) - _log_power_map(0.0 if cfg.fixed_m else q.eps, len(c).bit_length())[: len(c)]
    if cfg.fixed_m:
        log_w += math.log(2.0 - q.q) - np.arange(len(c)) * math.log(xi_factor(q, cfg.fixed_m))
    values = _widder_sums(log_w, np.sign(c), 0.0, [t], cfg.k_schedule)
    return extrapolate_schedule(cfg.k_schedule, values, cfg.extrapolate)[0]


def _radius_guess(coeffs: tuple[float, ...]) -> float:
    nz = [(n, abs(a)) for n, a in enumerate(coeffs) if a != 0.0]
    if not nz:
        return 1.0
    n_last, a_last = nz[-1]
    if n_last == 0:
        return 10.0
    t_trunc = (1e-9 / a_last) ** (1.0 / n_last) if a_last > 0.0 else 10.0
    return float(min(max(t_trunc, 1e-3), 1e3))


def series_invert(q: QParam, F: PowerSeriesTransform) -> TaylorSeries:
    """Exact term-wise inverse: coefficient rule a_n = c_n * q_poly(2-q, n+1)/n!.

    This is the k -> inf limit of the per-term-scaled estimator and the
    exact inverse of the forward power map
    t**n -> n!/q_poly(2-q, n+1) * s**-(n+1), in log magnitude.  Also valid
    at q = 1, where it reduces to the classical rule a_n = c_n/n!.
    """
    coeffs = tuple(_power_map(q, F.coeffs, inverse=True).tolist())
    return TaylorSeries(coeffs, _radius_guess(coeffs))


@dataclass(frozen=True)
class RoundtripReport:
    max_coeff_rel_err: float
    coeff_errors: tuple[float, ...]
    recovered: tuple[float, ...]
    reference: tuple[float, ...]
    t_grid: tuple[float, ...]
    pointwise_errors: tuple[float, ...]


def roundtrip(
    q: QParam,
    f: CatalogFunction,
    n_terms: int = 20,
    t_points: int = 33,
) -> RoundtripReport:
    """Forward closed form then term-wise inversion, against f itself.

    The recovered Taylor coefficients are compared with f's defining series,
    from which `catalog_transform` built the transform: this measures only
    the round-off of the power map and its inverse (the tests check against
    the independent pFq closed forms).  The reconstructed series is
    compared with f pointwise on [0, t_max].
    """
    if n_terms < 4:
        raise DomainError("n_terms must be >= 4")
    F = catalog_transform(q, f, n_terms)
    rec = series_invert(q, F)
    ref = f.taylor_coefficients(len(rec.coeffs) - 1)
    errors = []
    for a_rec, a_ref in zip(rec.coeffs, ref):
        scale = max(abs(a_rec), abs(a_ref))
        errors.append(abs(a_rec - a_ref) / scale if scale > 0.0 else 0.0)
    t_grid = np.linspace(0.0, rec.t_max, t_points)
    series_vals = rec(t_grid)
    true_vals = np.asarray(f(t_grid), dtype=float)
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
    toward the cutoff.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(arr < 0.0):
        raise DomainError("y must be nonnegative")
    out = np.zeros_like(arr)
    if q.classical:
        pos = arr > 0.0
        out[pos] = np.exp(k * (np.log(arr[pos]) - arr[pos]))
    else:
        expo = 1.0 / q.eps - k
        live = (arr > 0.0) & (1.0 - q.eps * k * arr > 0.0)
        with np.errstate(over="ignore"):
            out[live] = np.exp(
                k * np.log(arr[live]) + expo * np.log(1.0 - q.eps * k * arr[live])
            )
    out = out.reshape(np.shape(y))
    return out if np.ndim(y) else float(out)
