"""Deformed canonical partition functions and density-of-states recovery.

Two models, both with pure power-law partition functions under the
second-constraint (linear-average) formulation:

* classical ideal gas in D dimensions, N particles:

      Z_q(beta) = V**N (2 pi m)**(DN/2) / (h**DN N!)
                  * Gamma(z+1) / ((1-q)**(DN/2) Gamma(z + DN/2 + 1))
                  * beta**-(DN/2),            z = 1/(1-q);

* N noninteracting D-dimensional harmonic oscillators:

      Z_q(beta) = (hbar omega)**-DN
                  * Gamma(z+1) / ((1-q)**DN Gamma(z + DN + 1))
                  * beta**-DN.

Because the Gamma ratio equals 1/q_poly(2-q, m) for transform power m,
Z_q is exactly the deformed transform of a q-independent power law: the
density of states g(E) = prefactor * E**(m-1) / Gamma(m) recovered by the
Post-Widder inversion carries no q dependence.  For a single power the
finite-k estimate is one term of the weighted sum that inverse.q_post_widder
uses, at offset m - 1, so one log-domain path serves integer and real m; the Gamma
ratio, xi and R(k, p) (q_poly at 1-q = 1/k) all come from qmath._log_q_poly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, QLaplaceError
from .inverse import WidderConfig, WidderEstimate, _widder_sums, extrapolate_schedule
from .qmath import QParam, _integer_arg, _log_q_poly, _q_exp_pow, _xi_factor_real
# perfbench/spans.py wraps q_post_widder, _xi_factor_real and _q_poly_real here (a bare alias nothing calls).
from .inverse import q_post_widder  # noqa: F401
from .qmath import q_poly as _q_poly_real  # noqa: F401
from .quadrature import dyadic_breakpoints, integrate

__all__ = [
    "IdealGasModel",
    "OscillatorModel",
    "DensityOfStates",
    "ideal_gas_partition",
    "oscillator_partition",
    "ideal_gas_partition_quadrature",
    "density_of_states",
]

_MAX_DOF = 200


@dataclass(frozen=True)
class IdealGasModel:
    """D-dimensional classical ideal gas of N particles (arbitrary units)."""

    D: int
    N: int
    V: float = 1.0
    mass: float = 1.0
    h: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", _integer_arg("D", self.D, 1))
        object.__setattr__(self, "N", _integer_arg("N", self.N, 1))
        if not all(0.0 < x < math.inf for x in (self.V, self.mass, self.h)):
            raise DomainError(f"V, mass and h must be finite and positive, got {self.V}, {self.mass}, {self.h}")
        if self.D * self.N < 2:
            raise DomainError("need D*N/2 >= 1 for a valid transform power")
        if self.D * self.N > _MAX_DOF:
            raise DomainError(f"D*N > {_MAX_DOF} rejected (overflow guard)")

    @property
    def transform_power(self) -> float:
        return self.D * self.N / 2.0

    @property
    def log_prefactor(self) -> float:
        dn = self.D * self.N
        return (
            self.N * math.log(self.V)
            + dn / 2.0 * math.log(2.0 * math.pi * self.mass)
            - dn * math.log(self.h)
            - math.lgamma(self.N + 1)
        )


@dataclass(frozen=True)
class OscillatorModel:
    """N noninteracting D-dimensional harmonic oscillators."""

    D: int
    N: int
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", _integer_arg("D", self.D, 1))
        object.__setattr__(self, "N", _integer_arg("N", self.N, 1))
        if not (0.0 < self.omega < math.inf and 0.0 < self.hbar < math.inf):
            raise DomainError(f"omega and hbar must be finite and positive, got {self.omega}, {self.hbar}")
        if self.D * self.N > _MAX_DOF:
            raise DomainError(f"D*N > {_MAX_DOF} rejected (overflow guard)")

    @property
    def transform_power(self) -> float:
        return float(self.D * self.N)

    @property
    def log_prefactor(self) -> float:
        return -self.D * self.N * math.log(self.hbar * self.omega)


ThermoModel = Union[IdealGasModel, OscillatorModel]


def _log_power_coefficient(q: QParam, model: ThermoModel) -> float:
    """log C where Z_q(beta) = C * beta**-m; the Gamma-ratio part equals
    1/q_poly(2-q, m) at real order m, from qmath._log_q_poly at 1-q itself."""
    return model.log_prefactor - _log_q_poly((q.eps,), model.transform_power, 1)[0, 0]


def _exp(log_x: float, what: str) -> float:
    try:
        return math.exp(log_x)
    except OverflowError:
        raise QLaplaceError(f"{what} overflows double precision") from None


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be finite and positive, got beta = {beta}")


def _partition(q: QParam, model: ThermoModel, beta: float) -> float:
    """C * beta**-m; at q = 1 the q_poly factor is 1, so this is the classical Z."""
    _check_beta(beta)
    return _exp(_log_power_coefficient(q, model) - model.transform_power * math.log(beta), "Z_q")


def ideal_gas_partition(q: QParam, model: IdealGasModel, beta: float) -> float:
    """Closed-form Z_q(beta) for the ideal gas, evaluated in log domain."""
    return _partition(q, model, beta)


def oscillator_partition(q: QParam, model: OscillatorModel, beta: float) -> float:
    """Closed-form Z_q(beta) for the oscillator bath, log domain."""
    return _partition(q, model, beta)


def ideal_gas_partition_quadrature(q: QParam, model: IdealGasModel, beta: float) -> float:
    """Brute-force phase-space integral for two momentum degrees of freedom.

    Integrates the deformed Boltzmann weight over the full momentum plane
    (which is what the closed form counts; a first-quadrant-only domain
    would come out 4x smaller) and multiplies by the configurational
    volume V**N / (h**DN N!).  Restricted to D*N = 2 where the 2D nested
    quadrature, at rel_tol 1e-8 and abs_tol 1e-12, is cheap.  The momentum
    disc has radius 1/sqrt((1-q) beta/(2 mass)), so q < 1 only.
    """
    if q.classical:
        raise DomainError("the brute-force momentum disc is bounded for q < 1 only")
    _check_beta(beta)
    if model.D * model.N != 2:
        raise DomainError("brute-force cross-check is implemented for D*N = 2 only")
    half = beta / (2.0 * model.mass)
    r2 = 1.0 / (q.eps * half)
    radius = math.sqrt(r2)

    def inner(p1: float) -> float:
        p2_max = math.sqrt(max(r2 - p1 * p1, 0.0))
        if p2_max == 0.0:
            return 0.0

        def integrand(p2: np.ndarray) -> np.ndarray:
            return _q_exp_pow(q.eps, -half * (p1 * p1 + p2 * p2))

        pts = dyadic_breakpoints(0.0, p2_max, toward_a=False, toward_b=True, levels=20)
        return integrate(integrand, 0.0, p2_max, breakpoints=pts, rel_tol=1e-8, abs_tol=1e-12)

    # inner takes one p1 at a time: integrate maps it over the nodes
    pts = dyadic_breakpoints(0.0, radius, toward_a=False, toward_b=True, levels=20)
    momentum_plane = 4.0 * integrate(inner, 0.0, radius, breakpoints=pts, rel_tol=1e-8, abs_tol=1e-12)
    log_config = (
        model.N * math.log(model.V)
        - model.D * model.N * math.log(model.h)
        - math.lgamma(model.N + 1)
    )
    return momentum_plane * math.exp(log_config)


@dataclass(frozen=True)
class DensityOfStates:
    """g(E) = exp(log_prefactor) * E**exponent plus finite-k numeric samples."""

    log_prefactor: float
    exponent: float
    samples: tuple[tuple[float, float], ...]
    k_estimates: tuple[tuple[float, tuple[WidderEstimate, ...]], ...]

    @property
    def prefactor(self) -> float:
        return _exp(self.log_prefactor, "g(E) prefactor")

    def analytic(self, E):
        """g(E), zero at E <= 0, in log magnitude (prefactor and power may under/overflow)."""
        with np.errstate(over="ignore", divide="ignore"):
            g = np.exp(self.log_prefactor + self.exponent * np.log(np.maximum(E, 0.0)))
        if np.any(np.isinf(g)):
            raise QLaplaceError("g(E) overflows double precision")
        return g


def density_of_states(
    q: QParam,
    model: ThermoModel,
    E_grid,
    cfg: WidderConfig = WidderConfig(),
) -> DensityOfStates:
    """Recover g(E) from Z_q by treating beta as the transform variable.

    Z_q(beta) = C * beta**-m is a single power, so at every real m >= 2 the
    finite-k estimator is one term of the Post-Widder weighted sum, weight
    (2-q) * C / (Gamma(m) * xi**(m-1)) at offset m - 1, with xi at order
    ``cfg.fixed_m`` when that is set, else m; all energies and k at once, in
    log magnitude (QLaplaceError, never inf, on overflow).  The analytic
    limit g(E) = exp(log_prefactor) * E**(m-1) / Gamma(m) is carried
    alongside and is independent of q; at q = 1 the estimator is the
    classical Post-Widder one (xi = 1).
    """
    m = model.transform_power
    if m < 2:
        raise DomainError("transform power m must be >= 2: the scale factor xi is undefined below")
    energies = [float(e) for e in E_grid]
    if not energies or not all(0.0 < e < math.inf for e in energies):
        raise DomainError("energy grid must be finite, positive and nonempty")
    log_w = (
        math.log(2.0 - q.q)
        + _log_power_coefficient(q, model)
        - math.lgamma(m)
        - (m - 1.0) * math.log(_xi_factor_real(q, cfg.fixed_m or m))
    )
    values = _widder_sums(np.array([log_w]), np.ones(1), m - 1.0, energies, cfg.k_schedule)
    per_e, samples = [], []
    for e, ests in zip(energies, extrapolate_schedule(cfg.k_schedule, values, cfg.extrapolate)):
        last = ests[-1]
        per_e.append((e, tuple(ests)))
        samples.append((e, last.value if last.extrapolated is None else last.extrapolated))
    return DensityOfStates(model.log_prefactor - math.lgamma(m), m - 1.0, tuple(samples), tuple(per_e))
