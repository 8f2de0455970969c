"""Deformed canonical partition functions and density-of-states recovery.

Two models, both with pure power-law partition functions Z_q(beta) =
C * beta**-m under the second-constraint (linear-average) formulation, so
that one function, `partition_function`, serves both:

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
uses, at offset m - 1, so one log-domain path serves integer and real m >= 1: its
weight is the q-free prefactor / Gamma(m), and the estimate g(E) * R(k, m-1);
the Gamma ratio and R(k, p) (q_poly at 1-q = 1/k) come from qmath._log_q_poly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import DomainError, QLaplaceError
from .inverse import WidderConfig, WidderEstimate, _widder_row, extrapolate_schedule
from .qmath import QParam, _grid_arg, _integer_arg, _log_q_poly, _log_term_sum, _q_exp_pow, _real_arg
# perfbench/spans.py wraps q_post_widder, _xi_factor_real and _q_poly_real here (bare aliases nothing calls).
from .inverse import q_post_widder  # noqa: F401
from .qmath import q_poly as _q_poly_real  # noqa: F401
from .qmath import xi_factor as _xi_factor_real  # noqa: F401
from .quadrature import dyadic_breakpoints, integrate

__all__ = [
    "IdealGasModel",
    "OscillatorModel",
    "DensityOfStates",
    "partition_function",
    "ideal_gas_partition_quadrature",
    "density_of_states",
]

_MAX_DOF = 200


@dataclass(frozen=True)
class _Model:
    """D and N, whole and >= 1, and every constant field a subclass adds, finite and positive."""

    D: int
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", _integer_arg("D", self.D, 1))
        object.__setattr__(self, "N", _integer_arg("N", self.N, 1))
        for field in fields(self)[2:]:
            object.__setattr__(self, field.name, _real_arg(field.name, getattr(self, field.name)))
        if self.transform_power < 1.0:  # only the gas, at m = D*N/2, can fall below
            raise DomainError("need D*N/2 >= 1 for a valid transform power")
        if self.D * self.N > _MAX_DOF:
            raise DomainError(f"D*N > {_MAX_DOF} rejected (overflow guard)")


@dataclass(frozen=True)
class IdealGasModel(_Model):
    """D-dimensional classical ideal gas of N particles (arbitrary units)."""

    V: float = 1.0
    mass: float = 1.0
    h: float = 1.0

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
class OscillatorModel(_Model):
    """N noninteracting D-dimensional harmonic oscillators."""

    omega: float = 1.0
    hbar: float = 1.0

    @property
    def transform_power(self) -> float:
        return float(self.D * self.N)

    @property
    def log_prefactor(self) -> float:
        return -self.D * self.N * math.log(self.hbar * self.omega)


def _exp(log_x: float, what: str) -> float:
    try:
        return math.exp(log_x)
    except OverflowError:
        raise QLaplaceError(f"{what} overflows double precision") from None


def partition_function(q: QParam, model: _Model, beta: float) -> float:
    """Closed-form Z_q(beta) = C * beta**-m of either model, in log domain: C is the prefactor
    over q_poly(2-q, m), the Gamma ratio at real order m (qmath._log_q_poly at 1-q itself);
    at q = 1 the q_poly factor is 1, so this is the classical Z."""
    beta = _real_arg("beta", beta)
    m = model.transform_power
    return _exp(model.log_prefactor - _log_q_poly((q.eps,), m, 1)[0, 0] - m * math.log(beta), "Z_q")


def ideal_gas_partition_quadrature(q: QParam, model: IdealGasModel, beta: float) -> float:
    """Brute-force phase-space integral for two momentum degrees of freedom.

    Integrates the deformed Boltzmann weight over the full momentum plane
    (which is what the closed form counts; a first-quadrant-only domain
    would come out 4x smaller) in polar form, 2 pi * integral_0^R
    r q_exp(-beta r**2/(2 mass)) dr, by one `integrate` call with dyadic
    breakpoints toward the cutoff at R = sqrt(2 mass/((1-q) beta)), and
    multiplies by the configurational volume V**N / (h**DN N!).  Restricted
    to D*N = 2, and to q < 1, where the momentum disc is bounded.
    """
    if q.classical:
        raise DomainError("the brute-force momentum disc is bounded for q < 1 only")
    beta = _real_arg("beta", beta)
    if model.D * model.N != 2:
        raise DomainError("brute-force cross-check is implemented for D*N = 2 only")
    half = beta / (2.0 * model.mass)
    radius = math.sqrt(1.0 / (q.eps * half))

    def integrand(r: np.ndarray) -> np.ndarray:
        return r * _q_exp_pow(q.eps, -half * r * r)

    pts = dyadic_breakpoints(0.0, radius, toward_a=False, toward_b=True)
    momentum_plane = 2.0 * math.pi * integrate(integrand, 0.0, radius, breakpoints=pts)
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
        """g(E), zero at E <= 0, in log magnitude (prefactor and power may under/overflow);
        a float for a scalar E, an array for an array; DomainError naming E if it is not finite."""
        arr = np.asarray(_real_arg("E", E, -math.inf, arrays=True))
        g, above = np.zeros(arr.shape), arr > 0.0
        with np.errstate(over="ignore"):
            g[above] = np.exp(self.log_prefactor + self.exponent * np.log(arr[above]))
        if np.isinf(g).any():
            raise QLaplaceError("g(E) overflows double precision")
        return g if arr.ndim else float(g)


def density_of_states(
    q: QParam,
    model: _Model,
    E_grid,
    cfg: WidderConfig = WidderConfig(),
) -> DensityOfStates:
    """Recover g(E) on a scalar or 1-D grid E, treating beta as the transform variable.

    Z_q(beta) = C * beta**-m is a single power, so at every real m >= 1 the
    finite-k estimator is one term of the Post-Widder weighted sum at offset
    m - 1 (the per-term estimator of `q_post_widder` on the one-term series
    C * s**-m).  Its weight (2-q) * C / (Gamma(m) * xi**(m-1)), with xi at the
    model's own m, is the q-free prefactor / Gamma(m): every q_poly(2-q, m) in
    it cancels, so the estimate, g(E) * R(k, m-1), does not depend on q.  It is
    formed for all energies and k at once, in log magnitude (QLaplaceError,
    never inf, on overflow).  A ``cfg.fixed_m`` that is set raises DomainError:
    an xi at another order only mis-scales the estimate.  The analytic limit
    g(E) = exp(log_prefactor) * E**(m-1) / Gamma(m) is carried alongside.
    """
    if cfg.fixed_m is not None:
        raise DomainError(f"density_of_states takes xi at the model's own m: fixed_m = {cfg.fixed_m} is not allowed")
    m = model.transform_power
    E_arr = _grid_arg("E", E_grid)
    energies = E_arr.tolist()
    log_w = model.log_prefactor - math.lgamma(m)
    row = _widder_row(np.array([log_w]), np.array([1.0]), m - 1.0, cfg.k_schedule)
    ests = extrapolate_schedule(cfg.k_schedule, _log_term_sum(*row, E_arr, "estimate"), cfg.extrapolate)
    # a sample is its last k's running extrapolation, or that k's value where there is none
    last = attrgetter("extrapolated" if cfg.extrapolate and len(cfg.k_schedule) > 1 else "value")
    samples = tuple(zip(energies, [last(point[-1]) for point in ests]))
    return DensityOfStates(log_w, m - 1.0, samples, tuple(zip(energies, ests)))
