"""Adaptive numerical integration used by the transform layer.

Scheme: a fixed 15-point Gauss-Legendre rule per panel, with global
adaptive bisection.  A panel's error is estimated by comparing the
whole-panel rule against the sum over its two halves, all three from one
integrand call on 45 nodes (15 for the panel, then 15 for each half), laid
out from one table of node fractions and weighed by one constant (2, 45)
weight matrix; the worst panel is split until the total estimated error
meets the tolerance.
Initial panels can be laid out dyadically toward an endpoint, which both
resolves integrand features living on much smaller scales than the
interval and implements geometric subdivision toward an endpoint where
the integrand is continuous but not smooth (the kernel cutoff).

Integrands must be vectorized over numpy arrays; a fallback wrapper maps
scalar-only callables elementwise, lets their QLaplaceErrors through and
turns their type, value and arithmetic errors into QuadratureErrors.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QLaplaceError, QuadratureError

__all__ = ["QuadratureConfig", "integrate", "integrate_half_line"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
# a panel [a, b] is sampled at a + (b-a)*_FRACTIONS: the 15 nodes of the whole panel, then
# those of each half; per unit width, row 0 of _PANEL_WEIGHTS is the whole-panel rule and
# row 1 the sum of the two half-panel rules
_FRACTIONS = np.concatenate([0.5 * (_NODES + 1.0), 0.25 * (_NODES + 1.0), 0.5 + 0.25 * (_NODES + 1.0)])
_PANEL_WEIGHTS = np.zeros((2, 45))
_PANEL_WEIGHTS[0, :15] = 0.5 * _WEIGHTS
_PANEL_WEIGHTS[1, 15:] = 0.25 * np.tile(_WEIGHTS, 2)

_MAX_PANELS = 40000


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 60

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise DomainError(f"quadrature tolerances must be finite and positive, got {self}")
        if not float(self.max_depth).is_integer() or self.max_depth < 1:
            raise DomainError(f"max_depth must be a positive integer, got {self.max_depth}")


def _vectorized(f):
    def call(x: np.ndarray) -> np.ndarray:
        try:
            y = np.asarray(f(x), dtype=float)
            if y.shape == x.shape:
                return y
        except QLaplaceError:
            raise
        except (TypeError, ValueError):
            pass
        try:
            return np.fromiter((float(f(xi)) for xi in x), dtype=float, count=len(x))
        except QLaplaceError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:  # not a ValueError: enclosing wrappers let it through
            raise QuadratureError(f"integrand fails on arrays and on scalars: {exc}") from exc

    return call


def _measure(f, a: float, b: float) -> tuple[float, float]:
    """Two-half panel value and its error against the whole-panel rule, from one 45-node call;
    QuadratureError on a non-finite sample or panel value (the caller silences numpy's warnings).
    Every node has a nonzero weight in one row, so a non-finite sample makes a value non-finite
    and the samples are searched only then."""
    width = b - a
    x = a + width * _FRACTIONS
    y = f(x)
    whole, value = (_PANEL_WEIGHTS @ y).tolist()
    whole, value = width * whole, width * value
    if not (math.isfinite(whole) and math.isfinite(value)):
        bad = x[~np.isfinite(y)]
        if len(bad):
            raise QuadratureError(f"non-finite integrand sample at t = {bad[0]}")
        raise QuadratureError(f"non-finite panel value on [{a}, {b}]")
    return value, abs(whole - value)


def dyadic_breakpoints(
    a: float, b: float, *, toward_a: bool = True, toward_b: bool = False, levels: int = 32
) -> list[float]:
    """Interior breakpoints accumulating geometrically toward an endpoint."""
    width = b - a
    pts: set[float] = set()
    for j in range(1, levels + 1):
        frac = 2.0 ** (-j)
        if toward_a:
            pts.add(a + width * frac)
        if toward_b:
            pts.add(b - width * frac)
    return sorted(p for p in pts if a < p < b)


def integrate(
    f,
    a: float,
    b: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    breakpoints: list[float] | None = None,
) -> float:
    """Integrate f over [a, b] to within max(abs_tol, rel_tol*|result|).

    Raises QuadratureError when a panel would need more than ``max_depth``
    bisections, when the panel budget is exhausted, or on a non-finite
    integrand sample or panel value.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"integration limits must be finite and ordered, got [{a}, {b}]")
    if b == a:
        return 0.0
    fv = _vectorized(f)

    edges = [a, *(p for p in sorted(breakpoints or ()) if a < p < b), b]
    heap, total, err_total, seq = [], 0.0, 0.0, 0  # heap entries: (-err, seq, lo, hi, value, depth)

    def push(lo: float, hi: float, depth: int) -> None:
        nonlocal total, err_total, seq
        value, err = _measure(fv, lo, hi)
        total, err_total, seq = total + value, err_total + err, seq + 1
        heapq.heappush(heap, (-err, seq, lo, hi, value, depth))

    with np.errstate(all="ignore"):  # _measure raises on the non-finite values these warnings flag
        for lo, hi in zip(edges[:-1], edges[1:]):
            push(lo, hi, 0)

        noise_floor = 64.0 * np.finfo(float).eps
        while heap:
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if err_total <= tol:
                break
            neg_err, _, lo, hi, value, depth = heapq.heappop(heap)
            err = -neg_err
            if err <= noise_floor * max(abs(total), abs(value)):
                # at double-precision noise floor; refining cannot help
                err_total -= err
                continue
            if depth >= cfg.max_depth:
                raise QuadratureError(
                    f"tolerance not met: panel [{lo}, {hi}] exhausted max_depth={cfg.max_depth}"
                )
            if seq >= _MAX_PANELS:
                raise QuadratureError("tolerance not met: panel budget exhausted")
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                raise QuadratureError("tolerance not met: panel narrower than float spacing")
            total -= value
            err_total -= err
            push(lo, mid, depth + 1)
            push(mid, hi, depth + 1)
    if not math.isfinite(total):
        raise QuadratureError("integral overflows double precision")
    return total


def integrate_half_line(
    f,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    scale: float = 1.0,
) -> float:
    """Integrate f over [0, inf) for integrands that decay at infinity.

    Substitutes ``t = scale * u / (1 - u)`` to map to [0, 1); ``scale``
    should match the decay scale of the integrand so that the transformed
    integrand varies on O(1) scales in u.
    """
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be finite and positive, got {scale}")

    def g(u):
        om = 1.0 - u
        return f(scale * u / om) * (scale / om**2)

    pts = dyadic_breakpoints(0.0, 1.0, toward_a=True, toward_b=True, levels=32)
    return integrate(g, 0.0, 1.0, cfg, breakpoints=pts)
