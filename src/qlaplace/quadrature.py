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

`integrate` is a sweep of `_measure` over the initial panels, then one
adaptive loop, `_refine`, which the transform layer's kernel route feeds too
(its 64 initial panels from one table sweep, weighted at once and summed by
one stacked product with `_PANEL_WEIGHTS`): the loop, its limits and its
errors are written once.  The loop bisects through the caller's panel
measure, ``measure(lo, hi) -> (value, err)``: `_measure` of f for
`integrate`, the kernel route's own weighted rows for the transform, each
measured by `_panel_value`.  It sums the initial panels in order first and
returns that total at once when it meets the tolerance; only otherwise does
it build its heap of panels to bisect.

The tolerances are constants: every integral in the package meets
max(_ABS_TOL, _REL_TOL*|result|), and no panel is bisected more than
_MAX_DEPTH times.

Integrands must be vectorized over numpy arrays; a fallback wrapper maps
scalar-only callables elementwise, lets their QLaplaceErrors through and
turns their type, value and arithmetic errors into QuadratureErrors.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import DomainError, QLaplaceError, QuadratureError
from .qmath import _real_arg

__all__ = ["integrate", "integrate_half_line"]

# numpy's leggauss(15), whose module also starts LAPACK: node 0 and the upper half, then their weights
_HALF = [float.fromhex(h) for h in """
    0x0.0p+0 0x1.9c0ba62ef04b5p-3 0x1.939c69257d6b6p-2 0x1.245676f08f3a4p-1 0x1.72e6e181ab3c4p-1
    0x1.b248221fffd63p-1 0x1.dfe24c4f8b447p-1 0x1.f9da27c32e6d0p-1 0x1.9ee1575f9c980p-3
    0x1.96633f1fd02cfp-3 0x1.7d41fa76dc267p-3 0x1.5484f30a86ed3p-3 0x1.1dd73b4963165p-3
    0x1.b6ec9635f1120p-4 0x1.2038260b5d03ap-4 0x1.f7dc7227a2908p-6""".split()]
_NODES = np.array([-x for x in _HALF[7:0:-1]] + _HALF[:8])
_WEIGHTS = np.array(_HALF[15:8:-1] + _HALF[8:])
# a panel [a, b] is sampled at a + (b-a)*_FRACTIONS: the 15 nodes of the whole panel, then
# those of each half; per unit width, row 0 of _PANEL_WEIGHTS is the whole-panel rule and
# row 1 the sum of the two half-panel rules
_FRACTIONS = np.concatenate([0.5 * (_NODES + 1.0), 0.25 * (_NODES + 1.0), 0.5 + 0.25 * (_NODES + 1.0)])
_PANEL_WEIGHTS = np.zeros((2, 45))
_PANEL_WEIGHTS[0, :15] = 0.5 * _WEIGHTS
_PANEL_WEIGHTS[1, 15:] = 0.25 * np.tile(_WEIGHTS, 2)

_REL_TOL, _ABS_TOL = 1e-10, 1e-14
_MAX_DEPTH = 60
_MAX_PANELS = 40000
_DYADIC_LEVELS = 32


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
    """Two-half panel value and its error against the whole-panel rule, from one 45-node call."""
    x = a + (b - a) * _FRACTIONS
    return _panel_value(f(x), x, a, b)


def _panel_value(y: np.ndarray, x: np.ndarray, a: float, b: float) -> tuple[float, float]:
    """`_measure` from the samples y at the panel's nodes x; QuadratureError on a non-finite sample
    or value (the caller silences numpy).  Every node has a nonzero weight in one row, so a
    non-finite sample makes a value non-finite and the samples are searched only then."""
    width = b - a
    whole, value = (_PANEL_WEIGHTS @ y).tolist()
    whole, value = width * whole, width * value
    if not (math.isfinite(whole) and math.isfinite(value)):
        bad = x[~np.isfinite(y)]
        if len(bad):
            raise QuadratureError(f"non-finite integrand sample at t = {bad[0]}")
        raise QuadratureError(f"non-finite panel value on [{a}, {b}]")
    return value, abs(whole - value)


def dyadic_breakpoints(a: float, b: float, *, toward_a: bool = True, toward_b: bool = False) -> list[float]:
    """Interior breakpoints accumulating geometrically toward an endpoint, _DYADIC_LEVELS deep."""
    width = b - a
    pts: set[float] = set()
    for j in range(1, _DYADIC_LEVELS + 1):
        frac = 2.0 ** (-j)
        if toward_a:
            pts.add(a + width * frac)
        if toward_b:
            pts.add(b - width * frac)
    return sorted(p for p in pts if a < p < b)


def integrate(f, a: float, b: float, *, breakpoints: list[float] | None = None) -> float:
    """Integrate f over [a, b] to within max(_ABS_TOL, _REL_TOL*|result|).

    Raises DomainError unless a and b are finite scalars with a <= b, and
    QuadratureError when a panel would need more than _MAX_DEPTH bisections,
    when the panel budget is exhausted, or on a non-finite integrand sample
    or panel value.
    """
    a, b = _real_arg("a", a, -math.inf), _real_arg("b", b, -math.inf)
    if not a <= b:
        raise DomainError(f"integration limits must be ordered, got [{a}, {b}]")
    if b == a:
        return 0.0
    fv = _vectorized(f)
    edges = [a, *(p for p in sorted(breakpoints or ()) if a < p < b), b]
    with np.errstate(all="ignore"):  # _measure raises on the non-finite values these warnings flag
        panels = [(lo, hi, *_measure(fv, lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        return _refine(lambda lo, hi: _measure(fv, lo, hi), panels)


def _refine(measure, panels: list[tuple[float, float, float, float]]) -> float:
    """The adaptive loop of `integrate` from its initial panels (lo, hi, value, err) in order:
    bisect the worst panel, measuring each half by the caller's panel measure
    ``measure(lo, hi) -> (value, err)`` (`_measure` of f for `integrate`), until the tolerance is
    met; QuadratureError as `integrate` says (the caller silences numpy).
    Values and errors are summed in panel order first, and when those sums already meet the
    tolerance their total is returned with no heap built and no panel measured."""
    total, err_total = 0.0, 0.0
    for _, _, value, err in panels:
        total, err_total = total + value, err_total + err
    if err_total <= max(_ABS_TOL, _REL_TOL * abs(total)) and math.isfinite(total):
        return total
    # heap entries: (-err, seq, lo, hi, value, depth)
    heap = [(-err, seq, lo, hi, value, 0) for seq, (lo, hi, value, err) in enumerate(panels, 1)]
    heapq.heapify(heap)  # seq is unique, so the pops come in one order however the heap is laid out
    seq = len(heap)

    def push(lo: float, hi: float, depth: int) -> None:
        nonlocal total, err_total, seq
        value, err = measure(lo, hi)
        total, err_total, seq = total + value, err_total + err, seq + 1
        heapq.heappush(heap, (-err, seq, lo, hi, value, depth))

    noise_floor = 64.0 * np.finfo(float).eps
    while heap:
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        if err_total <= tol:
            break
        neg_err, _, lo, hi, value, depth = heapq.heappop(heap)
        err = -neg_err
        if err <= noise_floor * max(abs(total), abs(value)):
            # at double-precision noise floor; refining cannot help
            err_total -= err
            continue
        if depth >= _MAX_DEPTH:
            raise QuadratureError(f"tolerance not met: panel [{lo}, {hi}] exhausted max_depth={_MAX_DEPTH}")
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


def integrate_half_line(f, *, scale: float = 1.0) -> float:
    """Integrate f over [0, inf) for integrands that decay at infinity.

    Substitutes ``t = scale * u / (1 - u)`` to map to [0, 1); ``scale``
    should match the decay scale of the integrand so that the transformed
    integrand varies on O(1) scales in u.
    """
    scale = _real_arg("scale", scale)

    def g(u):
        om = 1.0 - u
        return f(scale * u / om) * (scale / om**2)

    pts = dyadic_breakpoints(0.0, 1.0, toward_a=True, toward_b=True)
    return integrate(g, 0.0, 1.0, breakpoints=pts)
