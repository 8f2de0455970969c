"""In-memory spans and counters recorded around the package's module boundaries.

Nothing in the package changes: `instrument` swaps module attributes for
recording wrappers and restores them on exit.  Wrappers are installed where
each function is looked up by its caller (``transform.integrate`` is the
quadrature engine as bound in the transform module), so calls the package
makes internally are seen as well as the benchmark's own.

A span is ``(name, start, end, parent index, op id, tag)``.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import qlaplace.inverse as I
import qlaplace.statmech as S
import qlaplace.transform as T

CHECKS = {
    "limit_identity": "limit_identity_check",
    "scaling": "scaling_check",
    "translation": "translation_check",
    "derivative_rule": "derivative_rule_check",
    "qderivative": "qderivative_of_transform_check",
    "qintegral": "qintegral_of_transform_check",
    "integral_rule": "integral_rule_diagnostic",
    "linearity": "linearity_check",
    "kernel_pair": "kernel_pair_integral",
    "convolution": "convolution_check_classical",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._traced_classes: dict = {}

    def open(self, name: str, tag: str = "") -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.op_id, tag])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, tag=None, count=None):
        """Span-recording stand-in for ``fn``; ``tag(args)`` labels the span
        and ``count(args, result)`` updates counters, with result None when
        ``fn`` raised."""

        def wrapper(*args, **kwargs):
            idx = self.open(name, tag(args) if tag else "")
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx)
                if count:
                    count(args, out)

        return wrapper

    def catalog(self, f):
        """The catalog callable ``f`` as an instance of a recording subclass,
        so ``isinstance`` checks and attributes behave as on ``f``."""
        cls = type(f)
        sub = self._traced_classes.get(cls)
        if sub is None:
            tracer = self

            def __call__(obj, t):
                idx = tracer.open("catalog.call")
                try:
                    out = cls.__call__(obj, t)
                finally:
                    tracer.close(idx)
                tracer.counters["catalog.points"] += np.size(t)
                return out

            def derivative(obj, order):
                return tracer.wrap("catalog.call", cls.derivative(obj, order),
                                   count=lambda a, _: tracer.counters.update(
                                       {"catalog.points": np.size(a[0])}))

            sub = type(cls.__name__, (cls,), {"__call__": __call__, "derivative": derivative})
            self._traced_classes[cls] = sub
        g = object.__new__(sub)
        g.__dict__.update(f.__dict__)
        return g

    def integrand(self, f, where: str):
        counters = self.counters

        def call(x):
            counters["quadrature.integrand_calls"] += 1
            counters["quadrature.evals"] += np.size(x)
            counters[f"quadrature.evals.{where}"] += np.size(x)
            return f(x)

        return call

    def quadrature(self, fn, name: str, where: str):
        inner = self.wrap(name, fn, tag=lambda a: where)

        def wrapper(f, *args, **kwargs):
            return inner(self.integrand(f, where), *args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,tag\n")
            fh.writelines(f"{n},{a:.9f},{b:.9f},{p},{o},{t}\n" for n, a, b, p, o, t in self.spans)


def _fn_tag(args) -> str:
    q, f = args[0], args[1]
    return f"{getattr(f, 'kind', 'callable')}|{q.q!r}"


@contextmanager
def instrument(tr: Tracer):
    """Install recording wrappers on the package's module boundaries."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def n_terms(a, out):
        tr.counters["transform.series_terms"] += len(out.coeffs) if out is not None else 0

    def pfq_terms(a, out):
        tr.counters["hypergeom.terms"] += len(out) if out is not None else 0

    def estimates(a, out):
        tr.counters["inverse.estimates"] += len(out) if out is not None else 0

    def energies(a, out):
        tr.counters["statmech.energies"] += len(a[2])

    def points(a, out):
        tr.counters["transform.series_value.points"] += np.size(a[1])

    patch(T, "forward_numeric", tr.wrap("transform.forward_numeric", T.forward_numeric, tag=_fn_tag))
    catalog_transform = tr.wrap("transform.catalog_transform", T.catalog_transform, count=n_terms)
    q_post_widder = tr.wrap("inverse.q_post_widder", I.q_post_widder, count=estimates)
    for mod in (T, I):
        patch(mod, "catalog_transform", catalog_transform)
    patch(T, "integrate", tr.quadrature(T.integrate, "quadrature.integrate", "transform"))
    patch(T, "integrate_half_line",
          tr.quadrature(T.integrate_half_line, "quadrature.integrate_half_line", "transform"))
    patch(S, "integrate", tr.quadrature(S.integrate, "quadrature.integrate", "statmech"))
    patch(T, "pfq_term_coefficients",
          tr.wrap("hypergeom.pfq_term_coefficients", T.pfq_term_coefficients, count=pfq_terms))
    for mod, attr in ((T, "q_exp"), (T, "q_poly"), (I, "xi_factor"),
                      (S, "_q_poly_real"), (S, "_xi_factor_real")):
        patch(mod, attr, tr.wrap(f"qmath.{attr.lstrip('_')}", getattr(mod, attr)))
    for short, attr in CHECKS.items():
        patch(T, attr, tr.wrap(f"transform.check.{short}", getattr(T, attr)))
    PST = T.PowerSeriesTransform
    patch(PST, "value", tr.wrap("transform.series_value", PST.value, count=points))
    patch(PST, "derivative_value", tr.wrap("transform.derivative_value", PST.derivative_value))
    patch(I, "series_invert", tr.wrap("inverse.series_invert", I.series_invert))
    for mod in (I, S):
        patch(mod, "q_post_widder", q_post_widder)
    patch(I, "roundtrip", tr.wrap("inverse.roundtrip", I.roundtrip))
    patch(S, "density_of_states",
          tr.wrap("statmech.density_of_states", S.density_of_states, count=energies))
    patch(S, "ideal_gas_partition_quadrature",
          tr.wrap("statmech.partition_quadrature", S.ideal_gas_partition_quadrature))
    try:
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, a, b, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += b - a
    return [b - a - c for (_, a, b, _, _, _), c in zip(spans, child)]
