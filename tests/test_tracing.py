"""The benchmark's traced run must find every package name it wraps."""

import importlib.util
from pathlib import Path

import qlaplace.transform as T
import numpy as np

from qlaplace import QParam, Sine, catalog_transform

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_enters_and_restores():
    spans = _load_spans()
    tracer = spans.Tracer()
    original = T.catalog_transform
    with spans.instrument(tracer):
        assert T.catalog_transform is not original
        T.catalog_transform(QParam(0.5), Sine(1.0), 8)
    assert T.catalog_transform is original
    assert [s[0] for s in tracer.spans] == ["transform.catalog_transform"]


def test_series_value_and_derivative_are_separate_spans():
    # the benchmark's series_value and derivative_value metrics must time
    # separate calls: neither evaluation may run inside the other
    spans = _load_spans()
    tracer = spans.Tracer()
    F = catalog_transform(QParam(0.5), Sine(1.0), 40)
    s = F.s_min * np.linspace(1.0, 8.0, 16)
    with spans.instrument(tracer):
        F.value(s)
        F.derivative_value(8, s[0])
    assert [sp[0] for sp in tracer.spans] == ["transform.series_value", "transform.derivative_value"]
    assert [sp[3] for sp in tracer.spans] == [-1, -1]


def test_kernel_stays_off_the_traced_q_exp():
    # the traced run counts direct q_exp calls; the quadrature kernel calls qmath._q_exp_pow
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        T.forward_numeric(QParam(0.5), Sine(1.0), 2.0)
    names = {s[0] for s in tracer.spans}
    assert "transform.forward_numeric" in names and "qmath.q_exp" not in names
