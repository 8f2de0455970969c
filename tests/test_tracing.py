"""The benchmark's traced run must find every package name it wraps."""

import importlib.util
from pathlib import Path

import qlaplace.transform as T
from qlaplace import QParam, Sine

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
