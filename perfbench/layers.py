"""Per-layer metrics from a traced run's spans and counters.

Every metric is emitted on every workload; a layer a workload never enters
reads 0 (that is the "predicted no change" side of each pairing).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from inputs import FAMILIES
from spans import CHECKS, self_times

Q_BINS = {"q03": 0.3, "q06": 0.6, "q09": 0.9, "q1": 1.0}
CLI_NAMES = ("transform", "invert", "roundtrip", "identities_q1", "identities_q06",
             "statmech_gas", "statmech_oscillator")

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


SIDE_PREFIXES = ("transform.check.", "statmech.partition_quadrature.")


def per_layer(tracer, samples, side_tracer, side_samples, cli_samples, cli_import) -> dict:
    """``tracer``/``samples`` are the workload's traced ops.  The identity
    checks and the partition cross-check are read from ``side_tracer`` (one
    traced round of the nested cross-checks), the ``cli.*`` metrics from one
    round of CLI child processes and fresh-interpreter import times; all
    three are empty except on forward-grid."""
    m = _span_metrics(tracer, samples)
    side = _span_metrics(side_tracer, side_samples)
    m.update({k: v for k, v in side.items() if k.startswith(SIDE_PREFIXES)})
    m.update(_cli_metrics(cli_samples, cli_import))
    return m


def _span_metrics(tracer, samples) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    fn_kind = defaultdict(list)
    fn_q = defaultdict(list)
    statmech_integrals = 0
    for (name, a, b, _, _, tag), st in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        count[name] += 1
        total[name] += b - a
        self_total[name] += st
        self_total[layer] += st
        if name == "transform.forward_numeric":
            kind, q = tag.split("|")
            fn_kind[kind].append(b - a)
            fn_q[float(q)].append(b - a)
        elif layer == "quadrature":
            count["quadrature"] += 1
            statmech_integrals += tag == "statmech"
    ops = len(samples)
    op_wall = sum(s.latency for s in samples)
    c = tracer.counters
    n_int = count["quadrature"]
    n_part = count["statmech.partition_quadrature"]

    def mean_ms(xs):
        return 1e3 * statistics.fmean(xs) if xs else 0.0

    def per_call(name, scale):
        return scale * _div(total[name], count[name])

    m = {
        "quadrature.integrals_per_op": _div(n_int, ops),
        "quadrature.integrand_calls_per_integral": _div(c["quadrature.integrand_calls"], n_int),
        "quadrature.evals_per_integral": _div(c["quadrature.evals"], n_int),
        "quadrature.self_ms_per_op": 1e3 * _div(self_total["quadrature"], ops),
        "quadrature.share": _div(self_total["quadrature"], op_wall),
        "catalog.points_per_op": _div(c["catalog.points"], ops),
        "catalog.ns_per_point": 1e9 * _div(total["catalog.call"], c["catalog.points"]),
        "catalog.share": _div(self_total["catalog"], op_wall),
    }
    for f in FAMILIES:
        m[f"transform.forward_numeric.ms.{f}"] = mean_ms(fn_kind[f])
    for label, q in Q_BINS.items():
        m[f"transform.forward_numeric.ms.{label}"] = mean_ms(fn_q[q])
    m["transform.forward_numeric.self_ms_per_op"] = 1e3 * _div(
        self_total["transform.forward_numeric"], ops)
    for short in CHECKS:
        m[f"transform.check.{short}.ms"] = per_call(f"transform.check.{short}", 1e3)
    m.update({
        "transform.catalog_transform.us_per_call": per_call("transform.catalog_transform", 1e6),
        "transform.series_terms_per_call": _div(c["transform.series_terms"],
                                                count["transform.catalog_transform"]),
        "transform.series_value.ns_per_point": 1e9 * _div(total["transform.series_value"],
                                                          c["transform.series_value.points"]),
        "transform.derivative_value.us_per_call": per_call("transform.derivative_value", 1e6),
        "hypergeom.pfq_term_coefficients.us_per_call": per_call("hypergeom.pfq_term_coefficients", 1e6),
        "hypergeom.terms_per_call": _div(c["hypergeom.terms"], count["hypergeom.pfq_term_coefficients"]),
        "qmath.calls_per_op": _div(sum(v for k, v in count.items() if k.startswith("qmath.")), ops),
        "qmath.self_us_per_op": 1e6 * _div(self_total["qmath"], ops),
        "inverse.series_invert.us_per_call": per_call("inverse.series_invert", 1e6),
        "inverse.q_post_widder.us_per_call": per_call("inverse.q_post_widder", 1e6),
        "inverse.estimates_per_call": _div(c["inverse.estimates"], count["inverse.q_post_widder"]),
        "inverse.roundtrip.us_per_call": per_call("inverse.roundtrip", 1e6),
        "statmech.density_of_states.us_per_energy": 1e6 * _div(
            total["statmech.density_of_states"], c["statmech.energies"]),
        "statmech.partition_quadrature.ms_per_call": per_call("statmech.partition_quadrature", 1e3),
        "statmech.partition_quadrature.inner_integrals_per_call":
            _div(statmech_integrals, n_part) - 1.0 if n_part else 0.0,
        "statmech.partition_quadrature.evals_per_call": _div(c["quadrature.evals.statmech"], n_part),
    })
    return m


def _cli_metrics(cli_samples, cli_import) -> dict:
    cli = defaultdict(list)
    for s in cli_samples:
        cli[s.kind].append(s)
    m = {"cli.import_s": statistics.median(cli_import) if cli_import else 0.0}
    for name in CLI_NAMES:
        m[f"cli.{name}.wall_s"] = statistics.fmean(s.latency for s in cli[name]) if cli[name] else 0.0
    m["cli.cpu_over_wall"] = _div(sum(s.cpu for s in cli_samples), sum(s.latency for s in cli_samples))
    m["cli.stdout_bytes"] = statistics.fmean(s.stdout_bytes for s in cli_samples) if cli_samples else 0.0
    return m
