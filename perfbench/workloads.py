"""The workloads, each a fixed round of checked operations: forward-grid
and series-inverse, plus the nested cross-checks and the round of CLI child
processes that run inside the traced forward-grid run.

An op is ``Op(kind, run, check)``.  ``run(wrap)`` makes the library calls
being timed and returns their results; ``wrap`` is applied to every catalog
callable handed to the library (identity when untraced, a span-recording
subclass when traced).  ``check(result)`` compares against the oracle built
at set-up and returns an error message, or None when the op is correct;
the message is a ``KnownDefect`` when the op failed at one of the library's
known in-domain defects.
Library functions are looked up on their modules at call time so that the
traced run's wrappers see calls made both from here and from inside the
package.
"""

from __future__ import annotations

import csv
import io
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

from inputs import (
    DN_SEEDED, DOS_FACTOR, IDENTITY, KERNEL_PAIR, LIMIT_II, LOOSE, PARTITION, ROUNDTRIP,
    SERIES_K, SUM_REL, TIGHT, TIGHT_FAMILIES, WIDDER_POWER, build_family, classical_transform,
    dos_analytic, dos_edge_inputs, dos_factor, fixed_widder, forward_coeffs, forward_grid_inputs,
    gas_partition, invert200_inputs, monomial_transform, nested_inputs, per_term_widder, q_poly, rel,
    series_inputs, series_sum,
)

import qlaplace.catalog as C
import qlaplace.inverse as I
import qlaplace.statmech as S
import qlaplace.transform as T
from qlaplace.errors import DomainError
from qlaplace.qmath import QParam


@dataclass
class Op:
    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], str | None]


class KnownDefect(str):
    """Error message of an op that failed at a known in-domain defect of the
    library (NOTES.md, "Known defects").  It counts as a failed op like any
    other; it is the only failure that leaves the run's ``correct`` true, so
    that any new failure still shows there."""


def _attempt(fn, *args):
    """fn(*args), or the exception it raised, so that one failing call of
    an op does not skip the calls after it."""
    try:
        return fn(*args)
    except Exception as exc:  # any raise is a failure, reported by the op's check
        return exc


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _within(name: str, err: float, tol: float) -> str | None:
    return None if err <= tol else f"{name}: error {err:.3e} > {tol:.0e}"


def _first_error(*msgs) -> str | None:
    return next((m for m in msgs if m), None)


# --------------------------------------------------------------------------
# forward-grid


def forward_grid(seed: int) -> list[Op]:
    ops = []
    for q, spec, s_draw in forward_grid_inputs(seed):
        f = build_family(spec)
        qp = QParam(q)
        if q < 1.0:
            oracle = T.catalog_transform(qp, f, 80)
            s_lo = max(oracle.s_min, 0.4)
            points = [(s_lo * 8.0**u, None) for u in s_draw]
            points = [(s, oracle.value(s)) for s, _ in points]
        else:
            points = [(s, classical_transform(spec, s)) for s in s_draw]
        tol = TIGHT if spec[0] in TIGHT_FAMILIES else LOOSE
        for s, expected in points:
            ops.append(_forward_op(qp, f, s, expected, tol))
    random.Random(seed).shuffle(ops)
    return ops


def _forward_op(qp, f, s, expected, tol) -> Op:
    def run(wrap):
        return T.forward_numeric(qp, wrap(f), s)

    def check(v):
        return _within(f"forward {f.kind} q={qp.q} s={s:.4g}", abs(v - expected) / abs(expected), tol)

    return Op(f"forward.{f.kind}", run, check)


# --------------------------------------------------------------------------
# series-inverse


def series_inverse(seed: int) -> list[Op]:
    ops = [_series_op(p) for p in series_inputs(seed)]
    ops += [_invert200_op(q, spec) for q, spec in invert200_inputs()]
    ops += [_dos_edge_op(q, model, E_per_m) for q, model, E_per_m in dos_edge_inputs()]
    random.Random(seed).shuffle(ops)
    return ops


def _model(spec):
    kind, D, N = spec
    return S.IdealGasModel(D, N) if kind == "gas" else S.OscillatorModel(D, N)


def _series_op(p: dict) -> Op:
    q, spec = p["q"], p["spec"]
    qp = QParam(q)
    f = build_family(spec)
    s_lo = max(T.catalog_transform(qp, f, 40).s_min, 0.4)
    s_grid = [s_lo * 8.0**u for u in p["s_unit"]]
    s_deriv = s_grid[:2]
    taylor = f.taylor_coefficients(199)
    c_ref = forward_coeffs(q, taylor)
    fixed_m = spec[1] if spec[0] == "monomial" and spec[1] >= 2 else 2
    widder_fixed = I.WidderConfig((16, 32, 64), fixed_m=fixed_m, extrapolate=False)
    widder_term = I.WidderConfig()
    models = [_model(m) for m in p["models"]]
    energies = [[e * mdl.transform_power for e in p["E_per_m"]] for mdl in models]

    want_values = {n: [series_sum(c_ref[:n], s) for s in s_grid] for n in (40, 200)}
    want_derivs = [series_sum(c_ref, s, k) for k in SERIES_K for s in s_deriv]
    want_term = [per_term_widder(taylor[:40], t, k) for t in p["t"] for k in widder_term.k_schedule]
    if spec[0] == "monomial" and spec[1] >= 2:
        m = spec[1]
        want_fixed = [(t ** (m - 1) * math.prod((k + j) / k for j in range(1, m)), 0.0)
                      for t in p["t"] for k in widder_fixed.k_schedule]
        fixed_tol = WIDDER_POWER
    else:
        want_fixed = [fixed_widder(q, c_ref[:40], t, k, fixed_m)
                      for t in p["t"] for k in widder_fixed.k_schedule]
        fixed_tol = SUM_REL
    want_dos = [_dos_want(spec_m, E_grid) for spec_m, E_grid in zip(p["models"], energies)]

    def run(wrap):
        F40 = T.catalog_transform(qp, f, 40)
        F200 = T.catalog_transform(qp, f, 200)
        values = {40: F40.value(s_grid), 200: F200.value(s_grid)}
        derivs = [F200.derivative_value(k, s) for k in SERIES_K for s in s_deriv]
        inverted = I.series_invert(qp, F40)
        term = [I.q_post_widder(qp, F40, t, widder_term) for t in p["t"]]
        fixed = [I.q_post_widder(qp, F40, t, widder_fixed) for t in p["t"]]
        rt = I.roundtrip(qp, f, 21)
        dos = [_attempt(S.density_of_states, qp, mdl, E, DOS_CFG)
               for mdl, E in zip(models, energies)]
        return values, derivs, inverted, term, fixed, rt, dos

    def check(res):
        values, derivs, inverted, term, fixed, rt, dos = res
        e_sum = max(abs(g - w) / a if a else abs(g) for g, (w, a) in zip(
            [float(v) for n in (40, 200) for v in values[n]] + derivs,
            want_values[40] + want_values[200] + want_derivs))
        e_inv = max(rel(a, b) for a, b in zip(inverted.coeffs[:21], taylor[:21]))
        got_term = [e.value for ests in term for e in ests]
        e_term = max(abs(g - w) / a if a else abs(g) for g, (w, a) in zip(got_term, want_term))
        got_fixed = [e.value for ests in fixed for e in ests]
        e_fixed = max(abs(g - w) / (a or abs(w)) for g, (w, a) in zip(got_fixed, want_fixed))
        e_rt = max(rt.max_coeff_rel_err,
                   max(rel(a, b) for a, b in zip(rt.recovered, taylor[:21])))
        return _first_error(
            _within("series value/derivative", e_sum, SUM_REL),
            _within("series_invert", e_inv, ROUNDTRIP),
            _within("q_post_widder per-term", e_term, SUM_REL),
            _within("q_post_widder fixed-m", e_fixed, fixed_tol),
            _within("roundtrip", e_rt, ROUNDTRIP),
            *(_dos_error(spec_m, d, want) for spec_m, d, want in zip(p["models"], dos, want_dos)),
        )

    return Op(f"series.{spec[0]}", run, check)


DOS_CFG = I.WidderConfig((4, 8, 16, 32, 64), None, extrapolate=False)


def _dos_want(spec_m: tuple, E_grid) -> list[float]:
    """Finite-k estimates of g(E) the raw Post-Widder schedule must give."""
    want = []
    for E in E_grid:
        g, m = dos_analytic(spec_m, E)
        want.extend(g * dos_factor(m, k) for k in DOS_CFG.k_schedule)
    return want


def _dos_error(spec_m: tuple, d, want: list[float]) -> str | None:
    name = f"density_of_states {spec_m}"
    if isinstance(d, Exception):
        msg = f"{name}: {_raised(d)}"
    else:
        got = [e.value for _, ests in d.k_estimates for e in ests]
        msg = (_within(name, max(rel(g, w) for g, w in zip(got, want)), DOS_FACTOR)
               if len(got) == len(want) else f"{name}: wrong estimate count")
    return KnownDefect(msg) if msg and spec_m[1] * spec_m[2] > DN_SEEDED else msg


def _dos_edge_op(q: float, spec_m: tuple, E_per_m) -> Op:
    """density_of_states above D*N = DN_SEEDED: today the library raises or
    misses the bound on part of this range (ideal gas with D = 1 from about
    D*N = 152, every oscillator from about 160)."""
    qp, mdl = QParam(q), _model(spec_m)
    energies = [e * mdl.transform_power for e in E_per_m]
    want = _dos_want(spec_m, energies)

    def run(wrap):
        return _attempt(S.density_of_states, qp, mdl, energies, DOS_CFG)

    return Op("series.dos_edge", run, lambda d: _dos_error(spec_m, d, want))


def _invert200_op(q: float, spec: tuple) -> Op:
    """series_invert of a 200-term series.  Past n = 170, n! overflows and
    the coefficient rule makes inf/inf, which is refused as non-finite: today
    every family but the monomial raises below q of about 0.57, and some
    q-families above it."""
    qp, f = QParam(q), build_family(spec)
    taylor = f.taylor_coefficients(20)

    def run(wrap):
        return _attempt(lambda: I.series_invert(qp, T.catalog_transform(qp, f, 200)))

    def check(res):
        if isinstance(res, Exception):
            msg = f"series_invert 200 terms {spec[0]} q={q:.3g}: {_raised(res)}"
            return KnownDefect(msg) if isinstance(res, DomainError) else msg
        return _within("series_invert 200 terms",
                       max(rel(a, b) for a, b in zip(res.coeffs[:21], taylor)), ROUNDTRIP)

    return Op("series.invert200", run, check)


def edge_probes() -> list[tuple[str, str]]:
    """Calls outside the generator's domain (s < s_min, k < 0, alpha = 50,
    2000 terms) that show ROADMAP item 4 defects.  Run once per
    series-inverse run, untimed, and reported as found; they are not ops."""
    probes = {
        "catalog_transform(q=0.01, Exponential(50), 400)":
            lambda: T.catalog_transform(QParam(0.01), C.Exponential(50.0), 400).coeffs,
        "catalog_transform(q=0.01, Sinh(5), 2000)":
            lambda: T.catalog_transform(QParam(0.01), C.Sinh(5.0), 2000).coeffs,
        "value(s=0.01 < s_min), Sine(1), q=0.5":
            lambda: T.catalog_transform(QParam(0.5), C.Sine(1.0)).value(0.01),
        "derivative_value(k=-1), Sine(1), q=0.5":
            lambda: T.catalog_transform(QParam(0.5), C.Sine(1.0)).derivative_value(-1, 2.0),
    }
    out = []
    for name, fn in probes.items():
        try:
            v = fn()
        except Exception as exc:  # report whatever the library raises, typed or not
            out.append((name, f"raised {type(exc).__name__}: {exc}"[:160]))
            continue
        flat = v if isinstance(v, tuple) else (v,)
        nums = [x for item in flat for x in (item if isinstance(item, tuple) else (item,))]
        finite = all(math.isfinite(float(x)) for x in nums)
        out.append((name, f"returned {'finite' if finite else 'NON-FINITE'} values, "
                          f"first {float(nums[0]):.6g}"))
    return out


# --------------------------------------------------------------------------
# nested-crosscheck


def nested_crosscheck(seed: int) -> list[Op]:
    inp = nested_inputs(seed)
    ops = []
    for c in inp["checks"]:
        ops += _identity_ops(c)
    ops.append(_convolution_op(*inp["conv"]))
    for q, s, sp in inp["pairs"]:
        ops.append(_kernel_pair_op(q, s, sp))
    for q, beta, (D, N) in inp["partitions"]:
        ops.append(_partition_op(q, beta, D, N))
    random.Random(seed).shuffle(ops)
    return ops


def _convolution_op(a1, a2, s) -> Op:
    f, g = C.Exponential(a1, -1), C.Exponential(a2, -1)
    want = 1.0 / ((s + a1) * (s + a2))
    return Op("check.convolution",
              lambda wrap: T.convolution_check_classical(wrap(f), wrap(g), s),
              lambda r: _first_error(_within("convolution", r.rel_err, IDENTITY),
                                     _within("convolution rhs", rel(r.rhs, want), IDENTITY)))


def _kernel_pair_op(q, s, sp) -> Op:
    want = 1.0 / ((2.0 - q) * (s - sp))
    qp = QParam(q)
    return Op("check.kernel_pair", lambda wrap: T.kernel_pair_integral(qp, s, sp),
              lambda v: _within(f"kernel pair q={q}", rel(v, want), KERNEL_PAIR))


def _partition_op(q, beta, D, N) -> Op:
    want = gas_partition(q, D, N, beta)
    qp, model = QParam(q), S.IdealGasModel(D, N)
    return Op("statmech.partition_quadrature",
              lambda wrap: S.ideal_gas_partition_quadrature(qp, model, beta),
              lambda v: _within(f"partition q={q} beta={beta:.3g}", rel(v, want), PARTITION))


def _identity_ops(c: dict) -> list[Op]:
    """Acceptance criterion 8 plus the CLI's linearity row, at one q."""
    q, s = c["q"], c["s"]
    qp = QParam(q)
    eps = 1.0 - q
    mono2, mono3 = C.Monomial(2), C.Monomial(3)
    cosine = C.Cosine(c["cos_alpha"])
    gauss = C.Gaussian(c["gauss_alpha"])
    expo = C.Exponential(1.0, -1)
    a = c["scale_a"]
    b1, b2 = c["lin"]
    t0 = 0.1 / s
    shrink = 1.0 - eps * s * t0
    delayed = (shrink ** (1.0 / eps) * shrink if q < 1.0 else math.exp(-s * t0)) / (q_poly(q, 2) * s * s)
    tag = f"q={q}"

    def rep_ok(name, tol=IDENTITY):
        return lambda r: _within(f"{name} {tag}", r.rel_err, tol)

    def both(name, first, second):
        return lambda r: _first_error(first(r), second(r))

    return [
        Op("check.limit_identity", lambda w: T.limit_identity_check(qp, w(cosine), "I"),
           both("limit-I", rep_ok("limit-I cosine"),
                lambda r: _within("limit-I rhs", rel(r.rhs, 1.0 / (2.0 - q)), IDENTITY))),
        Op("check.limit_identity", lambda w: T.limit_identity_check(qp, w(mono2), "I"),
           rep_ok("limit-I monomial")),
        Op("check.scaling", lambda w: T.scaling_check(qp, w(mono2), a, s),
           both("scaling", rep_ok("scaling"),
                lambda r: _within("scaling lhs", rel(r.lhs, a * monomial_transform(q, 2, s)), IDENTITY))),
        Op("check.scaling", lambda w: T.scaling_check(qp, w(gauss), 0.5 * a, 2.0 * s),
           rep_ok("scaling gaussian")),
        Op("check.shift", lambda w: T.shift_kernel_factor(qp, 2.0 * s, s, 0.2 / s), rep_ok("shift")),
        Op("check.derivative_rule", lambda w: T.derivative_rule_check(qp, w(mono2), 1, s),
           both("derivative", rep_ok("derivative rule"),
                lambda r: _within("derivative lhs", rel(r.lhs, monomial_transform(q, 1, s)), IDENTITY))),
        Op("check.qderivative", lambda w: T.qderivative_of_transform_check(qp, w(mono2), 1, s),
           rep_ok("qderivative")),
        Op("check.qintegral", lambda w: T.qintegral_of_transform_check(qp, w(mono3), s),
           both("qintegral", rep_ok("qintegral"),
                lambda r: _within("qintegral rhs", rel(r.rhs, monomial_transform(q, 2, s)), IDENTITY))),
        Op("check.integral_rule",
           lambda w: T.integral_rule_diagnostic(qp, w(mono2), [0.5 * s, s, 2.0 * s, 4.0 * s]),
           lambda r: _first_error(_within(f"integral-rule spread {tag}", r.spread_rel, IDENTITY),
                                  _within(f"integral-rule ratio {tag}",
                                          rel(r.ratio_mean, (2.0 - q) ** 2), IDENTITY))),
        Op("check.translation", lambda w: T.translation_check(qp, w(mono2), t0, s),
           lambda r: _first_error(_within(f"translation ratio {tag}", abs(r.ratio_proof - 1.0), IDENTITY),
                                  _within(f"translation rhs {tag}", rel(r.rhs_integral, delayed), IDENTITY))),
        Op("check.linearity",
           lambda w: T.linearity_check(qp, w(mono2), b1, w(expo), b2, s),
           rep_ok("linearity")),
    ]


# --------------------------------------------------------------------------
# cli

CLI_COMMANDS = {
    "transform": ["transform", "--q", "0.5", "--fn", "sine", "--alpha", "1.0",
                  "--s-grid", "1.5:12:200:log"],
    "invert": ["invert", "--q", "0.5", "--fn", "monomial", "--m", "3",
               "--t-grid", "0.5:2:4", "--k-schedule", "4,8,16,32,64"],
    "roundtrip": ["roundtrip", "--q", "0.6", "--fn", "qgaussian", "--alpha", "1",
                  "--qprime", "0.7", "--n-terms", "16"],
    "identities_q1": ["identities", "--q", "1.0"],
    "identities_q06": ["identities", "--q", "0.6"],
    "statmech_gas": ["statmech", "--model", "ideal-gas", "--D", "3", "--N", "2", "--q", "0.9",
                     "--E-grid", "0.5:5:10", "--no-extrapolate"],
    "statmech_oscillator": ["statmech", "--model", "oscillator", "--D", "1", "--N", "3",
                            "--q", "0.6", "--E-grid", "0.5:5:10", "--no-extrapolate"],
}


def _csv_rows(stdout: str) -> list[dict]:
    body = "\n".join(line for line in stdout.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _widder_rel_err(m: int, k: int) -> float:
    """rel_err column the CLI must print for a single power t^(m-1)."""
    factor = math.prod((k + j) / k for j in range(1, m))
    return (factor - 1.0) / factor


def _check_cli(name: str, rows: list[dict]) -> str | None:
    if name == "transform":
        if len(rows) != 200:
            return f"transform: {len(rows)} rows, want 200"
        return _within("transform rel_err", max(float(r["rel_err"]) for r in rows), LOOSE)
    if name == "invert":
        if len(rows) != 20:
            return f"invert: {len(rows)} rows, want 20"
        return _within("invert rel_err", max(
            abs(float(r["rel_err"]) - _widder_rel_err(3, int(r["k"]))) for r in rows), WIDDER_POWER)
    if name == "roundtrip":
        if len(rows) != 16:
            return f"roundtrip: {len(rows)} rows, want 16"
        return _within("roundtrip rel_err", max(float(r["rel_err"]) for r in rows), ROUNDTRIP)
    if name.startswith("identities"):
        want = 11 if name == "identities_q1" else 10
        if len(rows) != want:
            return f"{name}: {len(rows)} rows, want {want}"
        bad = [r["identity"] for r in rows if r["status"] not in ("pass", "diagnostic")]
        if bad:
            return f"{name}: not passing: {bad}"
        hard = [(r["identity"], float(r["rel_err"])) for r in rows if r["status"] == "pass"]
        return _first_error(*(_within(f"{name} {n}", e, LIMIT_II if n == "limit-II" else IDENTITY)
                              for n, e in hard))
    # statmech: raw k = 64 estimate, m = 3 for both models
    if len(rows) != 10:
        return f"{name}: {len(rows)} rows, want 10"
    return _within(f"{name} rel_err", max(
        abs(float(r["rel_err"]) - _widder_rel_err(3, 64)) for r in rows), DOS_FACTOR)


def cli_round(seed: int) -> list[tuple[str, list[str]]]:
    names = list(CLI_COMMANDS)
    random.Random(seed).shuffle(names)
    return [(n, [sys.executable, "-m", "qlaplace.cli", *CLI_COMMANDS[n]]) for n in names]


def check_cli_output(name: str, returncode: int, stdout: str) -> str | None:
    if returncode != 0:
        return f"{name}: exit code {returncode}"
    try:
        return _check_cli(name, _csv_rows(stdout))
    except (KeyError, ValueError) as exc:
        return f"{name}: unparsable output ({exc})"
