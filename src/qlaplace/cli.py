"""Command-line front door.

Subcommands
-----------
transform   evaluate a catalog transform on an s grid, quadrature vs closed form
invert      finite-k inversion estimates against the known original
roundtrip   closed form -> term-wise inversion -> coefficient comparison
identities  run the transform identity/diagnostic suite at one q
statmech    partition-function inversion: density-of-states tables

Output is CSV (default) or JSON, deterministic for a fixed configuration;
numbers are printed with 17 significant digits so values round-trip.  An
optional flat ``key=value`` config file mirrors the flags (flags win).

Exit codes: 0 all good, 1 hard assertion failed, 2 invalid configuration,
3 numeric failure.
"""

from __future__ import annotations

import json
import math
import sys

import click
from click.core import ParameterSource

from . import __version__
from .catalog import Cosine, Exponential, Monomial, make_catalog_function
from .errors import DomainError, QLaplaceError
from .inverse import WidderConfig, q_post_widder, roundtrip, series_invert
from .qmath import QParam
from .statmech import IdealGasModel, OscillatorModel, density_of_states
from .transform import (
    QuadratureConfig,
    catalog_transform,
    derivative_rule_check,
    forward_numeric,
    integral_rule_diagnostic,
    limit_identity_check,
    linearity_check,
    convolution_check_classical,
    qderivative_of_transform_check,
    qintegral_of_transform_check,
    scaling_check,
    shift_kernel_factor,
    translation_check,
    _rel_err,
)

_PASS_TOL = 1e-6


# --------------------------------------------------------------------------
# config file support: flat key=value lines, flags override


def _read_config(path: str) -> dict[str, str]:
    data: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                data[key.strip()] = value.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    return data


class ConfigOption(click.Option):
    """Option that may be satisfied by the --config file instead of a flag."""

    def __init__(self, *args, config_required: bool = False, **kwargs):
        self.config_required = config_required
        super().__init__(*args, **kwargs)


class ConfigCommand(click.Command):
    """Command that back-fills unset options from a --config file.

    Required-ness of ConfigOption fields is enforced here, after the merge,
    so a value may come from either a flag or the file (flags win).
    """

    def invoke(self, ctx: click.Context):
        path = ctx.params.get("config")
        if path:
            data = _read_config(path)
            known = {}
            for param in self.params:
                known[param.name.replace("_", "-")] = param
                for opt in param.opts:
                    known[opt.lstrip("-")] = param
            for key, raw in data.items():
                if key not in known:
                    raise click.UsageError(f"unknown config key {key!r}")
                param = known[key]
                if ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
                    continue
                ctx.params[param.name] = param.type_cast_value(ctx, raw)
        for param in self.params:
            if getattr(param, "config_required", False) and ctx.params.get(param.name) is None:
                raise click.UsageError(f"missing option {param.opts[0]!r} (flag or config file)")
        return super().invoke(ctx)


# --------------------------------------------------------------------------
# shared option plumbing


def _output_options(fn):
    fn = click.option("--config", type=click.Path(), default=None, help="key=value config file; flags override")(fn)
    fn = click.option("--output", default="-", show_default=True, help="output path, '-' for stdout")(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
    )(fn)
    fn = click.option("--no-meta", is_flag=True, help="suppress the generated-by metadata header")(fn)
    return fn


def _function_options(fn):
    fn = click.option("--fn", "fn_name", cls=ConfigOption, config_required=True, help="catalog function name")(fn)
    fn = click.option("--m", type=int, default=None, help="power index for monomial")(fn)
    fn = click.option("--alpha", type=float, default=None, help="rate/frequency parameter")(fn)
    fn = click.option("--qprime", type=float, default=None, help="deformation of the input function")(fn)
    fn = click.option("--sign", type=click.Choice(["+1", "-1"]), default="+1", show_default=True)(fn)
    return fn


def _parse_grid(spec: str, name: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise click.BadParameter(f"{name} must be start:stop:count[:log]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise click.BadParameter(f"cannot parse {name} {spec!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise click.BadParameter(f"{name} endpoints must be finite, got {spec!r}")
    if count < 1:
        raise click.BadParameter(f"{name} count must be >= 1")
    mode = parts[3] if len(parts) == 4 else "linear"
    if mode not in ("linear", "log"):
        raise click.BadParameter(f"{name} mode must be 'linear' or 'log'")
    if count == 1:
        return [start]
    if mode == "log":
        if start <= 0.0 or stop <= 0.0:
            raise click.BadParameter(f"log {name} requires positive endpoints")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio**i for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def _parse_schedule(spec: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(p) for p in spec.split(",") if p.strip())
    except ValueError:
        raise click.BadParameter(f"cannot parse k schedule {spec!r}")
    if not ks:
        raise click.BadParameter("empty k schedule")
    return ks


def _build_function(fn_name, m, alpha, qprime, sign):
    return _numeric_guard(lambda: make_catalog_function(fn_name, m=m, alpha=alpha, qprime=qprime, sign=int(sign)))


def _qparam(q: float) -> QParam:
    return _numeric_guard(lambda: QParam(q))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(columns, rows, meta: dict, fmt: str, output: str, no_meta: bool) -> None:
    if fmt == "csv":
        lines = []
        if not no_meta:
            lines.append(f"# generated-by: qlaplace {__version__}")
            for key in sorted(meta):
                lines.append(f"# {key}: {meta[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        obj: dict = {"meta": {"columns": list(columns)}, "rows": [list(r) for r in rows]}
        if not no_meta:
            obj["meta"]["generated-by"] = f"qlaplace {__version__}"
            obj["meta"].update({k: str(v) for k, v in meta.items()})
        text = json.dumps(obj, sort_keys=True) + "\n"
    if output == "-":
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write --output {output}: {exc}")


def _numeric_guard(fn):
    try:
        return fn()
    except DomainError as exc:
        raise click.UsageError(str(exc))
    except QLaplaceError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)


@click.group()
@click.version_option(version=__version__, prog_name="qlaplace")
def main() -> None:
    """Deformed Laplace transform toolkit: forward transforms, real-variable
    inversion, identity checks, and partition-function tables."""


# --------------------------------------------------------------------------
# transform


@main.command(cls=ConfigCommand)
@click.option("--q", type=float, cls=ConfigOption, config_required=True)
@click.option("--s-grid", "s_grid", cls=ConfigOption, config_required=True, help="start:stop:count[:log]")
@click.option("--n-terms", type=int, default=40, show_default=True)
@_function_options
@_output_options
def transform(q, s_grid, n_terms, fn_name, m, alpha, qprime, sign, fmt, output, no_meta, config):
    """Quadrature vs closed-form transform values on an s grid."""
    qp = _qparam(q)
    if qp.classical:
        raise click.UsageError("transform tables need q < 1 (closed forms target the deformed case)")
    f = _build_function(fn_name, m, alpha, qprime, sign)
    grid = _parse_grid(s_grid, "--s-grid")

    def run():
        series = catalog_transform(qp, f, n_terms)
        low = [s for s in grid if s < series.s_min]
        if low:
            raise DomainError(
                f"s values {low} lie below the series validity bound s_min = {series.s_min}"
            )

        def one(s: float):
            num = forward_numeric(qp, f, s)
            cat = series.value(s)
            return (s, num, cat, _rel_err(num, cat))

        return [one(s) for s in grid]

    rows = _numeric_guard(run)
    meta = {"command": f"transform q={q} fn={f.label} n-terms={n_terms}"}
    _emit(("s", "F_numeric", "F_catalog", "rel_err"), rows, meta, fmt, output, no_meta)


# --------------------------------------------------------------------------
# invert


@main.command(cls=ConfigCommand)
@click.option("--q", type=float, cls=ConfigOption, config_required=True)
@click.option("--t-grid", "t_grid", cls=ConfigOption, config_required=True, help="start:stop:count[:log]")
@click.option("--k-schedule", "k_schedule", default="4,8,16,32,64", show_default=True)
@click.option("--n-terms", type=int, default=40, show_default=True)
@click.option("--fixed-m", type=int, default=None, help="fixed-power scaling index (default per-term)")
@_function_options
@_output_options
def invert(
    q, t_grid, k_schedule, n_terms, fixed_m, fn_name, m, alpha, qprime, sign, fmt, output, no_meta, config
):
    """Finite-k inversion estimates against the original function."""
    qp = _qparam(q)
    if qp.classical:
        raise click.UsageError("invert tables need q < 1 (closed forms target the deformed case)")
    f = _build_function(fn_name, m, alpha, qprime, sign)
    grid = _parse_grid(t_grid, "--t-grid")
    ks = _parse_schedule(k_schedule)

    def run():
        series = catalog_transform(qp, f, n_terms)
        t_max = series_invert(qp, series).t_max
        high = [t for t in grid if t > t_max]
        if high:
            raise DomainError(f"t values {high} lie above the series validity bound t_max = {t_max}")
        cfg = WidderConfig(ks, fixed_m, extrapolate=False)

        def one(t: float):
            ests = q_post_widder(qp, series, t, cfg)
            truth = float(f(t))
            return [(t, est.k, est.value, truth, _rel_err(est.value, truth)) for est in ests]

        return [row for t in grid for row in one(t)]

    rows = _numeric_guard(run)
    meta = {"command": f"invert q={q} fn={f.label} k-schedule={','.join(map(str, ks))}"}
    _emit(("t", "k", "estimate", "analytic", "rel_err"), rows, meta, fmt, output, no_meta)


# --------------------------------------------------------------------------
# roundtrip


@main.command(cls=ConfigCommand)
@click.option("--q", type=float, cls=ConfigOption, config_required=True)
@click.option("--n-terms", type=int, default=20, show_default=True)
@_function_options
@_output_options
def roundtrip_cmd(q, n_terms, fn_name, m, alpha, qprime, sign, fmt, output, no_meta, config):
    """Coefficient table for closed form -> term-wise inversion -> original."""
    qp = _qparam(q)
    if qp.classical:
        raise click.UsageError("roundtrip needs q < 1")
    f = _build_function(fn_name, m, alpha, qprime, sign)

    def run():
        rep = roundtrip(qp, f, n_terms)
        return [
            (n, rec, ref, err)
            for n, (rec, ref, err) in enumerate(zip(rep.recovered, rep.reference, rep.coeff_errors))
        ]

    rows = _numeric_guard(run)
    meta = {"command": f"roundtrip q={q} fn={f.label} n-terms={n_terms}"}
    _emit(("n", "coeff_recovered", "coeff_reference", "rel_err"), rows, meta, fmt, output, no_meta)


main.add_command(roundtrip_cmd, name="roundtrip")


# --------------------------------------------------------------------------
# identities


def _identity_rows(qp: QParam, s: float):
    ctl = QuadratureConfig()
    rows = []

    def record(name, runner, diagnostic=False, tol=_PASS_TOL):
        try:
            lhs, rhs, err, ratio = runner()
        except DomainError as exc:
            reason = str(exc).replace(",", ";")
            rows.append((name, "skipped", "", "", "", reason))
            return
        if diagnostic:
            status = "diagnostic"
        else:
            status = "pass" if err <= tol else "fail"
        rows.append((name, status, lhs, rhs, err, ratio))

    def limit_i():
        rep = limit_identity_check(qp, Cosine(1.0), "I", ctl)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def limit_ii():
        rep = limit_identity_check(qp, Exponential(1.0, -1), "II", ctl, ladder=(1e-4, 1e-5, 1e-6, 1e-7))
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def scaling():
        rep = scaling_check(qp, Monomial(2), 2.0, s, ctl)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def shift():
        rep = shift_kernel_factor(qp, 2.0 * s, s, 0.2 / s)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def translation():
        rep = translation_check(qp, Monomial(2), 0.1 / s, s, ctl)
        return rep.lhs_proof_form, rep.rhs_integral, abs(rep.ratio_proof - 1.0), rep.ratio_proof

    def derivative():
        rep = derivative_rule_check(qp, Monomial(2), 1, s, ctl)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def qderiv():
        rep = qderivative_of_transform_check(qp, Monomial(2), 1, s, ctl)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def qint():
        rep = qintegral_of_transform_check(qp, Monomial(3), s, ctl)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    def integral_rule():
        rep = integral_rule_diagnostic(qp, Monomial(2), [0.5 * s, s, 2.0 * s, 4.0 * s], ctl)
        return rep.ratios[0], rep.ratios[-1], rep.spread_rel, rep.ratio_mean

    def linearity():
        rep = linearity_check(qp, Monomial(2), 2.0, Exponential(1.0, -1), -0.5, s, ctl)
        return rep.lhs, rep.rhs, rep.rel_err, ""

    record("limit-I", limit_i)
    record("limit-II", limit_ii, tol=1e-5)
    record("scaling", scaling)
    record("shift-kernel", shift)
    record("translation", translation, diagnostic=True)
    record("derivative-rule-n1", derivative)
    record("qderivative-of-transform", qderiv)
    record("qintegral-of-transform", qint)
    record("integral-rule", integral_rule)
    record("linearity", linearity)
    if qp.classical:
        def convolution():
            rep = convolution_check_classical(Exponential(1.0, -1), Exponential(1.0, -1), s, ctl)
            return rep.lhs, rep.rhs, rep.rel_err, ""

        record("convolution", convolution)
    return rows


@main.command(cls=ConfigCommand)
@click.option("--q", type=float, cls=ConfigOption, config_required=True)
@click.option("--s", type=float, default=1.0, show_default=True, help="base evaluation point")
@_output_options
def identities(q, s, fmt, output, no_meta, config):
    """Run the transform identity suite; exit 1 if any hard check fails."""
    qp = _qparam(q)
    if not 0.0 < s < math.inf:
        raise click.UsageError("--s must be finite and positive")
    rows = _numeric_guard(lambda: _identity_rows(qp, s))
    meta = {"command": f"identities q={q} s={s}"}
    _emit(("identity", "status", "lhs", "rhs", "rel_err", "ratio"), rows, meta, fmt, output, no_meta)
    if any(row[1] == "fail" for row in rows):
        sys.exit(1)


# --------------------------------------------------------------------------
# statmech


@main.command(cls=ConfigCommand)
@click.option("--q", type=float, cls=ConfigOption, config_required=True)
@click.option("--model", type=click.Choice(["ideal-gas", "oscillator"]), cls=ConfigOption, config_required=True)
@click.option("--d", "--D", "dim", type=int, cls=ConfigOption, config_required=True, help="spatial dimension D")
@click.option("--n", "--N", "count", type=int, cls=ConfigOption, config_required=True, help="particle count N")
@click.option("--v", "--V", "volume", type=float, default=1.0, show_default=True)
@click.option("--mass", type=float, default=1.0, show_default=True)
@click.option("--h-const", type=float, default=1.0, show_default=True)
@click.option("--omega", type=float, default=1.0, show_default=True)
@click.option("--hbar", type=float, default=1.0, show_default=True)
@click.option("--e-grid", "--E-grid", "e_grid", cls=ConfigOption, config_required=True, help="start:stop:count[:log]")
@click.option("--k-schedule", "k_schedule", default="4,8,16,32,64", show_default=True)
@click.option("--no-extrapolate", is_flag=True, help="report the raw final-k estimate")
@_output_options
def statmech(
    q, model, dim, count, volume, mass, h_const, omega, hbar, e_grid, k_schedule,
    no_extrapolate, fmt, output, no_meta, config,
):
    """Density of states from the partition function, numeric vs analytic."""
    qp = _qparam(q)
    grid = _parse_grid(e_grid, "--e-grid")
    ks = _parse_schedule(k_schedule)

    def run():
        if model == "ideal-gas":
            mdl = IdealGasModel(dim, count, volume, mass, h_const)
        else:
            mdl = OscillatorModel(dim, count, omega, hbar)
        cfg = WidderConfig(ks, None, extrapolate=not no_extrapolate)
        dos = density_of_states(qp, mdl, grid, cfg)
        out = []
        for e, g_num in dos.samples:
            g_ana = float(dos.analytic(e))
            out.append((e, g_num, g_ana, _rel_err(g_num, g_ana)))
        return out

    rows = _numeric_guard(run)
    meta = {"command": f"statmech q={q} model={model} D={dim} N={count}"}
    _emit(("E", "g_numeric", "g_analytic", "rel_err"), rows, meta, fmt, output, no_meta)


if __name__ == "__main__":
    main()
