"""Command-line front door.

Subcommands
-----------
transform   evaluate a catalog transform on an s grid, quadrature vs closed form
invert      finite-k inversion estimates against the known original
roundtrip   closed form -> term-wise inversion -> coefficient comparison
identities  print the rows of the library's identity table (`transform.identity_rows`) at one q
statmech    partition-function inversion: density-of-states tables

Every subcommand takes any q in (0, 1], the classical q = 1 included.

Output is CSV (default) or JSON, deterministic for a fixed configuration;
numbers are printed with 17 significant digits so values round-trip.  An
optional flat ``key=value`` config file (``--config``) fills click's
default_map: a key is a parameter name with dashes or any flag spelling
(``fn``, ``s-grid``, ``D``, ``E-grid``), explicit flags win, and an unknown
key exits 2.

Exit codes: 0 all good, 1 hard assertion failed, 2 invalid configuration,
3 numeric failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys

import click

from . import __version__
from .catalog import Monomial, make_catalog_function
from .errors import DomainError, QLaplaceError
from .inverse import WidderConfig, q_post_widder, roundtrip, series_invert
from .qmath import QParam, _integer_arg, _real_arg
from .statmech import IdealGasModel, OscillatorModel, density_of_states
from .transform import _rel_err, catalog_transform, forward_numeric, identity_rows


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


def _load_config(ctx: click.Context, _param, path: str | None) -> None:
    """Eager --config callback: the file's values become click's default_map, so flags win."""
    if path is None:
        return
    names = {}
    for param in ctx.command.params:
        for key in (param.name.replace("_", "-"), *(opt.lstrip("-") for opt in param.opts)):
            names[key] = param.name
    ctx.default_map = {}
    for key, raw in _read_config(path).items():
        if key not in names:
            raise click.UsageError(f"unknown config key {key!r}")
        ctx.default_map[names[key]] = raw


# --------------------------------------------------------------------------
# shared option plumbing


def _output_options(fn):
    fn = click.option(
        "--config", type=click.Path(), is_eager=True, expose_value=False, callback=_load_config,
        help="key=value config file; flags override",
    )(fn)
    fn = click.option("--output", default="-", show_default=True, help="output path, '-' for stdout")(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
    )(fn)
    fn = click.option("--no-meta", is_flag=True, help="suppress the generated-by metadata header")(fn)
    return fn


def _function_options(fn):
    fn = click.option("--fn", "fn_name", required=True, help="catalog function name")(fn)
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


def _numeric_guard(command):
    """A command body whose DomainError exits 2 as a usage error and whose other library error exits 3."""

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except DomainError as exc:
            raise click.UsageError(str(exc))
        except QLaplaceError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)

    return guarded


def _catalog_series(qp: QParam, f, n_terms: int):
    """`catalog_transform`, with --n-terms refused by its flag first (a monomial's series has its
    own length)."""
    if not isinstance(f, Monomial):
        _integer_arg("--n-terms", n_terms, 4)
    return catalog_transform(qp, f, n_terms)


@click.group()
@click.version_option(version=__version__, prog_name="qlaplace")
def main() -> None:
    """Deformed Laplace transform toolkit: forward transforms, real-variable
    inversion, identity checks, and partition-function tables."""


# --------------------------------------------------------------------------
# transform


@main.command()
@click.option("--q", type=float, required=True)
@click.option("--s-grid", "s_grid", required=True, help="start:stop:count[:log]")
@click.option("--n-terms", type=int, default=40, show_default=True)
@_function_options
@_output_options
@_numeric_guard
def transform(q, s_grid, n_terms, fn_name, m, alpha, qprime, sign, fmt, output, no_meta):
    """Quadrature vs closed-form transform values on an s grid."""
    qp = QParam(q)
    f = make_catalog_function(fn_name, m=m, alpha=alpha, qprime=qprime, sign=int(sign))
    grid = _parse_grid(s_grid, "--s-grid")
    series = _catalog_series(qp, f, n_terms)
    low = [s for s in grid if s < series.s_min]
    if low:
        raise DomainError(f"s values {low} lie below the series validity bound s_min = {series.s_min}")
    rows = []
    for s in grid:
        num = forward_numeric(qp, f, s)
        cat = series.value(s)
        rows.append((s, num, cat, _rel_err(num, cat)))
    meta = {"command": f"transform q={q} fn={f.label} n-terms={n_terms}"}
    _emit(("s", "F_numeric", "F_catalog", "rel_err"), rows, meta, fmt, output, no_meta)


# --------------------------------------------------------------------------
# invert


@main.command()
@click.option("--q", type=float, required=True)
@click.option("--t-grid", "t_grid", required=True, help="start:stop:count[:log]")
@click.option("--k-schedule", "k_schedule", default="4,8,16,32,64", show_default=True)
@click.option("--n-terms", type=int, default=40, show_default=True)
@_function_options
@_output_options
@_numeric_guard
def invert(q, t_grid, k_schedule, n_terms, fn_name, m, alpha, qprime, sign, fmt, output, no_meta):
    """Finite-k inversion estimates against the original function."""
    qp = QParam(q)
    f = make_catalog_function(fn_name, m=m, alpha=alpha, qprime=qprime, sign=int(sign))
    grid = _parse_grid(t_grid, "--t-grid")
    ks = _parse_schedule(k_schedule)
    series = _catalog_series(qp, f, n_terms)
    t_max = series_invert(qp, series).t_max
    high = [t for t in grid if t > t_max]
    if high:
        raise DomainError(f"t values {high} lie above the series validity bound t_max = {t_max}")
    cfg = WidderConfig(ks, extrapolate=False)
    rows = []
    for t in grid:
        ests = q_post_widder(qp, series, t, cfg)
        truth = float(f(t))
        for est in ests:
            rows.append((t, est.k, est.value, truth, _rel_err(est.value, truth)))
    meta = {"command": f"invert q={q} fn={f.label} k-schedule={','.join(map(str, ks))}"}
    _emit(("t", "k", "estimate", "analytic", "rel_err"), rows, meta, fmt, output, no_meta)


# --------------------------------------------------------------------------
# roundtrip


@main.command("roundtrip")
@click.option("--q", type=float, required=True)
@click.option("--n-terms", type=int, default=20, show_default=True)
@_function_options
@_output_options
@_numeric_guard
def roundtrip_cmd(q, n_terms, fn_name, m, alpha, qprime, sign, fmt, output, no_meta):
    """Coefficient table for closed form -> term-wise inversion -> original."""
    qp = QParam(q)
    f = make_catalog_function(fn_name, m=m, alpha=alpha, qprime=qprime, sign=int(sign))
    rep = roundtrip(qp, f, _integer_arg("--n-terms", n_terms, 4))
    rows = [(n, *row) for n, row in enumerate(zip(rep.recovered, rep.reference, rep.coeff_errors))]
    meta = {"command": f"roundtrip q={q} fn={f.label} n-terms={n_terms}"}
    _emit(("n", "coeff_recovered", "coeff_reference", "rel_err"), rows, meta, fmt, output, no_meta)


# --------------------------------------------------------------------------
# identities


@main.command()
@click.option("--q", type=float, required=True)
@click.option("--s", type=float, default=1.0, show_default=True, help="base evaluation point")
@_output_options
@_numeric_guard
def identities(q, s, fmt, output, no_meta):
    """Run the transform identity suite; exit 1 if any hard check fails."""
    qp = QParam(q)
    if not 0.0 < s < math.inf:
        raise click.UsageError("--s must be finite and positive")
    rows = identity_rows(qp, s)
    meta = {"command": f"identities q={q} s={s}"}
    _emit(("identity", "status", "lhs", "rhs", "rel_err", "ratio"), rows, meta, fmt, output, no_meta)
    if any(row[1] == "fail" for row in rows):
        sys.exit(1)


# --------------------------------------------------------------------------
# statmech


# each model constant option: its parameter name -> (its flag, the model field it sets); a constant
# left out takes the model's own default
_MODEL_CONSTANTS = {
    "volume": ("--v", "V"), "mass": ("--mass", "mass"), "h_const": ("--h-const", "h"),
    "omega": ("--omega", "omega"), "hbar": ("--hbar", "hbar"),
}


@main.command()
@click.option("--q", type=float, required=True)
@click.option("--model", type=click.Choice(["ideal-gas", "oscillator"]), required=True)
@click.option("--d", "--D", "dim", type=int, required=True, help="spatial dimension D")
@click.option("--n", "--N", "count", type=int, required=True, help="particle count N")
@click.option("--v", "--V", "volume", type=float, help="ideal gas: volume V")
@click.option("--mass", type=float, help="ideal gas: particle mass")
@click.option("--h-const", type=float, help="ideal gas: Planck constant h")
@click.option("--omega", type=float, help="oscillator: angular frequency")
@click.option("--hbar", type=float, help="oscillator: reduced Planck constant")
@click.option("--e-grid", "--E-grid", "e_grid", required=True, help="start:stop:count[:log]")
@click.option("--k-schedule", "k_schedule", default="4,8,16,32,64", show_default=True)
@click.option("--no-extrapolate", is_flag=True, help="report the raw final-k estimate")
@_output_options
@_numeric_guard
def statmech(q, model, dim, count, e_grid, k_schedule, no_extrapolate, fmt, output, no_meta, **constants):
    """Density of states from the partition function, numeric vs analytic."""
    qp = QParam(q)
    grid = _parse_grid(e_grid, "--e-grid")
    ks = _parse_schedule(k_schedule)
    cls = IdealGasModel if model == "ideal-gas" else OscillatorModel
    own = {field.name for field in dataclasses.fields(cls)}
    given = {_MODEL_CONSTANTS[name]: value for name, value in constants.items() if value is not None}
    foreign = [flag for flag, field in given if field not in own]
    if foreign:
        raise DomainError(f"--model {model} takes no {' or '.join(foreign)}")
    for (flag, _), value in given.items():  # refused here, by its flag, not later by its field
        _real_arg(flag, value)
    mdl = cls(dim, count, **{field: value for (_, field), value in given.items()})
    dos = density_of_states(qp, mdl, grid, WidderConfig(ks, None, extrapolate=not no_extrapolate))
    rows = []
    for e, g_num in dos.samples:
        g_ana = dos.analytic(e)
        rows.append((e, g_num, g_ana, _rel_err(g_num, g_ana)))
    meta = {"command": f"statmech q={q} model={model} D={dim} N={count}"}
    _emit(("E", "g_numeric", "g_analytic", "rel_err"), rows, meta, fmt, output, no_meta)


if __name__ == "__main__":
    main()
