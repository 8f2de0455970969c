"""The golden outputs: the byte-exact stdout of each command the benchmark times
(`CLI_COMMANDS` of perfbench/workloads.py), one ``<name>.txt`` a command;
``forward_grid.txt``, the float hex of every forward-grid op value of seeds 1-3 in op
order (`workloads.forward_grid`, run untraced); and ``series_inverse.txt``, one row
``kind,sha256`` a series-inverse op of seeds 1-3 in op order (`workloads.series_inverse`,
run untraced), the digest of the float hex of everything the op returns (137,126 floats
among 218,951 items, 3 MB as text); all pinned by `tests/test_golden.py`.  perfbench/ is only read:
its modules are imported without writing bytecode there.
From the repository root,

    PYTHONPATH=src python tests/golden/regen.py [--check]

rewrites every file and prints, for each file, the rows that changed and the largest
relative move of a numeric field among them (for ``series_inverse.txt``, the number of
changed ops of each kind).  With ``--check`` it prints the same report, rewrites nothing,
and exits 1 if any file would change.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from workloads import CLI_COMMANDS, forward_grid, series_inverse  # noqa: E402
sys.dont_write_bytecode = _write_bytecode

from qlaplace.cli import main  # noqa: E402

def stdout(name: str) -> str:
    """The stdout of CLI command ``name``; AssertionError with its output unless it exits 0."""
    res = CliRunner().invoke(main, CLI_COMMANDS[name])
    assert res.exit_code == 0, f"{name}: exit code {res.exit_code}\n{res.output}"
    return res.stdout


def forward_values() -> str:
    """The value of every forward-grid op of seeds 1-3, in op order, one float hex a row."""
    rows = ["# forward_numeric of perfbench forward_grid(seed), seeds 1-3, in op order, as float hex"]
    for seed in (1, 2, 3):
        rows += [float.hex(op.run(lambda f: f)) for op in forward_grid(seed)]
    return "\n".join(rows) + "\n"


def _hex(x):
    """The float hex of every number in x, depth first: a float, an array, or the items of a
    tuple, list, dict (each key's repr before its value) or dataclass; an exception as its type
    and message, anything else (an int, None) as its repr.  No array reaches a repr, which
    would round it to 8 digits."""
    if isinstance(x, float):
        yield float.hex(x)
    elif isinstance(x, np.ndarray):
        yield from map(float.hex, x.ravel().tolist())
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _hex(item)
    elif isinstance(x, dict):
        for key, item in x.items():
            yield repr(key)
            yield from _hex(item)
    elif dataclasses.is_dataclass(x):
        yield type(x).__name__
        for field in dataclasses.fields(x):
            yield from _hex(getattr(x, field.name))
    elif isinstance(x, Exception):
        yield f"{type(x).__name__}: {x}"
    else:
        yield repr(x)


def series_digests() -> str:
    """Every series-inverse op of seeds 1-3, in op order: its kind and the sha256 of the float
    hex of what it returns (its values, estimates, reports and the errors it caught)."""
    rows = ["# kind,sha256 of the float hex of the outputs of perfbench series_inverse(seed), seeds 1-3, in op order"]
    for seed in (1, 2, 3):
        for op in series_inverse(seed):
            digest = hashlib.sha256("\n".join(_hex(op.run(lambda f: f))).encode()).hexdigest()
            rows.append(f"{op.kind},{digest}")
    return "\n".join(rows) + "\n"


def outputs():
    """(file name, text) of every golden file, CLI commands first."""
    for name in CLI_COMMANDS:
        yield f"{name}.txt", stdout(name)
    yield "forward_grid.txt", forward_values()
    yield "series_inverse.txt", series_digests()


def _number(x: str) -> float:
    return float.fromhex(x) if "0x" in x else float(x)


def _move(old: str, new: str) -> float:
    """The largest relative move between two CSV rows over their numeric fields (inf if a
    field that is not a number changed, or the rows differ in length)."""
    a, b = old.split(","), new.split(",")
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = _number(x), _number(y)
        except ValueError:
            return math.inf
        worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def _report(file_name: str, old_lines: list[str], new_lines: list[str]) -> None:
    """Print the rows of a golden file that changed: each with the largest relative move of its
    numeric fields, or for the digests of ``series_inverse.txt`` the count of changed ops a kind."""
    changed = [(i, o, n) for i, (o, n) in enumerate(zip(old_lines, new_lines)) if o != n]
    note = f" ({len(old_lines)} rows before)" if len(old_lines) != len(new_lines) else ""
    if file_name == "series_inverse.txt":  # a digest has no size of move
        kinds = collections.Counter(n.split(",")[0] for _, _, n in changed)
        print(f"{file_name}: {len(changed)} of {len(new_lines)} rows changed{note}")
        for kind, count in sorted(kinds.items()):
            print(f"  {kind}: {count} ops changed")
        return
    worst = math.inf if note else max((_move(o, n) for _, o, n in changed), default=0.0)
    print(f"{file_name}: {len(changed)} of {len(new_lines)} rows changed, largest relative move {worst:.3g}{note}")
    for i, o, n in changed:
        print(f"  row {i}: {o}\n      -> {n}")


def main_regen(check: bool = False) -> int:
    """Report every golden file against its new text and, unless ``check``, rewrite it; the
    exit status: 1 if ``check`` and a file would change, else 0."""
    stale = False
    for file_name, new in outputs():
        path = HERE / file_name
        old = path.read_text() if path.exists() else None
        if old is None:
            print(f"{file_name}: new, {len(new.splitlines())} rows")
        else:
            _report(file_name, old.splitlines(), new.splitlines())
        if old != new:
            stale = True
            if not check:
                path.write_text(new)
    return int(check and stale)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite the golden outputs and report what moved.")
    ap.add_argument("--check", action="store_true", help="report only; exit 1 if a file would change")
    sys.exit(main_regen(ap.parse_args().check))
