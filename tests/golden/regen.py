"""The golden outputs: the byte-exact stdout of each command the benchmark times
(`CLI_COMMANDS` of perfbench/workloads.py, only read here), one ``<name>.txt`` a command,
and ``forward_grid.txt``, the float hex of every forward-grid op value of seeds 1-3 in op
order (`workloads.forward_grid`, run untraced); all pinned by `tests/test_golden.py`.
From the repository root,

    PYTHONPATH=src python tests/golden/regen.py [--check]

rewrites every file and prints, for each file, the rows that changed and the largest
relative move of a numeric field among them.  With ``--check`` it prints the same report,
rewrites nothing, and exits 1 if any file would change.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from click.testing import CliRunner

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))

from workloads import CLI_COMMANDS, forward_grid  # noqa: E402

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


def outputs():
    """(file name, text) of every golden file, CLI commands first."""
    for name in CLI_COMMANDS:
        yield f"{name}.txt", stdout(name)
    yield "forward_grid.txt", forward_values()


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


def main_regen(check: bool = False) -> int:
    """Report every golden file against its new text and, unless ``check``, rewrite it; the
    exit status: 1 if ``check`` and a file would change, else 0."""
    stale = False
    for file_name, new in outputs():
        path = HERE / file_name
        old = path.read_text() if path.exists() else None
        new_lines = new.splitlines()
        if old is None:
            print(f"{file_name}: new, {len(new_lines)} rows")
        else:
            old_lines = old.splitlines()
            changed = [(i, o, n) for i, (o, n) in enumerate(zip(old_lines, new_lines)) if o != n]
            worst = max((_move(o, n) for _, o, n in changed), default=0.0)
            note = ""
            if len(old_lines) != len(new_lines):
                worst, note = math.inf, f" ({len(old_lines)} rows before)"
            print(f"{file_name}: {len(changed)} of {len(new_lines)} rows changed, "
                  f"largest relative move {worst:.3g}{note}")
            for i, o, n in changed:
                print(f"  row {i}: {o}\n      -> {n}")
        if old != new:
            stale = True
            if not check:
                path.write_text(new)
    return int(check and stale)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Rewrite the golden outputs and report what moved.")
    ap.add_argument("--check", action="store_true", help="report only; exit 1 if a file would change")
    sys.exit(main_regen(ap.parse_args().check))
