"""The golden CLI outputs: the byte-exact stdout of each command the benchmark times
(`CLI_COMMANDS` of perfbench/workloads.py, only read here), one ``<name>.txt`` a command,
pinned by `tests/test_golden.py`.  From the repository root,

    PYTHONPATH=src python tests/golden/regen.py

rewrites every file and prints, for each command, the rows that changed and the largest
relative move of a numeric field among them.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from click.testing import CliRunner

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))

from workloads import CLI_COMMANDS  # noqa: E402

from qlaplace.cli import main  # noqa: E402


def stdout(name: str) -> str:
    """The stdout of CLI command ``name``; AssertionError with its output unless it exits 0."""
    res = CliRunner().invoke(main, CLI_COMMANDS[name])
    assert res.exit_code == 0, f"{name}: exit code {res.exit_code}\n{res.output}"
    return res.stdout


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
            fx, fy = float(x), float(y)
        except ValueError:
            return math.inf
        worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def main_regen() -> None:
    for name in CLI_COMMANDS:
        path = HERE / f"{name}.txt"
        new = stdout(name)
        new_lines = new.splitlines()
        if not path.exists():
            print(f"{name}: new, {len(new_lines)} rows")
            path.write_text(new)
            continue
        old_lines = path.read_text().splitlines()
        changed = [(i, o, n) for i, (o, n) in enumerate(zip(old_lines, new_lines)) if o != n]
        worst = max((_move(o, n) for _, o, n in changed), default=0.0)
        note = ""
        if len(old_lines) != len(new_lines):
            worst, note = math.inf, f" ({len(old_lines)} rows before)"
        print(f"{name}: {len(changed)} of {len(new_lines)} rows changed, largest relative move {worst:.3g}{note}")
        for i, o, n in changed:
            print(f"  row {i}: {o}\n      -> {n}")
        path.write_text(new)


if __name__ == "__main__":
    main_regen()
