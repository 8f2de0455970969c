"""Smoke check of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

1. The same seed gives identical inputs (and another seed different ones);
   the fixed grids of the known-defect ops do not depend on the seed.
2. A tiny run of every workload, untraced and traced, prints a result line
   naming every metric of BENCHMARK.json, each finite and with its unit.
3. Without the package source next to it, the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import workloads  # noqa: E402


def generated(seed: int) -> str:
    return repr((inputs.forward_grid_inputs(seed), inputs.series_inputs(seed),
                 inputs.nested_inputs(seed), workloads.cli_round(seed)))


def check_inputs() -> None:
    for seed in (1, 7):
        assert generated(seed) == generated(seed), f"seed {seed} is not reproducible"
    assert generated(1) != generated(2), "different seeds gave identical inputs"
    # the grids where the library fails today are the same for every seed
    fixed = lambda: repr((inputs.invert200_inputs(), inputs.dos_edge_inputs()))  # noqa: E731
    assert fixed() == fixed(), "the fixed grids are not reproducible"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            where = f"{wl['name']} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["correct"] and res["attempted"] >= 1, (where, res)
            want = {m["name"]: m["unit"] for m in bench[key]}
            assert set(res["metrics"]) == set(want), (where, set(res["metrics"]) ^ set(want))
            for name, v in res["metrics"].items():
                assert v["unit"] == want[name] and math.isfinite(v["value"]), (where, name, v)
            print(f"ok  {where}: {len(want)} metrics")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "forward-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the package source"
    print("ok  exits non-zero without the package source")


if __name__ == "__main__":
    check_inputs()
    print("ok  same seed, same inputs")
    check_runs()
    check_bare_directory()
