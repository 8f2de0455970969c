"""In-process A/B timer: two `src/` trees side by side, the benchmark's own ops, timed alternately.

    PYTHONPATH= python tools/ab_time.py BASE [--seed 59] [--repeats 15]

BASE is the root of another checkout of this repository (or its ``src/`` directory), timed
against this checkout, HEAD.  A checkout of another revision can be made with
``git archive <rev> | tar -x -C <dir>``.  Each tree's package is imported under the name
``qlaplace`` in turn, and the ops of `perfbench/workloads.py` (this checkout's, read only,
with no bytecode written there) are built while that tree is the one imported: catalog
entries come from `perfbench/inputs.build_family`, which imports ``qlaplace`` when it is
called, so each side's entries, oracles and library calls are its own tree's (checked on a
built entry).  Then, for the forward-grid and the series-inverse workload in turn, the
rounds alternate between the sides, the side that goes first swapping every round, and each
op kind keeps the best of the ``--repeats`` round sums of its ops.

It prints, for each workload and op kind (a family), the best round sum of each side in
ms and their ratio HEAD/BASE, then the op sum; and how many ops' outputs differ between the
sides (float hex of everything an op returns), with the largest relative move of a number
among them, and how many ops fail their check on each side.  Per-call noise on a shared host
is far smaller this way than between two benchmark runs: both sides see the same moments of
the machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
_BENCH_MODULES = ("workloads", "inputs")


def _src(path: str) -> Path:
    p = Path(path).resolve()
    p = p if (p / "qlaplace").is_dir() else p / "src"
    if not (p / "qlaplace" / "__init__.py").is_file():
        sys.exit(f"ab_time: no qlaplace package under {path}")
    return p


def _unload() -> None:
    for name in [n for n in sys.modules if n == "qlaplace" or n.startswith("qlaplace.") or n in _BENCH_MODULES]:
        del sys.modules[name]


def load(src: Path, seed: int) -> dict[str, list]:
    """{workload: its ops} built from the tree at ``src``; the modules stay alive through the ops."""
    _unload()
    sys.path[:0] = [str(src), str(PERFBENCH)]
    try:
        import inputs
        import workloads as W

        built = inputs.build_family(("qcosine", None, 1.0, 0.7, 1))
        for mod in (sys.modules[type(built).__module__], W.T):
            if Path(mod.__file__).resolve().parent.parent != src:
                sys.exit(f"ab_time: {mod.__name__} loaded from {mod.__file__}, not from {src}")
        return {"forward-grid": W.forward_grid(seed), "series-inverse": W.series_inverse(seed)}
    finally:
        del sys.path[:2]
        _unload()


def _numbers(x):
    """Every number in x, depth first, as a float; anything that is not a number as its repr
    (an exception as its type and message)."""
    if isinstance(x, float):
        yield x
    elif isinstance(x, np.ndarray):
        yield from x.ravel().tolist()
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _numbers(item)
    elif isinstance(x, dict):
        for key, item in x.items():
            yield repr(key)
            yield from _numbers(item)
    elif dataclasses.is_dataclass(x):
        yield type(x).__name__
        for field in dataclasses.fields(x):
            yield from _numbers(getattr(x, field.name))
    elif isinstance(x, Exception):
        yield f"{type(x).__name__}: {x}"
    else:
        yield repr(x)


def move(a, b) -> float | None:
    """The largest relative move between two op outputs: None if they are the same to the bit,
    inf if their structure, a non-number or a signed zero differs."""
    xs, ys = list(_numbers(a)), list(_numbers(b))
    if len(xs) != len(ys):
        return math.inf
    worst = None
    for x, y in zip(xs, ys):
        if isinstance(x, float) and isinstance(y, float):
            if float.hex(x) != float.hex(y):
                d = max(abs(x), abs(y))
                m = abs(x - y) / d if d and math.isfinite(d) else math.inf
                worst = m if worst is None else max(worst, m)
        elif x != y:
            return math.inf
    return worst


def one_round(ops) -> dict[str, float]:
    """Seconds spent in the ops of each kind over one pass of ``ops``."""
    out = dict.fromkeys((op.kind for op in ops), 0.0)
    for op in ops:
        t0 = time.perf_counter()
        op.run(lambda f: f)
        out[op.kind] += time.perf_counter() - t0
    return out


def compare(base_ops, head_ops, repeats: int) -> dict[str, tuple[float, float]]:
    """{kind: (best base round sum, best head round sum)} in seconds, rounds alternating."""
    best = [{}, {}]
    for r in range(repeats):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            gc.collect()
            for kind, t in one_round((base_ops, head_ops)[side]).items():
                best[side][kind] = min(best[side].get(kind, math.inf), t)
    return {kind: (best[0][kind], best[1][kind]) for kind in sorted(best[0])}


def report(name: str, base_ops, head_ops, repeats: int) -> None:
    if [op.kind for op in base_ops] != [op.kind for op in head_ops]:
        sys.exit(f"ab_time: the two sides build different {name} rounds")
    for op in base_ops + head_ops:  # one warm-up call of every op, caches filled on both sides
        op.run(lambda f: f)
    times = compare(base_ops, head_ops, repeats)
    print(f"{name}: best of {repeats} alternating rounds, {len(base_ops)} ops, ms a round")
    print(f"  {'kind':24s} {'base':>9s} {'head':>9s} {'head/base':>9s}")
    for kind, (a, b) in times.items():
        print(f"  {kind:24s} {1e3 * a:9.3f} {1e3 * b:9.3f} {b / a:9.3f}")
    a, b = (sum(t[i] for t in times.values()) for i in (0, 1))
    print(f"  {'op sum':24s} {1e3 * a:9.3f} {1e3 * b:9.3f} {b / a:9.3f}")
    moved, worst, failed = 0, 0.0, [0, 0]
    for op_a, op_b in zip(base_ops, head_ops):
        out_a, out_b = op_a.run(lambda f: f), op_b.run(lambda f: f)
        m = move(out_a, out_b)
        if m is not None:
            moved, worst = moved + 1, max(worst, m)
        failed[0] += op_a.check(out_a) is not None
        failed[1] += op_b.check(out_b) is not None
    print(f"  outputs: {moved} of {len(base_ops)} ops differ, largest relative move {worst:.3g};"
          f" failed checks: base {failed[0]}, head {failed[1]}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="root (or src/) of the tree to compare against")
    ap.add_argument("--seed", type=int, default=59)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()
    sys.dont_write_bytecode = True
    base, head = _src(args.base), ROOT / "src"
    print(f"base {base}\nhead {head}\nseed {args.seed}")
    base_ops = load(base, args.seed)
    head_ops = load(head, args.seed)
    for name in base_ops:
        report(name, base_ops[name], head_ops[name], args.repeats)


if __name__ == "__main__":
    main()
