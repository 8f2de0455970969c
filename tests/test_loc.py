"""tools/loc.py's line counts: the kinds of every module sum to its physical lines, and each
kind of line lands in its own column."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from loc import KINDS, ROOT, count, table  # noqa: E402

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment is on a code line

# a comment alone


def f(x):
    """One-line docstring."""
    text = """a multi-line string
that is code"""
    return math.exp(x) + len(text) \\
        + 1


class C:
    def g(self): """a docstring on the def's own line"""
'''


def test_every_kind_in_its_own_column():
    assert count(SOURCE) == {"physical": 18, "code": 8, "docstring": 3, "comment": 1, "blank": 6}


def test_kinds_sum_to_the_physical_lines_of_every_module():
    rows = table(ROOT / "src" / "qlaplace")
    assert rows[-1][0] == "total" and len(rows) > 2
    for name, row in rows:
        assert sum(row[k] for k in KINDS) == row["physical"], name
    for name, row in rows[:-1]:
        path = ROOT / "src" / "qlaplace" / name
        assert row["physical"] == len(path.read_text(encoding="utf-8").splitlines()), name
    assert rows[-1][1]["physical"] == sum(row["physical"] for _, row in rows[:-1])
