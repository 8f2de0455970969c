"""tools/ab_time.py's output comparison: identical outputs read as unmoved, a moved number
gives its relative move, and a changed structure, text or signed zero reads as inf."""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from ab_time import move  # noqa: E402
from qlaplace import WidderEstimate  # noqa: E402


def test_same_outputs_have_not_moved():
    out = (1.5, [np.array([0.25, math.nan]), {"k": WidderEstimate(4, 2.0)}], ValueError("bad t"))
    assert move(out, out) is None
    assert move(1.0, 1.0) is None


def test_moved_number_gives_its_relative_move():
    assert move((1.0, np.array([2.0, 4.0])), (1.0, np.array([2.0, 4.0 + 2.0**-50]))) == 2.0**-50 / (4.0 + 2.0**-50)
    assert move([1.0, 3.0], [1.0 + 2.0**-52, 3.0 + 2.0**-50]) == 2.0**-50 / (3.0 + 2.0**-50)


def test_changed_structure_text_or_zero_sign_is_inf():
    assert move((1.0, 2.0), (1.0,)) == math.inf
    assert move(ValueError("a"), ValueError("b")) == math.inf
    assert move(0.0, -0.0) == math.inf
    assert move(1.0, math.inf) == math.inf
