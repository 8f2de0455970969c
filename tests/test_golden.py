"""The seven CLI commands the benchmark times print, byte for byte, the stdout kept under
tests/golden/, and the forward-grid ops of seeds 1-3 return, bit for bit, the values kept
there (`tests/golden/regen.py` rewrites them and reports what moved)."""

import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import regen  # noqa: E402


@pytest.mark.parametrize("name", list(regen.CLI_COMMANDS))
def test_cli_stdout_is_golden(name):
    assert regen.stdout(name) == (GOLDEN / f"{name}.txt").read_text()


def test_forward_grid_values_are_golden():
    assert regen.forward_values() == (GOLDEN / "forward_grid.txt").read_text()
