"""The seven CLI commands the benchmark times print, byte for byte, the stdout kept under
tests/golden/ (`tests/golden/regen.py` rewrites it and reports what moved)."""

import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import regen  # noqa: E402


@pytest.mark.parametrize("name", list(regen.CLI_COMMANDS))
def test_cli_stdout_is_golden(name):
    assert regen.stdout(name) == (GOLDEN / f"{name}.txt").read_text()
