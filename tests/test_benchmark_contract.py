"""The benchmark's contract with the package, pinned in the test suite: every kind of nested
cross-check op in `perfbench/workloads.py` passes its own check, untraced and under the span
wrappers of `perfbench/spans.py`, every kind of op of the two gated workloads passes its own
check untraced (or fails at a marked `KnownDefect`), and every CLI command the benchmark runs
passes `workloads.check_cli_output`.  A renamed check, a dropped report field or a changed row count
then fails here instead of in a traced benchmark run.  perfbench/ is only read, never edited."""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from qlaplace.cli import main  # noqa: E402


def _one_op_per_kind(workload=workloads.nested_crosscheck) -> list:
    ops = {}
    for op in workload(1):
        ops.setdefault(op.kind, op)
    return list(ops.values())


@pytest.mark.parametrize(
    "op", _one_op_per_kind(workloads.forward_grid) + _one_op_per_kind(workloads.series_inverse),
    ids=lambda op: op.kind,
)
def test_gated_workload_op_passes_its_check(op):
    # a change that fails an op, or flips the run's `correct`, shows here before the benchmark
    msg = op.check(op.run(lambda f: f))
    assert msg is None or isinstance(msg, workloads.KnownDefect), msg


@pytest.mark.parametrize("op", _one_op_per_kind(), ids=lambda op: op.kind)
def test_nested_op_passes_its_check(op):
    assert op.check(op.run(lambda f: f)) is None
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = op.run(tracer.catalog)
    assert op.check(result) is None
    assert tracer.spans, "the traced run recorded no span"


@pytest.mark.parametrize("name", sorted(workloads.CLI_COMMANDS))
def test_cli_command_passes_its_check(name):
    res = CliRunner().invoke(main, workloads.CLI_COMMANDS[name])
    assert workloads.check_cli_output(name, res.exit_code, res.stdout) is None, res.output
