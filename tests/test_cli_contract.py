"""The CLI contract as a property test, `transform` slice: every invocation over the input ranges
either prints a table whose numbers are all finite and whose every rel_err is within criterion 1
(1e-8 for the power and exponential families, 1e-6 for the rest), or exits 2 or 3 with one
``Error:`` or ``numeric failure:`` line; never a traceback, never another exit code."""

import math

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlaplace import CATALOG, QLaplaceError, QParam, catalog_transform, make_catalog_function
from qlaplace.cli import main

TIGHT = ("monomial", "exponential", "qexponential")  # criterion 1's 1e-8 families

# q and q' each in (0.05, 0.99), or 1, or 1 - 10**-k for k = 3..12
DEFORMATIONS = st.one_of(
    st.floats(min_value=0.05, max_value=0.99, exclude_min=True, exclude_max=True),
    st.just(1.0),
    st.integers(min_value=3, max_value=12).map(lambda k: 1.0 - 10.0**-k),
)
LOG_ALPHA = st.floats(min_value=math.log(0.05), max_value=math.log(20.0))  # alpha log-uniform in [0.05, 20]
S_FACTOR = st.floats(min_value=0.5, max_value=16.0)  # s from 1/2 to 16 times s_min


@st.composite
def transform_argv(draw) -> list[str]:
    """The arguments of one `transform` call: a family with its fields, q, --n-terms and a 3-point
    s grid between two multiples of the series' s_min (of 1 where the series is refused)."""
    fn = draw(st.sampled_from(sorted(CATALOG)))
    q = draw(DEFORMATIONS)
    fields: dict = {}
    if fn == "monomial":
        fields["m"] = draw(st.integers(min_value=1, max_value=30))
    else:
        fields["alpha"] = math.exp(draw(LOG_ALPHA))
    if fn.startswith("q"):
        fields["qprime"] = draw(DEFORMATIONS)
    if fn.endswith("exponential"):
        fields["sign"] = draw(st.sampled_from((1, -1)))
    n_terms = draw(st.sampled_from((1, 4, 10, 40, 200)))
    try:
        s_min = catalog_transform(QParam(q), make_catalog_function(fn, **fields), n_terms).s_min
    except QLaplaceError:
        s_min = 1.0
    if not 0.0 < s_min < math.inf:
        s_min = 1.0
    lo, hi = sorted((draw(S_FACTOR), draw(S_FACTOR)))
    argv = ["transform", "--q", repr(q), "--fn", fn]
    for key, value in fields.items():
        argv += [f"--{key}", f"{value:+d}" if key == "sign" else repr(value)]
    return argv + ["--n-terms", str(n_terms), "--s-grid", f"{lo * s_min!r}:{hi * s_min!r}:3"]


def _number(text: str) -> float:
    x = float(text)
    assert math.isfinite(x), text
    return x


@given(argv=transform_argv())
@example(argv=["transform", "--q", "0.999999999999", "--fn", "qsinh", "--alpha", "1", "--qprime", "0.999999999999",
               "--n-terms", "200", "--s-grid", "56638438349.171326:196981095790.47885:3"])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_transform_exits_cleanly_or_prints_finite_values_within_criterion_1(argv):
    res = CliRunner().invoke(main, argv)
    assert res.exit_code in (0, 2, 3), (argv, res.output, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exception)
    assert "Traceback" not in res.output, argv
    if res.exit_code:
        errors = [ln for ln in res.output.splitlines() if ln.startswith(("Error:", "numeric failure:"))]
        assert len(errors) == 1, (argv, res.output)
        return
    lines = [ln for ln in res.stdout.splitlines() if not ln.startswith("#")]
    assert lines[0] == "s,F_numeric,F_catalog,rel_err" and len(lines) == 4, (argv, res.stdout)
    tol = 1e-8 if argv[argv.index("--fn") + 1] in TIGHT else 1e-6
    for line in lines[1:]:
        *_, rel_err = (_number(x) for x in line.split(","))
        assert rel_err <= tol, (argv, line)
