"""Command-line interface: row contents, formats, config file, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qlaplace
from qlaplace.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so that stderr is exactly what a user sees
    (pytest turns RuntimeWarnings into errors)."""
    env = dict(os.environ, PYTHONPATH=str(Path(qlaplace.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "qlaplace.cli", *args], capture_output=True, text=True, env=env)


def data_rows(output: str):
    lines = [ln for ln in output.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestTransformCommand:
    def test_monomial_table(self, runner):
        res = runner.invoke(main, ["transform", "--q", "0.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:10:10"])
        assert res.exit_code == 0, res.output
        header, rows = data_rows(res.output)
        assert header == ["s", "F_numeric", "F_catalog", "rel_err"]
        assert len(rows) == 10
        assert all(0.0 <= float(r[3]) < 1e-8 for r in rows)

    def test_deterministic_output(self, runner):
        args = ["transform", "--q", "0.6", "--fn", "sine", "--alpha", "1.1", "--s-grid", "4:16:5:log"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_classical_qprime_is_the_plain_function(self, runner):
        grid = ["--q", "0.5", "--alpha", "1", "--sign", "-1", "--s-grid", "4:20:5"]
        plain = runner.invoke(main, ["transform", "--fn", "exponential", *grid])
        deformed = runner.invoke(main, ["transform", "--fn", "qexponential", "--qprime", "1", *grid])
        assert plain.exit_code == deformed.exit_code == 0, deformed.output
        assert deformed.output == plain.output

    def test_json_format(self, runner):
        res = runner.invoke(
            main,
            ["transform", "--q", "0.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2", "--format", "json"],
        )
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["meta"]["columns"] == ["s", "F_numeric", "F_catalog", "rel_err"]
        assert "generated-by" in obj["meta"]
        assert len(obj["rows"]) == 2

    def test_no_meta(self, runner):
        res = runner.invoke(
            main, ["transform", "--q", "0.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2", "--no-meta"]
        )
        assert res.exit_code == 0
        assert "generated-by" not in res.output

    def test_output_file(self, runner, tmp_path):
        path = tmp_path / "out.csv"
        res = runner.invoke(
            main,
            ["transform", "--q", "0.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2", "--output", str(path)],
        )
        assert res.exit_code == 0
        assert path.read_text().startswith("# generated-by")

    def test_unwritable_output_exits_2(self, runner, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        for cmd in (["transform", "--q", "0.5", "--fn", "sine", "--alpha", "1", "--s-grid", "2:4:3"],
                    ["roundtrip", "--q", "0.6", "--fn", "exponential", "--alpha", "1"]):
            res = runner.invoke(main, [*cmd, "--output", str(path)])
            assert res.exit_code == 2, res.output
            assert f"cannot write --output {path}" in res.output

    def test_overflowing_integrand_exits_3_without_warning(self):
        res = run_cli("transform", "--q", "0.5", "--fn", "monomial", "--m", "3", "--s-grid", "1e-300:1e-299:2")
        assert res.returncode == 3, res.stderr
        assert "numeric failure" in res.stderr
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr

    def test_invalid_q_exits_2(self, runner):
        res = runner.invoke(main, ["transform", "--q", "1.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "fn", (["monomial", "--m", "3"], ["exponential", "--alpha", "1", "--sign", "-1"]), ids=lambda fn: fn[0]
    )
    def test_classical_q_accepted(self, runner, fn):
        res = runner.invoke(main, ["transform", "--q", "1", "--fn", *fn, "--s-grid", "4:20:5"])
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 5
        assert all(0.0 <= float(r[3]) < 1e-8 for r in rows)  # criterion 1

    def test_below_s_min_exits_2(self, runner):
        res = runner.invoke(
            main, ["transform", "--q", "0.9", "--fn", "gaussian", "--alpha", "1.0", "--s-grid", "0.1:0.2:2"]
        )
        assert res.exit_code == 2

    def test_below_the_cut_exits_2(self, runner):
        # a one-term series (3t), but the function is cut at t = 2/3: s_min is 15 at q = 0.9
        res = runner.invoke(main, ["transform", "--q", "0.9", "--fn", "qsinh", "--qprime", "0.5", "--alpha", "3",
                                   "--s-grid", "0.1:16:2"])
        assert res.exit_code == 2
        assert "s values [0.1] lie below the series validity bound s_min = 15." in res.output

    def test_bad_grid(self, runner):
        res = runner.invoke(main, ["transform", "--q", "0.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:10"])
        assert res.exit_code == 2

    def test_unknown_function(self, runner):
        res = runner.invoke(main, ["transform", "--q", "0.5", "--fn", "sinc", "--s-grid", "1:2:2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "extra",
        (["--fn", "sinh", "--alpha", "1", "--qprime", "0.5"], ["--fn", "cosine", "--alpha", "1", "--sign", "-1"]),
        ids=("qprime-on-plain-name", "sign-on-cosine"),
    )
    def test_ignored_function_option_exits_2(self, runner, extra):
        res = runner.invoke(main, ["transform", "--q", "0.5", *extra, "--s-grid", "4:20:2"])
        assert res.exit_code == 2, res.output
        assert "takes no" in res.output

    def test_non_finite_alpha_exits_2(self, runner):
        res = runner.invoke(main, ["transform", "--q", "0.5", "--fn", "sine", "--alpha", "nan", "--s-grid", "2:4:3"])
        assert res.exit_code == 2, res.output
        assert "finite" in res.output

    @pytest.mark.parametrize("grid", ("2:inf:3", "-inf:4:3", "nan:4:3:log"))
    def test_non_finite_grid_endpoint_exits_2(self, runner, grid):
        res = runner.invoke(main, ["transform", "--q", "0.5", "--fn", "sine", "--alpha", "1", "--s-grid", grid])
        assert res.exit_code == 2, res.output
        assert "--s-grid endpoints must be finite" in res.output

    def test_non_finite_coefficients_exit_3(self, runner):
        # the Taylor coefficients overflow before n = 200: no silent nan rows
        res = runner.invoke(main, ["transform", "--q", "0.01", "--fn", "qexponential", "--qprime", "0.2",
                                   "--alpha", "60", "--n-terms", "200", "--s-grid", "100:200:3"])
        assert res.exit_code == 3, res.output
        assert "numeric failure" in res.output and "nan" not in res.stdout


class TestConfigFile:
    def test_file_supplies_required(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.5\nfn=monomial\nm=2\ns-grid=1:4:4\n")
        res = runner.invoke(main, ["transform", "--config", str(cfg)])
        assert res.exit_code == 0
        _, rows = data_rows(res.output)
        assert len(rows) == 4

    def test_flags_override_file(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.5\nfn=monomial\nm=2\ns-grid=1:4:4\n")
        res = runner.invoke(main, ["transform", "--config", str(cfg), "--s-grid", "1:2:2"])
        assert res.exit_code == 0
        _, rows = data_rows(res.output)
        assert len(rows) == 2

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qq=0.5\n")
        res = runner.invoke(main, ["transform", "--config", str(cfg)])
        assert res.exit_code == 2

    def test_missing_required_reported(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.5\n")
        res = runner.invoke(main, ["transform", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "Missing option '--s-grid'" in res.output

    @pytest.mark.parametrize(
        "command, lines, flags, code",
        (
            ("statmech", "model=ideal-gas q=0.9 D=3 N=2 E-grid=0.5:5:4",
             "--model ideal-gas --q 0.9 --D 3 --N 2 --E-grid 0.5:5:4", 0),
            ("transform", "q=0.5 fn=monomial m=2 s-grid=1:2:2 no-meta=true",
             "--q 0.5 --fn monomial --m 2 --s-grid 1:2:2 --no-meta", 0),
            ("transform", "q=0.5 fn=exponential alpha=1 sign=-1 s-grid=4:8:3",
             "--q 0.5 --fn exponential --alpha 1 --sign -1 --s-grid 4:8:3", 0),
            ("transform", "q=0.5 fn=exponential alpha=1 sign=2 s-grid=4:8:3",
             "--q 0.5 --fn exponential --alpha 1 --sign 2 --s-grid 4:8:3", 2),
        ),
        ids=("D-and-E-grid", "no-meta-true", "sign-choice", "sign-invalid"),
    )
    def test_key_acts_as_its_flag(self, runner, tmp_path, command, lines, flags, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines.split()) + "\n")
        from_file = runner.invoke(main, [command, "--config", str(cfg)])
        from_flags = runner.invoke(main, [command, *flags.split()])
        assert from_file.exit_code == from_flags.exit_code == code, from_file.output
        assert from_file.output == from_flags.output


@pytest.mark.parametrize(
    "command, required",
    (
        ("transform", ("--q", "--s-grid", "--fn")),
        ("invert", ("--q", "--t-grid", "--fn")),
        ("roundtrip", ("--q", "--fn")),
        ("identities", ("--q",)),
        ("statmech", ("--q", "--model", "--d", "--n", "--e-grid")),
    ),
)
def test_help_marks_required_options(runner, command, required):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    for opt in required:
        line = next(ln for ln in lines if ln.strip().startswith(opt + " ") or ln.strip().startswith(opt + ","))
        assert "[required]" in line, line


class TestInvertCommand:
    def test_rows(self, runner):
        res = runner.invoke(
            main,
            ["invert", "--q", "0.5", "--fn", "monomial", "--m", "3", "--t-grid", "1:2:2", "--k-schedule", "8,64"],
        )
        assert res.exit_code == 0, res.output
        header, rows = data_rows(res.output)
        assert header == ["t", "k", "estimate", "analytic", "rel_err"]
        assert len(rows) == 4
        # error shrinks with k for each t
        assert float(rows[1][4]) < float(rows[0][4])
        assert float(rows[3][4]) < float(rows[2][4])

    def test_non_finite_grid_exits_2(self, runner):
        res = runner.invoke(
            main, ["invert", "--q", "0.5", "--fn", "sine", "--alpha", "1", "--t-grid", "nan:1:3"]
        )
        assert res.exit_code == 2, res.output

    def test_above_t_max_exits_2(self, runner):
        # the 40-term sine inverse holds up to t_max = 4.45 at q = 0.5; at t = 9 it summed to -5.8e18
        res = runner.invoke(main, ["invert", "--q", "0.5", "--fn", "sine", "--alpha", "1", "--t-grid", "1:9:3"])
        assert res.exit_code == 2, res.output
        assert "t values [5.0, 9.0] lie above the series validity bound t_max = 4.44" in res.output

    def test_classical_q_fixed_power_law(self, runner):
        # single power t^2 (s^-3): estimate = t^2 * Gamma(3+k)/(k^2 Gamma(k+1)) at q = 1 too
        res = runner.invoke(main, ["invert", "--q", "1", "--fn", "monomial", "--m", "3", "--t-grid", "0.5:2:3"])
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 15
        for t, k, est, *_ in rows:
            t, k = float(t), int(k)
            assert float(est) == pytest.approx(t**2 * (k + 1) * (k + 2) / k**2, rel=1e-12)

    def test_fixed_m_is_not_an_option(self, runner):
        # --fixed-m 200 printed estimates 226 to 904 against 0.25 and 1 with exit 0
        res = runner.invoke(
            main,
            ["invert", "--q", "0.1", "--fn", "monomial", "--m", "3", "--t-grid", "0.5:1:2", "--fixed-m", "200"],
        )
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output and "--fixed-m" in res.output


@pytest.mark.parametrize(
    "args",
    (
        ["transform", "--q", "0.5", "--fn", "exponential", "--sign", "-1", "--alpha", "1", "--s-grid", "2:4:3",
         "--n-terms", "1"],
        ["transform", "--q", "0.5", "--fn", "sine", "--alpha", "1", "--s-grid", "2:4:2", "--n-terms", "3"],
        ["invert", "--q", "0.5", "--fn", "cosine", "--alpha", "1", "--t-grid", "1:3:2", "--n-terms", "2",
         "--k-schedule", "64"],
        ["roundtrip", "--q", "0.6", "--fn", "qgaussian", "--alpha", "1", "--qprime", "0.7", "--n-terms", "3"],
    ),
    ids=("transform-1", "transform-3", "invert-2", "roundtrip-3"),
)
def test_short_series_exits_2(runner, args):
    # a series of one nonzero term read as exact at every s and t: rel_err 0.03 to 2 with exit 0;
    # the refusal names the flag, not the library's n_terms
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    n = args[args.index("--n-terms") + 1]
    assert f"--n-terms must be an integer >= 4, got --n-terms = {n}" in res.output
    assert "n_terms" not in res.output and "Traceback" not in res.output


def test_monomial_ignores_n_terms(runner):
    # a power t**(m-1) is an m-term series whatever --n-terms
    args = ["transform", "--q", "0.5", "--fn", "monomial", "--m", "3", "--s-grid", "1:2:2"]
    short, default = runner.invoke(main, [*args, "--n-terms", "1"]), runner.invoke(main, args)
    assert short.exit_code == default.exit_code == 0, short.output
    assert short.output.replace("n-terms=1", "n-terms=40") == default.output


class TestRoundtripCommand:
    def test_rows(self, runner):
        res = runner.invoke(
            main,
            ["roundtrip", "--q", "0.6", "--fn", "qgaussian", "--alpha", "1.0", "--qprime", "0.7", "--n-terms", "8"],
        )
        assert res.exit_code == 0, res.output
        header, rows = data_rows(res.output)
        assert header == ["n", "coeff_recovered", "coeff_reference", "rel_err"]
        assert len(rows) == 8
        assert all(float(r[3]) < 1e-10 for r in rows)

    @pytest.mark.parametrize("fn", (["sine", "--alpha", "1"], ["qgaussian", "--alpha", "1", "--qprime", "0.7"]),
                             ids=lambda fn: fn[0])
    def test_classical_q(self, runner, fn):
        res = runner.invoke(main, ["roundtrip", "--q", "1", "--fn", *fn, "--n-terms", "12"])
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 12
        assert all(float(r[3]) < 1e-10 for r in rows)


class TestIdentitiesCommand:
    def test_classical_all_pass(self, runner):
        res = runner.invoke(main, ["identities", "--q", "1.0"])
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        statuses = {r[0]: r[1] for r in rows}
        assert statuses["convolution"] == "pass"
        assert all(s in ("pass", "diagnostic") for s in statuses.values())

    def test_deformed_pass_with_skips(self, runner):
        res = runner.invoke(main, ["identities", "--q", "0.4"])
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        statuses = {r[0]: r[1] for r in rows}
        # derivative rule needs q > 1/2 and is reported as skipped, not failed
        assert statuses["derivative-rule-n1"] == "skipped"
        assert statuses["scaling"] == "pass"

    def test_integral_rule_ratio_recorded(self, runner):
        res = runner.invoke(main, ["identities", "--q", "0.8"])
        _, rows = data_rows(res.output)
        row = next(r for r in rows if r[0] == "integral-rule")
        assert float(row[5]) == pytest.approx(1.44, rel=1e-6)

    def test_skipped_rows_have_empty_numeric_fields(self, runner):
        res = runner.invoke(main, ["identities", "--q", "0.4"])
        _, rows = data_rows(res.output)
        row = next(r for r in rows if r[1] == "skipped")
        assert row[2] == row[3] == row[4] == ""

    def test_failed_check_exits_1(self, runner, monkeypatch):
        import qlaplace.transform as transform
        from qlaplace.transform import CheckReport

        monkeypatch.setattr(
            transform, "scaling_check", lambda *a, **k: CheckReport("scaling", 1.0, 2.0, 0.5)
        )
        res = runner.invoke(main, ["identities", "--q", "0.9"])
        assert res.exit_code == 1
        _, rows = data_rows(res.output)
        assert next(r for r in rows if r[0] == "scaling")[1] == "fail"

    @pytest.mark.parametrize("s", ("nan", "inf", "0", "-1"))
    def test_s_outside_domain_exits_2(self, runner, s):
        res = runner.invoke(main, ["identities", "--q", "0.6", "--s", s])
        assert res.exit_code == 2, res.output
        assert "--s must be finite and positive" in res.output

    @pytest.mark.parametrize("q, s", (("0.6", "1e200"), ("1", "1e300"), ("0.6", "1e-300")))
    def test_extreme_s_exits_3_without_traceback(self, q, s):
        # 1e200, 1e300: the integral rule's transform underflows to 0;
        # 1e-300: a panel sum overflows
        res = run_cli("identities", "--q", q, "--s", s)
        assert res.returncode == 3, res.stderr
        assert "numeric failure" in res.stderr
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr

    def test_numeric_failure_exits_3(self, runner, monkeypatch):
        import qlaplace.cli as climod
        from qlaplace.errors import QuadratureError

        def boom(*a, **k):
            raise QuadratureError("tolerance not met")

        monkeypatch.setattr(climod, "forward_numeric", boom)
        res = runner.invoke(
            main, ["transform", "--q", "0.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2"]
        )
        assert res.exit_code == 3
        assert "numeric failure" in res.output


class TestStatmechCommand:
    def test_gas_table(self, runner):
        res = runner.invoke(
            main,
            ["statmech", "--model", "ideal-gas", "--d", "3", "--n", "2", "--q", "0.9", "--e-grid", "0.5:5:10"],
        )
        assert res.exit_code == 0, res.output
        header, rows = data_rows(res.output)
        assert header == ["E", "g_numeric", "g_analytic", "rel_err"]
        assert len(rows) == 10
        # analytic column is proportional to E^2
        e0, g0 = float(rows[0][0]), float(rows[0][2])
        e1, g1 = float(rows[-1][0]), float(rows[-1][2])
        assert g1 / g0 == pytest.approx((e1 / e0) ** 2, rel=1e-10)

    def test_oscillator(self, runner):
        res = runner.invoke(
            main,
            ["statmech", "--model", "oscillator", "--d", "1", "--n", "3", "--q", "0.6", "--e-grid", "1:2:2"],
        )
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert float(rows[0][2]) == pytest.approx(0.5, rel=1e-10)

    def test_classical_q(self, runner):
        # the finite-k estimates of a single power do not depend on q, so q = 1 prints the q = 0.6 rows
        args = ["statmech", "--model", "oscillator", "--d", "1", "--n", "3", "--e-grid", "1:2:2", "--no-meta"]
        res1, res6 = (runner.invoke(main, [*args, "--q", q]) for q in ("1", "0.6"))
        assert res1.exit_code == 0, res1.output
        rows1, rows6 = data_rows(res1.output)[1], data_rows(res6.output)[1]
        assert [float(v) for row in rows1 for v in row] == pytest.approx([float(v) for row in rows6 for v in row], rel=1e-13)

    def test_uppercase_flag_spelling(self, runner):
        res = runner.invoke(
            main,
            ["statmech", "--model", "ideal-gas", "--D", "3", "--N", "2", "--q", "0.9", "--E-grid", "0.5:5:10"],
        )
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 10

    def test_overflow_exits_3(self, runner):
        res = runner.invoke(
            main,
            ["statmech", "--model", "oscillator", "--D", "2", "--N", "100", "--hbar", "1e-5", "--q", "0.5",
             "--e-grid", "1:2:3"],
        )
        assert res.exit_code == 3
        assert "numeric failure" in res.output

    def test_large_power_analytic_column_finite(self, runner):
        # prefactor 1/Gamma(180) underflows and E**179 overflows; their product does not
        res = runner.invoke(
            main,
            ["statmech", "--model", "oscillator", "--D", "1", "--N", "180", "--q", "0.5",
             "--e-grid", "170:180:2", "--no-extrapolate"],
        )
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 2
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row), row
            e, g_ana = float(row[0]), float(row[2])
            assert g_ana == pytest.approx(math.exp(179 * math.log(e) - math.lgamma(180)), rel=1e-12)

    def test_non_finite_grid_exits_2(self, runner):
        res = runner.invoke(
            main, ["statmech", "--model", "ideal-gas", "--D", "3", "--N", "2", "--q", "0.9", "--E-grid", "nan:5:3"]
        )
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize(
        "extra", (["--model", "oscillator", "--hbar", "inf"], ["--model", "oscillator", "--omega", "nan"],
                  ["--model", "ideal-gas", "--mass", "nan"], ["--model", "ideal-gas", "--v", "inf"],
                  ["--model", "ideal-gas", "--h-const", "nan"]),
    )
    def test_non_finite_constant_exits_2(self, runner, extra):
        res = runner.invoke(main, ["statmech", *extra, "--D", "1", "--N", "3", "--q", "0.6", "--E-grid", "0.5:5:2"])
        assert res.exit_code == 2, res.output
        assert "finite and positive" in res.output

    @pytest.mark.parametrize("value", ("nan", "0", "-1"))
    @pytest.mark.parametrize(
        "model, given, flag",
        (("ideal-gas", "--v", "--v"), ("ideal-gas", "--V", "--v"), ("ideal-gas", "--mass", "--mass"),
         ("ideal-gas", "--h-const", "--h-const"), ("oscillator", "--omega", "--omega"),
         ("oscillator", "--hbar", "--hbar")),
    )
    def test_refused_constant_names_its_flag(self, runner, model, given, flag, value):
        # the model's own check named its field: "h must be ..." for --h-const
        res = runner.invoke(main, ["statmech", "--model", model, given, value, "--D", "3", "--N", "2",
                                   "--q", "0.6", "--E-grid", "1:2:2"])
        assert res.exit_code == 2, res.output
        assert f"{flag} must be finite and positive, got {flag} = {float(value)}" in res.output

    @pytest.mark.parametrize(
        "model, extra, named",
        (("ideal-gas", ["--hbar", "nan", "--omega", "-5"], ("--hbar", "--omega")),
         ("ideal-gas", ["--omega", "2"], ("--omega",)),
         ("oscillator", ["--mass", "7", "--V", "3"], ("--mass", "--v")),
         ("oscillator", ["--h-const", "2"], ("--h-const",))),
        ids=("gas-hbar-omega", "gas-omega", "oscillator-mass-V", "oscillator-h"),
    )
    def test_foreign_constant_exits_2(self, runner, model, extra, named):
        # these were dropped: exit 0, and the table printed without them
        res = runner.invoke(main, ["statmech", "--model", model, *extra, "--D", "3", "--N", "2", "--q", "0.6",
                                   "--E-grid", "1:2:2"])
        assert res.exit_code == 2, res.output
        assert f"--model {model} takes no" in res.output
        assert all(flag in res.output for flag in named), res.output

    @pytest.mark.parametrize("model, key", (("ideal-gas", "hbar"), ("oscillator", "V")))
    def test_foreign_config_key_exits_2(self, runner, tmp_path, model, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=2\n")
        res = runner.invoke(main, ["statmech", "--config", str(cfg), "--model", model, "--D", "3", "--N", "2",
                                   "--q", "0.6", "--E-grid", "1:2:2"])
        assert res.exit_code == 2, res.output
        assert f"--model {model} takes no --{key.lower()}" in res.output

    @pytest.mark.parametrize(
        "model, given",
        (("ideal-gas", ["--V", "1", "--mass", "1", "--h-const", "1"]), ("oscillator", ["--omega", "1", "--hbar", "1"])),
    )
    def test_unit_constants_are_the_defaults(self, runner, model, given):
        args = ["statmech", "--model", model, "--D", "3", "--N", "2", "--q", "0.6", "--E-grid", "1:2:2"]
        plain, explicit = runner.invoke(main, args), runner.invoke(main, [*args, *given])
        assert plain.exit_code == explicit.exit_code == 0, explicit.output
        assert plain.output == explicit.output

    def test_power_one(self, runner):
        # m = D*N/2 = 1, once refused: g(E) is the prefactor 2 pi / 2!, and so is every raw estimate
        res = runner.invoke(
            main,
            ["statmech", "--model", "ideal-gas", "--d", "1", "--n", "2", "--q", "0.6", "--e-grid", "1:2:2",
             "--no-extrapolate"],
        )
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 2
        for _, g_num, g_ana, rel_err in rows:
            assert g_num == g_ana and float(rel_err) == 0.0
            assert float(g_num) == pytest.approx(math.pi, rel=1e-15)
