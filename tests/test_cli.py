"""Command-line interface: row contents, formats, config file, exit codes."""

import json
import math

import pytest
from click.testing import CliRunner

from qlaplace.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_invalid_q_exits_2(self, runner):
        res = runner.invoke(main, ["transform", "--q", "1.5", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2"])
        assert res.exit_code == 2

    def test_classical_q_rejected(self, runner):
        res = runner.invoke(main, ["transform", "--q", "1.0", "--fn", "monomial", "--m", "2", "--s-grid", "1:2:2"])
        assert res.exit_code == 2

    def test_below_s_min_exits_2(self, runner):
        res = runner.invoke(
            main, ["transform", "--q", "0.9", "--fn", "gaussian", "--alpha", "1.0", "--s-grid", "0.1:0.2:2"]
        )
        assert res.exit_code == 2

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
        assert "missing option" in res.output


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

    def test_fixed_m_past_q_poly_overflow(self, runner):
        # q_poly(1.9, 200) overflows a double: xi used to come out 0.0 and the run died
        res = runner.invoke(
            main,
            ["invert", "--q", "0.1", "--fn", "monomial", "--m", "3", "--t-grid", "0.5:1:2", "--fixed-m", "200"],
        )
        assert res.exit_code == 0, res.output
        _, rows = data_rows(res.output)
        assert len(rows) == 10
        assert all(math.isfinite(float(v)) for row in rows for v in row)


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
        import qlaplace.cli as climod
        from qlaplace.transform import CheckReport

        monkeypatch.setattr(
            climod, "scaling_check", lambda *a, **k: CheckReport("scaling", 1.0, 2.0, 0.5)
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

    def test_power_too_small_exits_2(self, runner):
        res = runner.invoke(
            main,
            ["statmech", "--model", "ideal-gas", "--d", "1", "--n", "2", "--q", "0.6", "--e-grid", "1:2:2"],
        )
        assert res.exit_code == 2
