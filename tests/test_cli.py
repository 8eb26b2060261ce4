import json
from pathlib import Path

import pytest

from recal import example_scenario_path
from recal.cli import main
from conftest import (
    COUNT_KEYS,
    SATURATED_BINOMIAL_SCENARIO,
    ZERO_END_MASS_SCENARIO,
    example_with_count,
    saturated_tail_scenario,
)


@pytest.fixture()
def fixture_path():
    return str(example_scenario_path())


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_full_run_writes_outputs_and_exits_zero(self, tmp_path, fixture_path, capsys):
        code = run_cli(
            "run", "--scenario", fixture_path, "--methods", "all", "--out", str(tmp_path)
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "capped_scaling: converged=True" in out
        table = (tmp_path / "table.csv").read_text()
        assert table.startswith("method,mean_probs,auc,mean_functional\n")
        assert len(table.strip().split("\n")) == 10
        curves = (tmp_path / "curves.csv").read_text()
        assert curves.startswith("series,support,value\n")
        assert len(curves.strip().split("\n")) == 1 + 11 * 17
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["all_converged"] is True
        assert set(diag["methods"]) == {
            "capped_scaling",
            "label_shift",
            "fjs",
            "platt",
            "roc_qmm",
            "two_param_qmm",
            "logistic_cspd",
            "normal_cspd",
        }
        assert diag["methods"]["capped_scaling"]["params"]["t"] > 1.0
        assert diag["methods"]["fjs"]["params"]["rho"] > 0.0
        assert diag["methods"]["roc_qmm"]["residual_mean"] is None

    def test_table_values_match_reference_within_rounding_headroom(
        self, tmp_path, fixture_path
    ):
        from conftest import CELL_TOL, REFERENCE_TABLE

        run_cli("run", "--scenario", fixture_path, "--out", str(tmp_path))
        lines = (tmp_path / "table.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 9
        for line in lines:
            label, mean, auc, func = line.split(",")
            expected = REFERENCE_TABLE[label]
            assert abs(float(mean) - expected[0]) <= CELL_TOL, label
            assert abs(float(auc) - expected[1]) <= CELL_TOL, label
            assert abs(float(func) - expected[2]) <= CELL_TOL, label

    def test_method_subset(self, tmp_path, fixture_path):
        code = run_cli(
            "run",
            "--scenario",
            fixture_path,
            "--methods",
            "label_shift",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "table.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header, Source, Label shift
        assert lines[2].startswith("Label shift,")

    def test_loose_mean_tolerance_same_table_fewer_iterations(self, tmp_path, fixture_path):
        tight_dir = tmp_path / "tight"
        loose_dir = tmp_path / "loose"
        run_cli(
            "run", "--scenario", fixture_path, "--methods", "capped_scaling,fjs",
            "--out", str(tight_dir),
        )
        run_cli(
            "run", "--scenario", fixture_path, "--methods", "capped_scaling,fjs",
            "--tol-mean", "1e-6", "--out", str(loose_dir),
        )

        def rounded_table(path):
            rows = []
            for line in (path / "table.csv").read_text().strip().split("\n")[1:]:
                label, *cells = line.split(",")
                rows.append((label, tuple(round(float(c), 3) for c in cells)))
            return rows

        assert rounded_table(tight_dir) == rounded_table(loose_dir)
        tight = json.loads((tight_dir / "diagnostics.json").read_text())["methods"]
        loose = json.loads((loose_dir / "diagnostics.json").read_text())["methods"]
        for method in ("capped_scaling", "fjs"):
            assert loose[method]["iterations"] < tight[method]["iterations"]

    def test_deterministic_byte_identical_outputs(self, tmp_path, fixture_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run_cli("run", "--scenario", fixture_path, "--out", str(dir_a)) == 0
        assert run_cli("run", "--scenario", fixture_path, "--out", str(dir_b)) == 0
        for name in ("table.csv", "curves.csv", "diagnostics.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_unwritable_output_exits_one(self, tmp_path, fixture_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = run_cli(
            "run", "--scenario", fixture_path, "--out", str(blocker / "sub")
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"source": {}}))
        code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_non_convergence_exits_two_but_writes(self, tmp_path, fixture_path, capsys):
        code = run_cli(
            "run",
            "--scenario",
            fixture_path,
            "--methods",
            "roc_qmm",
            "--max-iter",
            "1",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert (tmp_path / "table.csv").exists()
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["all_converged"] is False
        assert diag["methods"]["roc_qmm"]["converged"] is False

    def test_single_outer_step_writes_strict_json(self, tmp_path, fixture_path, capsys):
        """One outer step of two_param_qmm measures no joint change; its
        residual is written as null, which every RFC 8259 parser reads."""
        code = run_cli(
            "run", "--scenario", fixture_path, "--max-iter", "1", "--out", str(tmp_path)
        )
        assert code == 2

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "diagnostics.json").read_text()
        diag = json.loads(text, parse_constant=refuse)
        assert diag["methods"]["two_param_qmm"]["residual_fixed_point"] is None
        assert diag["methods"]["two_param_qmm"]["converged"] is False

    def test_unknown_method_exits_one(self, tmp_path, fixture_path, capsys):
        code = run_cli(
            "run", "--scenario", fixture_path, "--methods", "wat", "--out", str(tmp_path)
        )
        assert code == 1


class TestTableCommand:
    def test_prints_three_decimal_table(self, fixture_path, capsys):
        code = run_cli("table", "--scenario", fixture_path)
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 10
        assert lines[1].split()[0] == "Source"
        assert "0.010" in lines[1]

    def test_subset_selection(self, fixture_path, capsys):
        code = run_cli("table", "--scenario", fixture_path, "--methods", "label_shift")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3


    def test_non_convergence_exits_two(self, fixture_path, capsys):
        code = run_cli(
            "table", "--scenario", fixture_path, "--methods", "roc_qmm", "--max-iter", "1"
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("method")

    def test_invalid_scenario_exits_one_and_prints_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"source": {}}))
        assert run_cli("table", "--scenario", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err


class TestCurvesCommand:
    def test_stdout_csv(self, fixture_path, capsys):
        code = run_cli("curves", "--scenario", fixture_path)
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("series,support,value\n")
        assert len(out.strip().split("\n")) == 1 + 11 * 17

    def test_writes_file_with_out(self, tmp_path, fixture_path):
        code = run_cli("curves", "--scenario", fixture_path, "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "curves.csv").exists()


    def test_non_convergence_exits_two(self, fixture_path, capsys):
        code = run_cli(
            "curves", "--scenario", fixture_path, "--methods", "roc_qmm", "--max-iter", "1"
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("series,support,value\n")

    def test_unwritable_output_exits_one(self, tmp_path, fixture_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = run_cli("curves", "--scenario", fixture_path, "--out", str(blocker / "sub"))
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_sign_of_zero_follows_each_series_support(self, tmp_path, capsys):
        # source and target supports are equal as values but differ in the
        # sign of their zero; each series prints the zero of its own support
        scenario = {
            "source": {
                "support": [-2.0, -1.0, -0.0, 1.0, 2.0],
                "probs": [0.1, 0.2, 0.4, 0.2, 0.1],
                "posterior": [0.05, 0.1, 0.2, 0.3, 0.4],
            },
            "target": {
                "feature": {
                    "type": "explicit",
                    "support": [-2.0, -1.0, 0.0, 1.0, 2.0],
                    "probs": [0.1, 0.1, 0.3, 0.3, 0.2],
                },
                "prior": 0.3,
            },
            "methods": "all",
            "functional": "sqrt",
        }
        path = tmp_path / "signed_zero.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("curves", "--scenario", str(path)) == 0
        zero_lines = {}
        for line in capsys.readouterr().out.split("\n")[1:-1]:
            series, support, _ = line.split(",")
            if float(support) == 0.0:
                zero_lines[series] = support
        assert len(zero_lines) == 11
        for series, support in zero_lines.items():
            signed = series in ("source_pmf", "posterior_source")
            assert support == ("-0" if signed else "0"), series


class TestUsageErrors:
    def test_missing_subcommand_exits_one(self, capsys):
        assert run_cli() == 1

    def test_missing_scenario_flag_exits_one(self, capsys):
        assert run_cli("run") == 1

    def test_bad_flag_value_exits_one(self, tmp_path, fixture_path):
        code = run_cli(
            "run", "--scenario", fixture_path, "--tol-mean", "-1", "--out", str(tmp_path)
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value", [("--tol-mean", "inf"), ("--tol-auc", "nan"), ("--tol-mean", "1e400")]
    )
    def test_non_finite_tolerance_exits_one_and_names_flag(
        self, fixture_path, capsys, flag, value
    ):
        code = run_cli("table", "--scenario", fixture_path, flag, value)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be positive and finite" in captured.err

    def test_oversized_json_integer_exits_one_without_traceback(
        self, tmp_path, fixture_path, capsys
    ):
        scenario = json.loads(Path(fixture_path).read_text())
        scenario["target"]["prior"] = 10**400  # past the float range
        path = tmp_path / "big.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("table", "--scenario", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "recal: error: target.prior: number is too large for a float\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "key, kind, lo, hi", COUNT_KEYS, ids=[f"{k}-{t}" for k, t, _, _ in COUNT_KEYS]
    )
    def test_oversized_count_exits_one_without_traceback(
        self, tmp_path, capsys, key, kind, lo, hi
    ):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(example_with_count(key, kind, 10**400)))
        assert run_cli("table", "--scenario", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"recal: error: {key}: must be an integer in [{lo}, {hi}]\n"


@pytest.mark.parametrize(
    "method, message",
    [
        ("two_param_qmm", "two_param_qmm: inner (a, b) solve"),
        ("roc_qmm", "roc_qmm: class-0 CDF refresh has values outside (0, 1)"),
    ],
)
def test_saturated_binomial_tail_error_names_the_method(tmp_path, capsys, method, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SATURATED_BINOMIAL_SCENARIO), encoding="utf-8")
    code = run_cli("table", "--scenario", str(path), "--methods", method)
    assert code in (1, 2)
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_saturated_tail_runs_every_method(tmp_path, capsys):
    """The [-4, 4] geometry at n = 65,537, whose refreshed class-0 CDF
    rounds to 1 in the upper tail: every method converges and all three
    files are written."""
    src, tgt = saturated_tail_scenario(65_537)
    scenario = {
        "source": {
            "support": src.feature_dist.support.tolist(),
            "probs": src.feature_dist.probs.tolist(),
            "posterior": src.posterior.values.tolist(),
        },
        "target": {
            "feature": {
                "type": "explicit",
                "support": tgt.support.tolist(),
                "probs": tgt.feature_dist.probs.tolist(),
            },
            "prior": tgt.prior,
        },
        "methods": "all",
        "functional": "sqrt",
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "diagnostics.json", "table.csv"]
    assert json.loads((out / "diagnostics.json").read_text())["all_converged"] is True


def test_zero_end_mass_error_names_the_method_and_stage(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ZERO_END_MASS_SCENARIO), encoding="utf-8")
    code = run_cli("table", "--scenario", str(path), "--methods", "two_param_qmm")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recal: error: two_param_qmm: initial class-0 CDF has values")
    assert "Traceback" not in captured.err


def test_roc_qmm_zero_end_mass_error_names_the_method_and_stage(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ZERO_END_MASS_SCENARIO), encoding="utf-8")
    code = run_cli("table", "--scenario", str(path), "--methods", "roc_qmm")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "recal: error: roc_qmm: initial class-0 CDF has values outside (0, 1)"
    )
    assert "Traceback" not in captured.err
