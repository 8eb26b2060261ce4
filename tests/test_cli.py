import json
from pathlib import Path

import pytest

from recal import example_scenario_path
from recal.cli import main
from conftest import COUNT_KEYS, example_with_count


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
