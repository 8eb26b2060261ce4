import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recal import (
    FunctionalSpec,
    MethodId,
    Scenario,
    SolverSettings,
    curves_to_csv,
    eval_report,
    example_scenario_path,
    export_curves,
    run_methods,
    write_scenario,
)
from recal.cli import main
from conftest import (
    COUNT_KEYS,
    METHOD_REPROS,
    SATURATED_BINOMIAL_SCENARIO,
    UNATTAINABLE_Q_SCENARIO,
    ZERO_END_MASS_SCENARIO,
    example_with_count,
    explicit_scenario,
    saturated_tail_scenario,
)


@pytest.fixture()
def fixture_path():
    return str(example_scenario_path())


def run_cli(*argv):
    return main(list(argv))


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


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
            "--tol-mean", "1e-5", "--out", str(loose_dir),
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
        assert loose["fjs"]["iterations"] < tight["fjs"]["iterations"]
        # Newton lands on capped scaling's piecewise-linear mean exactly, so
        # only a tolerance above the residual at its start t0 = q / E[eta]
        # (2.3e-3 on the example) stops it earlier, and that moves the
        # table's third decimal
        coarse_dir = tmp_path / "coarse"
        run_cli(
            "run", "--scenario", fixture_path, "--methods", "capped_scaling,fjs",
            "--tol-mean", "3e-3", "--out", str(coarse_dir),
        )
        coarse = json.loads((coarse_dir / "diagnostics.json").read_text())["methods"]
        for method in ("capped_scaling", "fjs"):
            assert coarse[method]["iterations"] < loose[method]["iterations"]
            assert coarse[method]["converged"] and coarse[method]["residual_mean"] <= 3e-3

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
        diag = strict_json((tmp_path / "diagnostics.json").read_text())
        assert diag["methods"]["two_param_qmm"]["residual_fixed_point"] is None
        assert diag["methods"]["two_param_qmm"]["converged"] is False

    def test_constant_posterior_at_unreachable_tol_mean_writes_strict_json(
        self, tmp_path, capsys
    ):
        """A constant posterior has source AUC exactly 1/2, so Platt and the
        two-parameter QMM take the slope-0 branch, whose intercept cannot pin
        the mean to 1e-30: that probe computes no AUC, and its residual is
        written as null, not NaN."""
        scenario = explicit_scenario([0.2, 0.2, 0.2], [0.25, 0.5, 0.25], [0.3, 0.4, 0.3], 0.1)
        scenario["methods"] = ["platt", "two_param_qmm"]
        scenario["solver"] = {"tol_mean": 1e-30}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == 2
        diag = strict_json((tmp_path / "diagnostics.json").read_text())
        for method in ("platt", "two_param_qmm"):
            assert diag["methods"][method]["residual_auc"] is None
            assert diag["methods"][method]["converged"] is False

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

    @pytest.mark.parametrize("verb", ["table", "run"])
    def test_undefined_source_auc_names_the_table_row(self, tmp_path, capsys, verb):
        """capped scaling runs on a source whose posterior mean rounds to 1,
        but the table's Source row has no AUC: exit 1, naming that row."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(METHOD_REPROS["platt_source_mean_rounds_to_1"][1]))
        out = ["--out", str(tmp_path / "out")] if verb == "run" else []
        code = run_cli(verb, "--scenario", str(path), "--methods", "capped_scaling", *out)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("recal: error: results table: Source row: ")
        assert "Traceback" not in captured.err

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


    def test_text_longer_than_a_slice_is_written_whole(self, tmp_path, capsysbinary):
        """A curve text of over 2 MiB, several blocks, comes out byte for
        byte as one curves_to_csv call renders it, into --out and on stdout,
        and into the curves.csv of ``recal run``."""
        src, tgt = saturated_tail_scenario(16_385)
        methods = (MethodId.LABEL_SHIFT, MethodId.FJS)
        scenario = Scenario(src, tgt, methods, FunctionalSpec.sqrt(), SolverSettings())
        path = tmp_path / "scenario.json"
        write_scenario(scenario, path)
        text = curves_to_csv(export_curves(src, tgt, run_methods(scenario)))
        assert len(text) > 2 << 20
        assert run_cli("curves", "--scenario", str(path), "--out", str(tmp_path)) == 0
        assert (tmp_path / "curves.csv").read_bytes() == text.encode("utf-8")
        capsysbinary.readouterr()
        assert run_cli("curves", "--scenario", str(path)) == 0
        assert capsysbinary.readouterr().out == text.encode("utf-8")
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "run")) == 0
        assert (tmp_path / "run" / "curves.csv").read_bytes() == text.encode("utf-8")

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

    def test_unknown_functional_exits_one_and_names_it(self, fixture_path, capsys):
        code = run_cli("table", "--scenario", fixture_path, "--functional", "cube")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("recal: error: functional: unknown functional id 'cube'")

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
        ("platt", "platt: target AUC 0.9996824811356723 lies outside the AUC range"),
    ],
)
def test_saturated_binomial_tail_error_names_the_method(tmp_path, capsys, method, message):
    """The source AUC lies above what the method attains: an input error
    (exit 1) whose message names the method, with no traceback."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SATURATED_BINOMIAL_SCENARIO), encoding="utf-8")
    code = run_cli("table", "--scenario", str(path), "--methods", method)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"recal: error: {message}")
    assert "Traceback" not in captured.err + captured.out


def test_unattainable_capped_scaling_target_is_an_input_error(tmp_path, capsys):
    """No scale lifts the capped mean to q: an input error (exit 1) whose
    message names capped_scaling, with no traceback."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(UNATTAINABLE_Q_SCENARIO), encoding="utf-8")
    code = run_cli("table", "--scenario", str(path), "--methods", "capped_scaling")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recal: error: capped_scaling: no sign change")
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "scenario file is not UTF-8: "),
        (b"[" * 200000 + b"]" * 200000, "scenario file nests arrays or objects too deeply"),
    ],
    ids=["not_utf8", "nested_too_deeply"],
)
def test_malformed_scenario_file_is_an_input_error(tmp_path, capsys, content, message):
    """A file that is not UTF-8 or nests past the recursion limit: exit 1
    with the reason, and no traceback."""
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    code = run_cli("table", "--scenario", str(path))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"recal: error: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", sorted(METHOD_REPROS))
def test_method_repro_exits_cleanly(tmp_path, capsys, case):
    """Each input that once let a warning or an unnamed error out of a
    method exits 0, 1 or 2 through `recal run`; an error names the method."""
    method, scenario = METHOD_REPROS[case]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code = run_cli("run", "--scenario", str(path), "--methods", method, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1:
        assert captured.err.startswith(f"recal: error: {method}: ")
    assert "Traceback" not in captured.err + captured.out


def test_saturated_binomial_tail_roc_qmm_converges(tmp_path, capsys):
    """roc_qmm takes its class-0 masses from expit(-eta), which stay
    positive where the posterior rounds to 1, and converges: `recal run`
    exits 0 and reports it converged."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SATURATED_BINOMIAL_SCENARIO), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", str(path), "--methods", "roc_qmm", "--out", str(out))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    diagnostics = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    assert diagnostics["all_converged"]
    rows = (out / "table.csv").read_text(encoding="utf-8").splitlines()
    method, mean, auc, _ = rows[-1].split(",")
    assert method == "ROC QMM"
    assert abs(float(mean) - 0.0157489) <= 1e-6 and abs(float(auc) - 0.9990087) <= 1e-6


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


def test_run_holds_one_curve_series_at_a_time(tmp_path, monkeypatch, capsys):
    """``recal run`` writes curves.csv block by block as it is rendered:
    after the methods have run, tracemalloc's peak rises by less than a
    fifth of the bytes of the curves.csv it writes (11 series of 65,537
    points, ~35 MB), ~0.14 of them: the support's field matrix and one
    block's temporaries. Rendering one series' text at a time rose by
    ~0.25 of them, the whole text before writing it by more than the text.
    The file holds the bytes of one curves_to_csv call."""
    src, tgt = saturated_tail_scenario(65_537)
    scenario = Scenario(src, tgt, tuple(MethodId), FunctionalSpec.sqrt(), SolverSettings())
    path = tmp_path / "scenario.json"
    write_scenario(scenario, path)
    held = []

    def run_then_reset_peak(parsed):
        results = run_methods(parsed)
        tracemalloc.reset_peak()
        held.append((tracemalloc.get_traced_memory()[0], parsed, results))
        return results

    monkeypatch.setattr("recal.cli.run_methods", run_then_reset_peak)
    tracemalloc.start()
    try:
        code = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    written = (tmp_path / "out" / "curves.csv").read_bytes()
    assert len(written) > 8 << 20
    [(before, parsed, results)] = held
    assert peak - before < len(written) / 5
    series = export_curves(parsed.source, parsed.target, results)
    assert len(series) == 11
    assert written == curves_to_csv(series).encode("utf-8")


def test_every_writer_streams_the_bytes_of_one_curves_to_csv_call(
    tmp_path, monkeypatch, capsysbinary, fixture_path
):
    """curves.csv is written block by block as it is rendered, and its
    bytes are those of one curves_to_csv call through ``run --out``,
    ``curves --out`` and ``curves`` on stdout: series of several blocks on
    two supports equal but for the sign of a zero, an empty series, and a
    series on the first support again."""
    rng = np.random.default_rng(3)
    plus = np.linspace(-1.0, 1.0, 25_001)
    plus[12_500] = 0.0
    minus = plus.copy()
    minus[12_500] = -0.0
    series = [
        ("a", plus, rng.random(plus.size)),
        ("b", minus, rng.standard_normal(minus.size)),
        ("empty", np.empty(0), np.empty(0)),
        ("c", plus, -rng.random(plus.size)),
    ]
    text = curves_to_csv(series)
    assert "\na,0," in text and "\nb,-0," in text and "\nc,0," in text
    assert plus.size * (len("a,") + 2 * eval_report._FIELD + 2) > 2 * eval_report._BLOCK_BYTES
    monkeypatch.setattr("recal.cli.export_curves", lambda *args: series)
    flags = ("--scenario", fixture_path, "--methods", "label_shift")
    for verb in ("run", "curves"):
        assert run_cli(verb, *flags, "--out", str(tmp_path / verb)) == 0
        assert (tmp_path / verb / "curves.csv").read_bytes() == text.encode("utf-8")
    capsysbinary.readouterr()
    assert run_cli("curves", *flags) == 0
    assert capsysbinary.readouterr().out == text.encode("utf-8")


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


@pytest.mark.parametrize(
    "q, code",
    [(0.99999, 0), (1.0 - 1e-6, 0), (1.0 - 1e-9, 0), (1.0 - 1e-8, 2)],
    ids=["q_0.99999", "q_1-1e-6", "q_1-1e-9", "q_1-1e-8"],
)
def test_both_qmms_near_q_one(tmp_path, capsys, q, code):
    """The worked example at a target prior near 1, where the class-0
    masses once summed off 1 and both QMMs raised: `recal table` prints both
    rows and exits 0, or 2 at q = 1 - 1e-8, where two_param_qmm stops at
    max_iter and reports converged=False."""
    scenario = json.loads(example_scenario_path().read_text(encoding="utf-8"))
    scenario["target"]["prior"] = q
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert run_cli("table", "--scenario", str(path), "--methods", "roc_qmm,two_param_qmm") == code
    captured = capsys.readouterr()
    assert "ROC QMM" in captured.out and "2-param QMM" in captured.out
    assert "error" not in captured.err


@pytest.mark.parametrize("correlation, code", [(0.97, 0), (0.98, 1)])
def test_worked_example_at_a_steep_correlation(tmp_path, capsys, correlation, code):
    """Where 128 quadrature nodes miss the mean, the target takes 256:
    correlation 0.97 builds and `recal table` exits 0; at 0.98 256 nodes
    miss too, an input error that says to lower the correlation."""
    scenario = json.loads(example_scenario_path().read_text(encoding="utf-8"))
    scenario["target"]["feature"]["correlation"] = correlation
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert run_cli("table", "--scenario", str(path)) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("recal: error: target.feature: 256 quadrature nodes give mean ")
        assert err.endswith("; lower the correlation\n")
    else:
        assert err == ""


@st.composite
def scenario_dicts(draw):
    """Explicit scenarios of 1 to 40 points with zero masses, a sorted or
    unsorted posterior with values within 1e-15 of 0 and 1, in some draws
    exactly 0 and 1, and q from 1e-12 to 1 - 1e-6."""
    n = draw(st.integers(1, 40))
    interior = draw(st.booleans())  # most methods refuse a posterior of 0 or 1
    value = st.one_of(
        st.floats(0.0, 1.0, exclude_min=interior, exclude_max=interior),
        st.floats(0.0, 1e-15, exclude_min=interior),
        st.floats(1.0 - 1e-15, 1.0, exclude_max=interior),
        st.sampled_from([5e-324, 1.0 - 2.0**-53] if interior else [0.0, 1.0]),
    )
    posterior = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):
        posterior.sort()
    masses = []
    for _ in range(2):
        m = np.array(draw(st.lists(st.one_of(st.floats(1e-6, 1.0), st.just(0.0)),
                                   min_size=n, max_size=n)))
        if not m.sum() > 0.0:
            m[-1] = 1.0
        masses.append((m / m.sum()).tolist())
    scenario = explicit_scenario(posterior, *masses, draw(st.floats(1e-12, 1.0 - 1e-6)))
    # one method alone, so that an error of another cannot hide its path
    scenario["methods"] = draw(st.sampled_from(["all", *([m.value] for m in MethodId)]))
    return scenario


@settings(max_examples=40, deadline=None)
@given(scenario=scenario_dicts())
def test_table_on_drawn_scenarios_exits_cleanly(tmp_path_factory, scenario):
    """`recal table` on a drawn scenario file exits 0, 1 or 2 and writes no
    traceback; a RuntimeWarning would escape as an error."""
    path = tmp_path_factory.getbasetemp() / "drawn_scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["table", "--scenario", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    scenario=scenario_dicts(),
    constant=st.floats(1e-6, 1.0 - 1e-6),
    tol_mean=st.sampled_from([None, "1e-30"]),
)
def test_run_on_drawn_constant_posteriors_writes_strict_json(
    tmp_path_factory, scenario, constant, tol_mean
):
    """`recal run` on a drawn scenario with a constant posterior (source
    AUC exactly 1/2, where Platt and the two-parameter QMM fit slope 0),
    in some draws with a mean tolerance no solve can meet, exits 0, 1 or 2,
    and any diagnostics.json it writes is strict JSON."""
    scenario["source"]["posterior"] = [constant] * len(scenario["source"]["posterior"])
    base = tmp_path_factory.getbasetemp()
    path, out = base / "drawn_run.json", base / "drawn_run"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    (out / "diagnostics.json").unlink(missing_ok=True)
    argv = ["run", "--scenario", str(path), "--out", str(out)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv + (["--tol-mean", tol_mean] if tol_mean else []))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 1:
        strict_json((out / "diagnostics.json").read_text(encoding="utf-8"))
