"""Tests of the benchmark's own code: generator, span arithmetic, checks.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workgen  # noqa: E402


class TestGenerator:
    def test_same_seed_same_inputs(self):
        assert workgen.small_batch_params(11) == workgen.small_batch_params(11)
        assert workgen.large_params(11) == workgen.large_params(11)
        a = workgen.scenario_json(workgen.scenario_dict(257, workgen.large_params(11)))
        b = workgen.scenario_json(workgen.scenario_dict(257, workgen.large_params(11)))
        assert a == b

    def test_other_seed_other_inputs(self):
        assert workgen.large_params(11) != workgen.large_params(12)
        assert workgen.small_batch_params(11) != workgen.small_batch_params(12)

    def test_jitter_stays_within_bounds(self):
        for seed in range(20):
            for params, geometry in zip(workgen.small_batch_params(seed), workgen.SMALL_GEOMETRIES):
                for value, base in zip(params.values(), geometry):
                    assert abs(value / base - 1.0) <= workgen.JITTER

    def test_scenario_is_consistent(self):
        params = workgen.large_params(3)
        d = workgen.scenario_dict(257, params)
        probs = np.array(d["source"]["probs"])
        posterior = np.array(d["source"]["posterior"])
        assert abs(probs.sum() - 1.0) < 1e-12
        assert abs(np.dot(probs, posterior) - params["source_prior"]) < 1e-12
        assert np.all(np.diff(d["source"]["support"]) > 0)
        assert d["target"]["prior"] == params["q"]


def _tracer_with(spans_list):
    """Tracer holding (name, start, end, parent, unit, count) tuples."""
    tracer = spans.Tracer()
    for name, start, end, parent, unit, count in spans_list:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.unit.append(unit)
        tracer.count.append(count)
    return tracer


class TestSelfTime:
    def test_synthetic_tree(self):
        # 0: root [0, 10]; 1 and 2 overlap ([1, 3] and [2, 5] cover 4);
        # 3 runs past the root's end and is clipped to [9, 10];
        # 4 is a grandchild [1.5, 2.5] inside 1
        start = [0.0, 1.0, 2.0, 9.0, 1.5]
        end = [10.0, 3.0, 5.0, 12.0, 2.5]
        parent = [-1, 0, 0, 0, 1]
        got = spans.self_times(start, end, parent)
        assert got == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])

    def test_leaf_self_equals_duration(self):
        assert spans.self_times([2.0], [2.5], [-1]) == pytest.approx([0.5])

    def test_per_unit_totals(self):
        tracer = _tracer_with([
            ("unit", 0.0, 4.0, -1, 0, 0),
            ("solvers.link", 1.0, 2.0, 0, 0, 100),
            ("unit", 5.0, 7.0, -1, 1, 0),
            ("solvers.link", 5.5, 6.0, 2, 1, 50),
            ("solvers.link", 8.0, 9.0, -1, -1, 999),  # outside any unit
        ])
        totals = spans.per_unit_totals(tracer, [0, 1])
        assert totals["solvers.link"] == pytest.approx(
            {"calls": 1.0, "s": 0.75, "self_s": 0.75, "count": 75.0}
        )
        assert totals["unit"]["self_s"] == pytest.approx((3.0 + 1.5) / 2)

    def test_wrap_counts_and_restores(self):
        module = types.SimpleNamespace(
            root=lambda f, lo, hi: f(lo) + f(hi),
            link=lambda x: x,
        )
        original = module.root
        tracer = spans.Tracer()
        tracer.wrap(module, "root", "root", callback_arg=0)
        tracer.wrap(module, "link", "link", count=lambda args, result: len(args[0]))
        assert module.root(lambda x: module.link([x] * 3)[0], 1, 2) == 3
        names = [tracer.names[i] for i in tracer.name]
        assert names == ["root", "link", "link"]
        assert list(tracer.count) == [2, 3, 3]
        assert list(tracer.parent) == [-1, 0, 0]
        tracer.uninstall()
        assert module.root is original


class TestChecks:
    def test_reference_table_passes_and_rejects_off_cell(self):
        rows = dict(checks.REFERENCE_TABLE)
        assert checks.check_reference_table(rows) == []
        mean, auc, functional = rows["FJS"]
        rows["FJS"] = (mean, auc + 0.002, functional)
        assert len(checks.check_reference_table(rows)) == 1
        rows["FJS"] = (mean, auc + 0.001, functional)
        assert checks.check_reference_table(rows) == []
        del rows["FJS"]
        assert len(checks.check_reference_table(rows)) == 1

    def test_contract_rejects_perturbed_results(self):
        ok = dict(converged=True, mean=0.05, auc=0.8, q=0.05, source_auc=0.8,
                  tol_mean=1e-9, tol_auc=1e-6)
        assert checks.check_contract("two_param_qmm", **ok) == []
        assert checks.check_contract("two_param_qmm", **{**ok, "mean": 0.05 + 2e-9})
        assert checks.check_contract("platt", **{**ok, "auc": 0.8 + 2e-6})
        assert checks.check_contract("fjs", **{**ok, "converged": False})
        # not mean-matching and not AUC-matching by design
        assert checks.check_contract("label_shift", **{**ok, "mean": 0.06, "auc": 0.9}) == []
        assert checks.check_contract("capped_scaling", **{**ok, "auc": 0.95}) == []

    def test_identical_rejects_changed_digest(self):
        first = {"table.csv": "a", "curves.csv": "b"}
        assert checks.check_identical(first, dict(first)) == []
        assert len(checks.check_identical(first, {**first, "curves.csv": "c"})) == 1
        assert len(checks.check_identical(first, {"table.csv": "a"})) == 1

    def test_implied_auc_matches_pairwise_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            probs = rng.uniform(0.1, 1.0, n)
            probs /= probs.sum()
            values = rng.choice([0.1, 0.3, 0.5, 0.7], n)  # ties on purpose
            hit, miss = probs * values, probs * (1.0 - values)
            wins = sum(hit[i] * miss[j] * (1.0 if values[i] > values[j] else
                                           0.5 if values[i] == values[j] else 0.0)
                       for i in range(n) for j in range(n))
            pbar = hit.sum()
            assert checks.implied_auc(probs, values) == pytest.approx(
                wins / (pbar * (1.0 - pbar)), abs=1e-12
            )

    def test_parse_table_csv(self):
        text = "method,mean_probs,auc,mean_functional\nSource,0.01,0.8,0.08\n"
        assert checks.parse_table_csv(text) == {"Source": (0.01, 0.8, 0.08)}
        with pytest.raises(ValueError):
            checks.parse_table_csv("label,a,b,c\n")


class TestCurvesCheck:
    """The CLI output check on real worked-example outputs, then perturbed."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        import recal.cli
        import recal.scenario

        out = tmp_path_factory.mktemp("out")
        path = recal.scenario.example_scenario_path()
        assert recal.cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        case = run._case("worked_example", None, recal.scenario.worked_example_scenario(), path)
        files = {name: (out / name).read_text() for name in run.OUTPUT_FILES}
        return case, files

    @staticmethod
    def failures(case, files, tmp_path):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        runner = run.Runner(run.WORKLOADS["example_cli"], run.Inputs([case], 0.0), None)
        return runner._check_cli_outputs(0, case, tmp_path)

    @staticmethod
    def scale_row(text, series, k, factor):
        """Scale the value of row k (0-based) of ``series`` in curves.csv."""
        lines = text.splitlines(keepends=True)
        i = [i for i, line in enumerate(lines) if line.startswith(series + ",")][k]
        name, support, value = lines[i].rstrip("\n").split(",")
        lines[i] = f"{name},{support},{float(value) * factor:.12g}\n"
        return "".join(lines)

    def test_true_outputs_pass(self, outputs, tmp_path):
        case, files = outputs
        assert self.failures(case, files, tmp_path) == []

    @pytest.mark.parametrize("series", ["posterior_fjs", "posterior_two_param_qmm"])
    def test_posterior_off_the_mean_is_rejected(self, outputs, tmp_path, series):
        case, files = outputs
        curves = self.scale_row(files["curves.csv"], series, 8, 1 + 1e-6)
        got = self.failures(case, {**files, "curves.csv": curves}, tmp_path)
        assert any("|mean - q|" in f for f in got), got

    def test_changed_input_series_is_rejected(self, outputs, tmp_path):
        case, files = outputs
        curves = self.scale_row(files["curves.csv"], "target_pmf", 3, 1 + 1e-8)
        got = self.failures(case, {**files, "curves.csv": curves}, tmp_path)
        assert got == ["curves.csv: target_pmf differs from the scenario input"]

    def test_dropped_or_reordered_rows_are_rejected(self, outputs, tmp_path):
        case, files = outputs
        lines = files["curves.csv"].splitlines(keepends=True)
        dropped = "".join(line for line in lines if not line.startswith("posterior_platt,"))
        truncated = "".join(lines[:-1])
        swapped = lines[:]
        swapped[2], swapped[3] = swapped[3], swapped[2]
        for curves in (dropped, truncated, "".join(swapped)):
            assert self.failures(case, {**files, "curves.csv": curves}, tmp_path)

    def test_split_series_is_unreadable(self):
        text = "series,support,value\na,0,1\nb,0,1\na,1,1\n"
        with pytest.raises(ValueError):
            checks.parse_curves_csv(text)


def test_setup_is_scaled_by_the_reference_import():
    import calibration

    got = run.scaled_setup_s([0.2, 0.4, 0.3], [0.6, 0.3, 0.9])
    assert got == pytest.approx(0.3 / 0.6 * calibration.REFERENCE_IMPORT_S)


class TestTail:
    def test_few_samples_fall_back_to_maximum(self):
        assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)

    def test_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 21)]  # 1..20
        value, pct, n = run.tail(samples)
        assert (value, pct, n) == (10.0, 50.0, 20)
        assert sum(s > value for s in samples) == 10


def test_calibrated_ratio_uses_the_preceding_reference_time():
    r = run.Run(unit_s=[1.0, 3.0, 2.0], cal_s=[0.5, 1.0, 0.25])
    assert run.ratios(r, range(3)) == [2.0, 3.0, 8.0]
    assert run.ratios(r, [1]) == [3.0]
