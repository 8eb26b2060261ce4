import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recal import (
    MethodId,
    RecalError,
    ScenarioError,
    SolverSettings,
    capped_scaling,
    example_scenario_path,
    parse_scenario,
    worked_example_scenario,
    run_methods,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from recal.scenario import _vector
from conftest import COUNT_KEYS, example_with_count

TOO_BIG = 10**400  # a JSON integer past the float range


def minimal_dict(**overrides):
    base = {
        "source": {
            "support": [0.0, 1.0],
            "probs": [0.5, 0.5],
            "posterior": [0.1, 0.2],
        },
        "target": {
            "feature": {"type": "explicit", "support": [0.0, 1.0], "probs": [0.5, 0.5]},
            "prior": 0.3,
        },
        "methods": ["capped_scaling"],
        "functional": "sqrt",
    }
    base.update(overrides)
    return base


class TestParseScenario:
    def test_bundled_fixture_equals_programmatic_example(self):
        parsed = parse_scenario(example_scenario_path())
        built = worked_example_scenario()
        np.testing.assert_allclose(
            parsed.source.feature_dist.probs, built.source.feature_dist.probs, atol=1e-15
        )
        np.testing.assert_allclose(
            parsed.source.posterior.values, built.source.posterior.values, atol=1e-15
        )
        np.testing.assert_allclose(
            parsed.target.feature_dist.probs, built.target.feature_dist.probs, atol=1e-15
        )
        assert parsed.source.prior == built.source.prior == 0.01
        assert parsed.target.prior == built.target.prior == 0.05
        assert parsed.methods == built.methods
        assert parsed.functional.id == "sqrt"

    def test_fixture_is_a_17_point_model(self):
        scenario = parse_scenario(example_scenario_path())
        assert scenario.source.feature_dist.n == 17
        assert len(scenario.methods) == 8

    def test_zero_prior_names_the_key(self, tmp_path):
        obj = minimal_dict()
        obj["target"]["prior"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ScenarioError, match="target.prior"):
            parse_scenario(path)

    def test_missing_key_named(self):
        obj = minimal_dict()
        del obj["target"]
        with pytest.raises(ScenarioError, match="missing key 'target'"):
            scenario_from_dict(obj)

    def test_extra_key_named(self):
        obj = minimal_dict(extra_field=1)
        with pytest.raises(ScenarioError, match="extra_field"):
            scenario_from_dict(obj)

    def test_unknown_method_named(self):
        obj = minimal_dict(methods=["capped_scaling", "mystery"])
        with pytest.raises(ScenarioError, match=r"methods\[1\]"):
            scenario_from_dict(obj)

    def test_duplicate_method_rejected(self):
        obj = minimal_dict(methods=["fjs", "fjs"])
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_dict(obj)

    def test_unnormalized_pmf_rejected(self):
        obj = minimal_dict()
        obj["source"]["probs"] = [0.5, 0.6]
        with pytest.raises(ScenarioError, match="source"):
            scenario_from_dict(obj)

    def test_posterior_out_of_range_rejected(self):
        obj = minimal_dict()
        obj["source"]["posterior"] = [0.1, 1.2]
        with pytest.raises(ScenarioError, match="source"):
            scenario_from_dict(obj)

    def test_inconsistent_explicit_prior_rejected(self):
        obj = minimal_dict()
        obj["source"]["prior"] = 0.4  # true mean is 0.15
        with pytest.raises(ScenarioError, match="source.prior"):
            scenario_from_dict(obj)

    def test_consistent_explicit_prior_accepted(self):
        obj = minimal_dict()
        obj["source"]["prior"] = 0.15000000000000002
        scenario = scenario_from_dict(obj)
        assert abs(scenario.source.prior - 0.15) < 1e-12

    def test_support_mismatch_rejected(self):
        obj = minimal_dict()
        obj["target"]["feature"]["support"] = [0.0, 2.0]
        with pytest.raises(ScenarioError, match="target.feature"):
            scenario_from_dict(obj)

    def test_binomial_trials_mismatch_rejected(self):
        obj = minimal_dict()
        obj["source"] = {
            "class0": {"trials": 4, "success_prob": 0.3},
            "class1": {"trials": 5, "success_prob": 0.6},
            "prior": 0.1,
        }
        with pytest.raises(ScenarioError, match="trials"):
            scenario_from_dict(obj)

    def test_vasicek_correlation_bounds_named(self):
        obj = minimal_dict()
        obj["source"] = {
            "class0": {"trials": 4, "success_prob": 0.3},
            "class1": {"trials": 4, "success_prob": 0.6},
            "prior": 0.1,
        }
        obj["target"] = {
            "feature": {
                "type": "vasicek_mixture",
                "trials": 4,
                "mean": 0.4,
                "correlation": 1.0,
            },
            "prior": 0.2,
        }
        with pytest.raises(ScenarioError, match="target.feature.correlation"):
            scenario_from_dict(obj)

    def test_vasicek_quadrature_missing_the_mean_named(self, tmp_path):
        obj = json.loads(example_scenario_path().read_text(encoding="utf-8"))
        obj["target"]["feature"]["correlation"] = 0.99
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ScenarioError, match="^target.feature: 128 quadrature nodes give"):
            parse_scenario(path)

    def test_methods_all_expands_canonically(self):
        obj = minimal_dict(methods="all")
        scenario = scenario_from_dict(obj)
        assert len(scenario.methods) == 8

    def test_solver_overrides(self):
        obj = minimal_dict(solver={"tol_mean": 1e-6, "max_iter": 50})
        scenario = scenario_from_dict(obj)
        assert scenario.settings.tol_mean == 1e-6
        assert scenario.settings.max_iter == 50
        assert scenario.settings.tol_auc == 1e-6  # untouched default

    def test_bad_solver_key_named(self):
        obj = minimal_dict(solver={"tol_means": 1e-6})
        with pytest.raises(ScenarioError, match="tol_means"):
            scenario_from_dict(obj)

    @pytest.mark.parametrize(
        "key, literal", [("tol_mean", "1e400"), ("tol_auc", "NaN"), ("tol_mean", "Infinity")]
    )
    def test_non_finite_solver_tolerance_named(self, tmp_path, key, literal):
        # the JSON reader turns 1e400 into inf and accepts NaN and Infinity
        text = json.dumps(minimal_dict(solver={key: "TOL"})).replace('"TOL"', literal)
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match=f"solver.{key}"):
            parse_scenario(path)

    def test_class_pmf_underflow_named_without_warning(self):
        obj = minimal_dict()
        obj["source"] = {
            "class0": {"trials": 1100, "success_prob": 0.05},
            "class1": {"trials": 1100, "success_prob": 0.051},
            "prior": 0.1,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="class pmfs underflow"):
                scenario_from_dict(obj)

    def test_oversized_support_integer_named(self):
        obj = minimal_dict()
        obj["source"]["support"] = [0, TOO_BIG]
        with pytest.raises(ScenarioError, match="source.support: number is too large"):
            scenario_from_dict(obj)

    def test_oversized_prior_integer_named(self):
        obj = minimal_dict()
        obj["target"]["prior"] = TOO_BIG
        with pytest.raises(ScenarioError, match="target.prior: number is too large"):
            scenario_from_dict(obj)

    def test_oversized_tolerance_integer_named(self):
        obj = minimal_dict(solver={"tol_mean": TOO_BIG})
        with pytest.raises(ScenarioError, match="solver.tol_mean: number is too large"):
            scenario_from_dict(obj)

    @pytest.mark.parametrize(
        "key, kind, lo, hi", COUNT_KEYS, ids=[f"{k}-{t}" for k, t, _, _ in COUNT_KEYS]
    )
    @pytest.mark.parametrize("past", ["bound_plus_1", "400_digits"])
    def test_oversized_count_named(self, key, kind, lo, hi, past):
        value = hi + 1 if past == "bound_plus_1" else TOO_BIG
        obj = example_with_count(key, kind, value)
        message = rf"^{key}: must be an integer in \[{lo}, {hi}\]$"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(obj)

    def test_tabulated_functional(self):
        obj = minimal_dict(
            functional={"id": "tabulated", "grid": [0.0, 0.5, 1.0], "values": [0.0, 0.4, 0.5]}
        )
        scenario = scenario_from_dict(obj)
        assert scenario.functional.id == "tabulated"

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(tmp_path / "nope.json")


def vector_reference_accepts(value):
    # the element-by-element rule
    return (
        isinstance(value, list)
        and bool(value)
        and all(not isinstance(x, bool) and isinstance(x, (int, float)) for x in value)
    )


class TestVectorRules:
    @pytest.mark.parametrize(
        "value",
        [[0.5, True], ["0.5"], [None], [[0.5]], [], 0.5, "0.5", {"0": 0.5}],
        ids=["bool", "string", "null", "nested", "empty", "number", "text", "object"],
    )
    def test_rejected_and_key_named(self, value):
        obj = minimal_dict()
        obj["source"]["support"] = value
        with pytest.raises(
            ScenarioError, match="source.support: expected a non-empty array of numbers"
        ):
            scenario_from_dict(obj)

    def test_numpy_float64_elements_accepted(self):
        obj = minimal_dict()
        for key in ("support", "probs", "posterior"):
            obj["source"][key] = [np.float64(x) for x in obj["source"][key]]
        scenario = scenario_from_dict(obj)
        assert scenario.source.posterior.values.tolist() == [0.1, 0.2]

    def test_plain_int_elements_accepted(self):
        obj = minimal_dict()
        obj["source"]["support"] = [0, 1]
        obj["target"]["feature"]["support"] = [0, 1]
        scenario = scenario_from_dict(obj)
        assert scenario.source.support.dtype == np.float64
        assert scenario.source.support.tolist() == [0.0, 1.0]

    @given(
        st.lists(
            st.one_of(
                st.integers(-5, 5),
                st.floats(allow_nan=False),
                st.booleans(),
                st.none(),
                st.text(max_size=2),
                st.floats(-1, 1).map(np.float64),
                st.just([0.5]),
            ),
            max_size=5,
        )
    )
    def test_accepts_exactly_what_the_elementwise_rule_accepts(self, value):
        obj = {"v": value}
        if vector_reference_accepts(value):
            assert _vector(obj, "x", "v").tolist() == [float(x) for x in value]
        else:
            with pytest.raises(ScenarioError, match="x.v: expected a non-empty array"):
                _vector(obj, "x", "v")


class TestRoundTrip:
    def test_write_then_parse_is_equivalent(self, tmp_path, example_scenario):
        path = tmp_path / "roundtrip.json"
        write_scenario(example_scenario, path)
        back = parse_scenario(path)
        np.testing.assert_array_equal(
            back.source.feature_dist.probs, example_scenario.source.feature_dist.probs
        )
        np.testing.assert_array_equal(
            back.source.posterior.values, example_scenario.source.posterior.values
        )
        np.testing.assert_array_equal(
            back.target.feature_dist.probs, example_scenario.target.feature_dist.probs
        )
        assert back.source.prior == example_scenario.source.prior
        assert back.target.prior == example_scenario.target.prior
        assert back.methods == example_scenario.methods
        assert back.settings == example_scenario.settings

    def test_setting_without_a_file_key_is_refused_not_dropped(self, example_scenario):
        tight = replace(example_scenario, settings=SolverSettings(tol_fixed_point=1e-14))
        refusal = "^solver.tol_fixed_point: scenario files hold only the default, not 1e-14$"
        with pytest.raises(RecalError, match=refusal):
            scenario_to_dict(tight)

    def test_dict_form_lists_explicit_source(self, example_scenario):
        obj = scenario_to_dict(example_scenario)
        assert set(obj["source"]) == {"support", "probs", "posterior", "prior"}
        assert obj["target"]["feature"]["type"] == "explicit"


class TestScenarioExecution:
    def test_two_point_capped_scaling_matches_hand_computation(self):
        """Hand solve of the 2-point toy: scaling the posterior (0.1, 0.2) by
        t under equal weights gives mean 0.15 t = 0.3, so t = 2."""
        scenario = scenario_from_dict(minimal_dict())
        results = run_methods(scenario)
        assert len(results) == 1
        result = results[0]
        assert result.method is MethodId.CAPPED_SCALING
        np.testing.assert_allclose(result.posterior.values, [0.2, 0.4], atol=1e-7)

    def test_run_methods_in_canonical_order(self, example_scenario):
        results = run_methods(example_scenario)
        labels = [r.method for r in results]
        assert labels == [
            MethodId.CAPPED_SCALING,
            MethodId.LABEL_SHIFT,
            MethodId.FJS,
            MethodId.PLATT,
            MethodId.ROC_QMM,
            MethodId.TWO_PARAM_QMM,
            MethodId.LOGISTIC_CSPD,
            MethodId.NORMAL_CSPD,
        ]

    def test_capped_scaling_direct_equals_scenario_route(self):
        scenario = scenario_from_dict(minimal_dict())
        direct = capped_scaling(scenario.source, scenario.target)
        via_run = run_methods(scenario)[0]
        np.testing.assert_array_equal(direct.posterior.values, via_run.posterior.values)
