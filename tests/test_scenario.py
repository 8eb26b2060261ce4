import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recal import (
    FunctionalSpec,
    MethodId,
    RecalError,
    Scenario,
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
from conftest import COUNT_KEYS, example_with_count, saturated_tail_scenario

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

    @pytest.mark.parametrize(
        "key, value, expected",
        [("max_iter", 1.5, "an integer"), ("tol_mean", "1e-9", "a number")],
    )
    def test_solver_setting_of_the_wrong_type_named(self, key, value, expected):
        obj = minimal_dict(solver={key: value})
        with pytest.raises(ScenarioError, match=f"^solver.{key}: expected {expected}$"):
            scenario_from_dict(obj)

    def test_unknown_target_feature_type_named(self):
        obj = minimal_dict()
        obj["target"]["feature"]["type"] = "lognormal"
        with pytest.raises(ScenarioError, match="^target.feature.type: unknown type 'lognormal'"):
            scenario_from_dict(obj)

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

    def test_file_that_is_not_utf8_reported(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ScenarioError, match="^scenario file is not UTF-8: 'utf-8' codec"):
            parse_scenario(path)

    def test_json_nested_past_the_recursion_limit_reported(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(
            ScenarioError, match="^scenario file nests arrays or objects too deeply to parse$"
        ):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("source", "probs"), [0.5, 0.6], "source: probs must sum to 1 within 1e-12"),
            (
                ("source",),
                {"class0": {"trials": 3}, "class1": {"trials": 3, "success_prob": 0.5},
                 "prior": 0.3},
                "source.class0: missing key 'success_prob'",
            ),
            (
                ("target", "feature", "support"),
                [1.0, 0.0],
                "target.feature: support must be strictly increasing (no duplicates)",
            ),
            (
                ("target", "feature"),
                {"type": "binomial", "trials": 0, "success_prob": 0.5},
                "target.feature.trials: must be an integer in [1, 65536]",
            ),
            (("functional",), "nope", "functional: unknown functional id 'nope'"),
            (
                ("functional",),
                {"id": "tabulated", "grid": [0.0, 1.0], "values": [0.0, 0.4, 0.5]},
                "functional: tabulated functional needs matching grid and values",
            ),
            (
                ("functional",),
                {"id": "tabulated", "grid": "x", "values": [0.0, 0.5]},
                "functional.grid: expected a non-empty array of numbers",
            ),
        ],
    )
    def test_library_errors_carry_the_key_path_once(self, path, value, message):
        """A library error is prefixed with the key path it met; an error
        that names its own key passes through unprefixed."""
        obj = minimal_dict()
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(obj)
        assert str(err.value) == message


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

    def test_float64_array_accepted(self):
        obj = minimal_dict()
        obj["source"]["support"] = np.array([0.0, 1.0])
        assert scenario_from_dict(obj).source.support.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "value",
        [np.array([[0.0, 1.0]]), np.array([0, 1]), np.array([], dtype=float)],
        ids=["2d", "int", "empty"],
    )
    def test_other_arrays_rejected_and_key_named(self, value):
        obj = minimal_dict()
        obj["source"]["support"] = value
        with pytest.raises(
            ScenarioError, match="^source.support: expected a non-empty array of numbers$"
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


# list elements that take different routes through a parse: floats at the
# edges of float64, JSON ints, bools, nested and empty lists, and an int past
# the float range
EDGE_LISTS = st.one_of(
    st.lists(
        st.sampled_from([-0.0, 0.0, 5e-324, 0.5, 1.0, 1e308, 0, 1, 2, True, False, [0.5], [],
                         TOO_BIG]),
        max_size=4,
    ),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
)
# the supports are drawn valid, so that some scenarios parse
SUPPORTS = st.sampled_from([[0.0, 1.0], [-0.0, 1.0], [5e-324, 1e308], [0, 1.0], [0, 1], [-0.0, 1]])
# the vector keys, and keys that hold no array but are handed one here
LIST_SLOTS = (
    ("source", "support"), ("source", "probs"), ("source", "posterior"),
    ("target", "feature", "support"), ("target", "feature", "probs"),
    ("functional", "grid"), ("functional", "values"),
    ("source", "prior"), ("target", "feature", "type"), ("functional", "id"), ("methods",),
)


@st.composite
def scenario_texts(draw):
    obj = minimal_dict(
        functional={"id": "tabulated", "grid": [0.0, 0.5, 1.0], "values": [0.0, 0.4, 0.5]}
    )
    support = draw(SUPPORTS)
    obj["source"]["support"] = list(support)
    obj["target"]["feature"]["support"] = list(support)
    for path in draw(st.lists(st.sampled_from(LIST_SLOTS), unique=True, max_size=3) | st.just([])):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(EDGE_LISTS)
    return json.dumps(obj, indent=draw(st.sampled_from([None, 2])))


def parsed_bits(parse):
    """The bits of every array and number the parse keeps, or its
    ScenarioError's message."""
    try:
        s = parse()
    except ScenarioError as exc:
        return str(exc)
    grids = (s.functional.grid, s.functional.grid_values)
    return (
        s.source.support.tobytes(),
        s.source.feature_dist.probs.tobytes(),
        s.source.posterior.values.tobytes(),
        s.source.prior.hex(),
        s.target.support.tobytes(),
        s.target.feature_dist.probs.tobytes(),
        s.target.prior.hex(),
        s.methods,
        s.functional.id,
        tuple(None if g is None else g.tobytes() for g in grids),
        s.settings,
    )


class TestFileParse:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(scenario_texts())
    def test_file_parse_equals_dict_parse(self, tmp_path, text):
        """parse_scenario turns float lists into arrays as their object
        closes; it keeps the same bits, and refuses with the same message,
        as scenario_from_dict of the file's json.loads."""
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        from_file = parsed_bits(lambda: parse_scenario(path))
        assert from_file == parsed_bits(lambda: scenario_from_dict(json.loads(text)))

    def test_parse_holds_one_objects_float_lists_at_a_time(self, tmp_path):
        """Its tracemalloc peak on a compact 65,537-point file stays within
        2.1 times the file's bytes (~2.05: the text and the source's three
        lists); holding all five arrays as float lists peaked at ~2.6."""
        src, tgt = saturated_tail_scenario(65_537)
        scenario = Scenario(src, tgt, (MethodId.FJS,), FunctionalSpec.sqrt(), SolverSettings())
        path = tmp_path / "large.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)), encoding="utf-8")
        tracemalloc.start()
        try:
            parsed = parse_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * path.stat().st_size
        assert parsed.source.posterior.values.tobytes() == src.posterior.values.tobytes()
        assert parsed.target.feature_dist.probs.tobytes() == tgt.feature_dist.probs.tobytes()


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

    def test_text_longer_than_a_slice_is_written_whole(self, tmp_path):
        """A scenario whose JSON is over 2 MiB is written byte for byte as
        json.dumps renders it, with one trailing LF."""
        src, tgt = saturated_tail_scenario(16_385)
        scenario = Scenario(src, tgt, (MethodId.FJS,), FunctionalSpec.sqrt(), SolverSettings())
        path = tmp_path / "large.json"
        write_scenario(scenario, path)
        text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
        assert len(text) > 2 << 20
        assert path.read_bytes() == text.encode("utf-8")
        np.testing.assert_array_equal(
            parse_scenario(path).target.feature_dist.probs, tgt.feature_dist.probs
        )

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
