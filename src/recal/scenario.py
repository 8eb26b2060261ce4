"""Scenario files: JSON schema, strict parsing and the bundled example.

Schema (all keys checked; unknown keys are rejected)::

    {
      "source": {
        "class0": {"trials": int, "success_prob": float},
        "class1": {"trials": int, "success_prob": float},
        "prior": float
      }
      // or explicitly:
      // "source": {"support": [...], "probs": [...], "posterior": [...],
      //            "prior": float (optional, defaults to the posterior mean)}

      "target": {
        "feature": {"type": "binomial", "trials": int, "success_prob": float}
                 | {"type": "vasicek_mixture", "trials": int, "mean": float,
                    "correlation": float, "quad_nodes": int (optional)}
                 | {"type": "explicit", "support": [...], "probs": [...]},
        "prior": float
      },

      "methods": "all" | ["capped_scaling", "label_shift", ...],
      "functional": "sqrt" | {"id": "tabulated", "grid": [...], "values": [...]},
      "solver": {"tol_mean": float, "tol_auc": float, "max_iter": int}  // optional
    }

``solver`` takes :data:`SETTINGS_KEYS`, ``trials`` at most ``dist_core.MAX_TRIALS``,
and ``quad_nodes`` ``dist_core.MIN_QUAD_NODES`` to ``dist_core.MAX_QUAD_NODES``.

With a class-conditional source, the unconditional feature pmf is
prior * f1 + (1 - prior) * f0 and the posterior at each support point is the
Bayes ratio prior * f1 / (prior * f1 + (1 - prior) * f0).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .dist_core import (
    MAX_QUAD_NODES,
    MAX_TRIALS,
    MIN_QUAD_NODES,
    PRIOR_CONSISTENCY_TOL,
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    binomial_dist,
    vasicek_mixture_dist,
)
from .errors import RecalError, ScenarioError
from .eval_report import FunctionalSpec
from .recal_methods import (
    CANONICAL_ORDER, MethodId, RecalResult, _sharing_roc_fixed_point, run_method,
)
from .solvers import DEFAULT_SETTINGS, SolverSettings

# the SolverSettings fields that a scenario's ``solver`` block and the CLI set
SETTINGS_KEYS = ("tol_mean", "tol_auc", "max_iter")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated bundle of source model, target spec, method selection and
    evaluation functional, plus solver settings."""

    source: SourceModel
    target: TargetSpec
    methods: tuple[MethodId, ...]
    functional: FunctionalSpec
    settings: SolverSettings


@contextmanager
def _at(path: str):
    """Re-raise a :class:`RecalError` of the block, other than a
    :class:`ScenarioError`, as ``ScenarioError(f"{path}: {exc}")``."""
    try:
        yield
    except ScenarioError:
        raise
    except RecalError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}: missing key '{key}'")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{path}.{key}: unexpected key")


def _floats(value, where: str):
    """A number, or a list of numbers, as float(s). JSON integers are
    unbounded, so one past the float range is refused here by name."""
    try:
        return np.asarray(value, dtype=float) if isinstance(value, list) else float(value)
    except OverflowError:
        raise ScenarioError(f"{where}: number is too large for a float") from None


def _number(obj: dict, path: str, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number")
    return _floats(value, f"{path}.{key}")


def _integer(obj: dict, path: str, key: str, lo: int, hi: int) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    if not lo <= value <= hi:
        raise ScenarioError(f"{path}.{key}: must be an integer in [{lo}, {hi}]")
    return value


def _open_unit(obj: dict, path: str, key: str) -> float:
    value = _number(obj, path, key)
    if not (0.0 < value < 1.0):
        raise ScenarioError(f"{path}.{key}: must lie strictly inside (0, 1)")
    return value


def _vector(obj: dict, path: str, key: str) -> np.ndarray:
    value = obj[key]
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.size and value.dtype == float:
        return value
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}.{key}: expected a non-empty array of numbers")
    # check each distinct element type once; bool is an int subclass, not a number
    types = set(map(type, value))
    if bool in types or not all(issubclass(t, (int, float)) for t in types):
        raise ScenarioError(f"{path}.{key}: expected a non-empty array of numbers")
    return _floats(value, f"{path}.{key}")


def _binomial_spec(obj: dict, path: str) -> tuple[int, float]:
    _check_keys(obj, path, ("trials", "success_prob"))
    return _integer(obj, path, "trials", 1, MAX_TRIALS), _open_unit(obj, path, "success_prob")


def _parse_source(obj: dict) -> SourceModel:
    if not isinstance(obj, dict):
        raise ScenarioError("source: expected an object")
    with _at("source"):
        if "class0" in obj or "class1" in obj:
            _check_keys(obj, "source", ("class0", "class1", "prior"))
            trials0, sp0 = _binomial_spec(obj["class0"], "source.class0")
            trials1, sp1 = _binomial_spec(obj["class1"], "source.class1")
            if trials0 != trials1:
                raise ScenarioError("source.class1.trials: must match source.class0.trials")
            prior = _open_unit(obj, "source", "prior")
            f0 = binomial_dist(trials0, sp0)
            f1 = binomial_dist(trials1, sp1)
            joint1 = prior * f1.probs
            probs = joint1 + (1.0 - prior) * f0.probs
            underflow = int(np.count_nonzero(probs == 0.0))
            if underflow:
                raise ScenarioError(
                    f"source: both class pmfs underflow to 0 at {underflow} of {probs.size} "
                    "support points, where the posterior is undefined"
                )
            feature = DiscreteScoreDist(f0.support, probs)
            return SourceModel(feature, PosteriorCurve(f0.support, joint1 / probs), prior)
        _check_keys(obj, "source", ("support", "probs", "posterior"), optional=("prior",))
        support = _vector(obj, "source", "support")
        probs = _vector(obj, "source", "probs")
        posterior = _vector(obj, "source", "posterior")
        feature = DiscreteScoreDist(support, probs)
        curve = PosteriorCurve(support, posterior)
        prior = float(np.dot(feature.probs, curve.values))
        if "prior" in obj:
            prior_given = _open_unit(obj, "source", "prior")
            if abs(prior_given - prior) > PRIOR_CONSISTENCY_TOL:
                raise ScenarioError(
                    "source.prior: inconsistent with the posterior mean "
                    f"({prior_given!r} vs {prior!r})"
                )
            prior = prior_given
        return SourceModel(feature, curve, prior)


def _parse_target(obj: dict, source_support: np.ndarray) -> TargetSpec:
    _check_keys(obj, "target", ("feature", "prior"))
    prior = _open_unit(obj, "target", "prior")
    feat = obj["feature"]
    if not isinstance(feat, dict) or "type" not in feat:
        raise ScenarioError("target.feature.type: missing key 'type'")
    kind = feat["type"]
    with _at("target.feature"):
        if kind == "binomial":
            _check_keys(feat, "target.feature", ("type", "trials", "success_prob"))
            dist = binomial_dist(
                _integer(feat, "target.feature", "trials", 1, MAX_TRIALS),
                _open_unit(feat, "target.feature", "success_prob"),
            )
        elif kind == "vasicek_mixture":
            _check_keys(
                feat,
                "target.feature",
                ("type", "trials", "mean", "correlation"),
                optional=("quad_nodes",),
            )
            trials = _integer(feat, "target.feature", "trials", 1, MAX_TRIALS)
            mean = _open_unit(feat, "target.feature", "mean")
            correlation = _open_unit(feat, "target.feature", "correlation")
            nodes = {}  # absent, the generator's default applies
            if "quad_nodes" in feat:
                nodes["quad_nodes"] = _integer(
                    feat, "target.feature", "quad_nodes", MIN_QUAD_NODES, MAX_QUAD_NODES
                )
            dist = vasicek_mixture_dist(trials, mean, correlation, **nodes)
        elif kind == "explicit":
            _check_keys(feat, "target.feature", ("type", "support", "probs"))
            dist = DiscreteScoreDist(
                _vector(feat, "target.feature", "support"),
                _vector(feat, "target.feature", "probs"),
            )
        else:
            raise ScenarioError(f"target.feature.type: unknown type {kind!r}")
    if not np.array_equal(dist.support, source_support):
        raise ScenarioError(
            "target.feature: support must be identical to the source support"
        )
    with _at("target"):
        return TargetSpec(dist, prior)


def _parse_methods(value) -> tuple[MethodId, ...]:
    if value == "all":
        return CANONICAL_ORDER
    if not isinstance(value, list) or not value:
        raise ScenarioError("methods: expected 'all' or a non-empty array of method names")
    out = []
    for i, item in enumerate(value):
        try:
            method = MethodId(item)
        except ValueError:
            raise ScenarioError(f"methods[{i}]: unknown method {item!r}") from None
        if method in out:
            raise ScenarioError(f"methods[{i}]: duplicate method {item!r}")
        out.append(method)
    return tuple(out)


def _parse_functional(value) -> FunctionalSpec:
    if isinstance(value, str):
        with _at("functional"):
            return FunctionalSpec.from_id(value)
    _check_keys(value, "functional", ("id", "grid", "values"))
    if value["id"] != "tabulated":
        raise ScenarioError(f"functional.id: unknown functional id {value['id']!r}")
    grid, values = _vector(value, "functional", "grid"), _vector(value, "functional", "values")
    with _at("functional"):
        return FunctionalSpec.tabulated(grid, values)


def _parse_settings(
    obj: dict | None, base: SolverSettings = DEFAULT_SETTINGS, name=None
) -> SolverSettings:
    """Validate solver settings, from a ``solver`` block or the CLI's
    overrides, and apply them on top of ``base``.

    Tolerances must be positive and finite, ``max_iter`` a positive integer.
    Errors name the setting as ``name(key)``, by default ``solver.<key>``.
    """
    if obj is None:
        return base
    _check_keys(obj, "solver", (), optional=SETTINGS_KEYS)
    name = name or (lambda key: f"solver.{key}")
    changes = {}
    for key, value in obj.items():
        integral = key == "max_iter"
        if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
            expected = "an integer" if integral else "a number"
            raise ScenarioError(f"{name(key)}: expected {expected}")
        if not integral:
            value = _floats(value, name(key))
        if not 0 < value < math.inf:
            rule = "a positive integer" if integral else "positive and finite"
            raise ScenarioError(f"{name(key)}: must be {rule}")
        changes[key] = value
    return replace(base, **changes)


def scenario_from_dict(obj: dict) -> Scenario:
    _check_keys(
        obj, "scenario", ("source", "target", "methods", "functional"), optional=("solver",)
    )
    source = _parse_source(obj["source"])
    target = _parse_target(obj["target"], source.support)
    methods = _parse_methods(obj["methods"])
    functional = _parse_functional(obj["functional"])
    settings = _parse_settings(obj.get("solver"))
    return Scenario(source, target, methods, functional, settings)


# the keys whose value _vector reads: an array of numbers
_VECTOR_KEYS = frozenset({"support", "probs", "posterior", "grid", "values"})


def _float_arrays(obj: dict) -> dict:
    """``json.loads`` object hook: a list of only floats under a
    :data:`_VECTOR_KEYS` key becomes a float64 array as its object closes,
    so at most one object's lists are held as Python floats at a time.
    Any other list, one holding an int or a bool say, stays a list and
    meets the checks of :func:`_vector`."""
    for key in _VECTOR_KEYS.intersection(obj):
        value = obj[key]
        if isinstance(value, list) and set(map(type, value)) == {float}:
            obj[key] = np.array(value, dtype=float)
    return obj


def parse_scenario(path) -> Scenario:
    """Read and fully validate a scenario file; errors name the offending key.
    It accepts and refuses what :func:`scenario_from_dict` of the file's
    ``json.loads`` does, with the same arrays and messages."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=_float_arrays)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError("scenario file nests arrays or objects too deeply to parse") from None
    return scenario_from_dict(obj)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a scenario, the source in explicit form; a solver setting
    with no file key must be at its default, else a :class:`RecalError`."""
    settings = scenario.settings
    for key in (f.name for f in fields(settings) if f.name not in SETTINGS_KEYS):
        value = getattr(settings, key)
        if value != getattr(DEFAULT_SETTINGS, key):
            raise RecalError(f"solver.{key}: scenario files hold only the default, not {value!r}")
    functional: str | dict
    if scenario.functional.id == "sqrt":
        functional = "sqrt"
    else:
        functional = {
            "id": "tabulated",
            "grid": scenario.functional.grid.tolist(),
            "values": scenario.functional.grid_values.tolist(),
        }
    return {
        "source": {
            "support": scenario.source.support.tolist(),
            "probs": scenario.source.feature_dist.probs.tolist(),
            "posterior": scenario.source.posterior.values.tolist(),
            "prior": scenario.source.prior,
        },
        "target": {
            "feature": {
                "type": "explicit",
                "support": scenario.target.support.tolist(),
                "probs": scenario.target.feature_dist.probs.tolist(),
            },
            "prior": scenario.target.prior,
        },
        "methods": [m.value for m in scenario.methods],
        "functional": functional,
        "solver": {key: getattr(settings, key) for key in SETTINGS_KEYS},
    }


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scenario_to_dict(scenario), f, indent=2)
        f.write("\n")


def example_scenario_path() -> Path:
    """Path of the bundled worked-example scenario file."""
    return Path(resources.files("recal").joinpath("data/worked_example.json"))


def worked_example_scenario() -> Scenario:
    """The bundled worked example, parsed from :func:`example_scenario_path`.

    Source: class-conditional binomials with 16 trials and success
    probabilities 0.4 (class 0) and 0.55 (class 1), class-1 prior 0.01.
    Target: binomial with 16 trials whose success probability follows a
    one-factor mixing law with mean 0.3 and correlation 0.3, prior 0.05.
    """
    return parse_scenario(example_scenario_path())


def run_methods(scenario: Scenario) -> list[RecalResult]:
    """Run the selected methods in canonical order. The two QMMs share
    ``roc_qmm``'s class-0 fixed point within this call only, which changes
    no output."""
    order = [m for m in CANONICAL_ORDER if m in scenario.methods]
    with _sharing_roc_fixed_point():
        return [
            run_method(m, scenario.source, scenario.target, scenario.settings) for m in order
        ]
