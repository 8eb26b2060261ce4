import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import expit

from recal import (
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    bisect_root,
    class_conditionals,
    example_scenario_path,
    worked_example_scenario,
)
from recal.dist_core import MAX_TRIALS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(code: str, **env: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports recal
    from ``src/``, with ``env`` added to its environment."""
    env = {**os.environ, **env, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


# with CI set (as CI services do), Hypothesis draws the same examples on every
# run and prints a reproduction blob for each failure, so a failure seen in CI
# reproduces locally with CI=1
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# reference results for the bundled worked example:
# label -> (mean_probs, auc, mean_functional), reported at 3 decimals
REFERENCE_TABLE = {
    "Source": (0.010, 0.802, 0.084),
    "Capped scaling": (0.050, 0.950, 0.132),
    "Label shift": (0.060, 0.930, 0.160),
    "FJS": (0.050, 0.932, 0.142),
    "Platt scaling": (0.050, 0.802, 0.179),
    "ROC QMM": (0.049, 0.799, 0.191),
    "2-param QMM": (0.050, 0.802, 0.191),
    "Logistic CSPD": (0.050, 0.803, 0.192),
    "Normal CSPD": (0.050, 0.802, 0.192),
}

# 3-decimal rounding headroom per table cell
CELL_TOL = 1.5e-3


def random_dist(rng, n, support=None, min_prob=0.05):
    if support is None:
        support = np.arange(n, dtype=float)
    probs = rng.uniform(min_prob, 1.0, n)
    probs = probs / probs.sum()
    return DiscreteScoreDist(support, probs)


def random_values(rng, n, lo=0.02, hi=0.98):
    return rng.uniform(lo, hi, n)


def random_increasing_values(rng, n, lo=0.02, hi=0.98):
    values = np.sort(rng.uniform(lo, hi, n))
    while np.unique(values).size != n:
        values = np.sort(rng.uniform(lo, hi, n))
    return values


def random_source(rng, n):
    """Source model with strictly increasing interior posterior values."""
    dist = random_dist(rng, n)
    curve = PosteriorCurve(dist.support, random_increasing_values(rng, n))
    prior = float(np.dot(dist.probs, curve.values))
    return SourceModel(dist, curve, prior)


def random_target(rng, src, q=None):
    """Target over the source support with independent feature weights."""
    dist = random_dist(rng, src.support.size, support=src.support)
    if q is None:
        q = float(rng.uniform(0.02, 0.2))
    return TargetSpec(dist, q)


def mixture_target(src, q):
    """Target whose features are the q-weighted blend of the source
    class-conditional feature distributions."""
    cc = class_conditionals(src.feature_dist, src.posterior)
    probs = q * cc.dist1.probs + (1.0 - q) * cc.dist0.probs
    return TargetSpec(DiscreteScoreDist(src.support, probs), q)


# scenario keys holding a count that sizes an array, the target feature type
# they are set under, and the count's bounds
COUNT_KEYS = [
    ("source.class0.trials", "vasicek_mixture", 1, MAX_TRIALS),
    ("source.class1.trials", "vasicek_mixture", 1, MAX_TRIALS),
    ("target.feature.trials", "binomial", 1, MAX_TRIALS),
    ("target.feature.trials", "vasicek_mixture", 1, MAX_TRIALS),
]


def example_with_count(key, kind, value):
    """The worked-example scenario dict with the target feature of ``kind``
    and ``value`` set at the dotted ``key``."""
    obj = json.loads(Path(example_scenario_path()).read_text())
    if kind == "binomial":
        obj["target"]["feature"] = {"type": "binomial", "trials": 16, "success_prob": 0.3}
    *parents, leaf = key.split(".")
    node = obj
    for part in parents:
        node = node[part]
    node[leaf] = value
    return obj


@pytest.fixture(scope="session")
def example_scenario():
    return worked_example_scenario()


# a 256-trial class-conditional source (success 0.4 vs 0.55, prior 0.01)
# with a 256-trial binomial target (success 0.3, q = 0.05): the target's
# adjusted CDF stalls just below 1 in the upper tail, and the source AUC lies
# above what the two-parameter transform attains
SATURATED_BINOMIAL_SCENARIO = {
    "source": {
        "class0": {"trials": 256, "success_prob": 0.4},
        "class1": {"trials": 256, "success_prob": 0.55},
        "prior": 0.01,
    },
    "target": {
        "feature": {"type": "binomial", "trials": 256, "success_prob": 0.3},
        "prior": 0.05,
    },
    "methods": "all",
    "functional": "sqrt",
}


# a 5-point explicit source and a target whose first feature point has zero
# mass: the target's adjusted CDF is exactly 0 there, where its probit is
# not finite
ZERO_END_MASS_SCENARIO = {
    "source": {
        "support": [0.0, 1.0, 2.0, 3.0, 4.0],
        "probs": [0.2, 0.2, 0.2, 0.2, 0.2],
        "posterior": [0.05, 0.1, 0.2, 0.3, 0.4],
    },
    "target": {
        "feature": {
            "type": "explicit",
            "support": [0.0, 1.0, 2.0, 3.0, 4.0],
            "probs": [0.0, 0.25, 0.25, 0.25, 0.25],
        },
        "prior": 0.2,
    },
    "methods": "all",
    "functional": "sqrt",
}


def explicit_scenario(posterior, source_probs, target_probs, q):
    """An explicit scenario on the support [0, 1, ..., n - 1]."""
    support = [float(i) for i in range(len(posterior))]
    return {
        "source": {"support": support, "probs": source_probs, "posterior": posterior},
        "target": {
            "feature": {"type": "explicit", "support": support, "probs": target_probs},
            "prior": q,
        },
        "methods": "all",
        "functional": "sqrt",
    }


def three_point_scenario(posterior, target_probs, q):
    """An explicit scenario on the support [0, 1, 2] with source probs
    [0.5, 0.3, 0.2]."""
    return explicit_scenario(posterior, [0.5, 0.3, 0.2], target_probs, q)


def far_root_scenario(q):
    """Capped scaling's root lies far above its start t0 = q / sum(w eta):
    t ~ 2.93e5 from t0 ~ 40 at q = 0.3, and t ~ 505 and ~ 1,010 from
    t0 ~ 1.4 at q = 0.0105 and 0.011."""
    return three_point_scenario([1e-6, 0.5, 1.0], [0.99, 0.005, 0.005], q)


# the capped mean never exceeds the target mass 0.1 over the points with
# eta > 0, so no scale reaches q = 0.3
UNATTAINABLE_Q_SCENARIO = three_point_scenario([0.0, 0.5, 1.0], [0.9, 0.05, 0.05], 0.3)


# masses k / 151 whose dot with a posterior of ones is 0.9999999999999999,
# while the merged posterior mean the AUC takes is exactly 1
_MASSES_ROUNDING_BELOW_1 = [
    k / 151 for k in (16, 0, 0, 16, 0, 32, 16, 0, 0, 16, 0, 15, 0, 0, 0, 24, 16)
]

# inputs on which a method or fjs_bounds let a RuntimeWarning or a
# ZeroDivisionError out, or raised an error that did not name it:
# id -> (method, scenario)
METHOD_REPROS = {
    # fjs_bounds rounded to (1.0, 0.9999999999999999) around the root rho = 1
    "fjs_constant_posterior": ("fjs", explicit_scenario([0.01], [1.0], [1.0], 0.3)),
    # 1 / odds overflowed in fjs_bounds
    "fjs_subnormal_posterior": (
        "fjs", explicit_scenario([1e-320, 0.5, 0.9], [1 / 3] * 3, [1 / 3] * 3, 0.3)
    ),
    # 1 / odds overflowed where the target has no mass, and 0 * inf made the
    # upper bound NaN; the root lies below the float range
    "fjs_overflow_at_a_zero_mass": (
        "fjs",
        explicit_scenario(
            [1e-317, 1e-312, 0.999999999999995], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 1e-10
        ),
    ),
    # both FJS bounds underflowed to 0, where 1 / rho divides by zero; the
    # root, ~1e-324, lies below the float range
    "fjs_bounds_underflow": (
        "fjs", explicit_scenario([1e-308, 1.0 - 2.0**-53], [1.0, 0.0], [0.0, 1.0], 0.3)
    ),
    # eta / (1 - eta) divided by zero in fjs_bounds at a posterior of 1,
    # which fjs itself refuses
    "fjs_bounds_posterior_at_1": (
        "fjs", three_point_scenario([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.5)
    ),
    # the search stops within tol_mean on an all-zero curve, whose AUC is undefined
    "capped_scaling_all_zero_curve": (
        "capped_scaling", explicit_scenario([0.0, 0.4], [0.5, 0.5], [1.0, 0.0], 1e-12)
    ),
    # q lies above the reachable 0.1, and the walk doubled t past the float range
    "capped_scaling_walk_past_the_float_range": (
        "capped_scaling", explicit_scenario([0.0, 8e-301], [0.5, 0.5], [0.9, 0.1], 0.5)
    ),
    # q / p overflowed, and the curve was NaN; with no q / p formed it is [0.3]
    "label_shift_subnormal_prior": ("label_shift", explicit_scenario([1e-320], [1.0], [1.0], 0.3)),
    # a probe's curve has a subnormal mean, and its AUC gradient overflowed
    "normal_cspd_subnormal_curve_mean": (
        "normal_cspd", explicit_scenario([1e-317, 0.99999], [0.1, 0.9], [1.0, 0.0], 1e-11)
    ),
    # the source implied AUC raised a DegenerateClassError that named no method
    "platt_source_mean_rounds_to_1": (
        "platt",
        explicit_scenario([1.0] * 17, _MASSES_ROUNDING_BELOW_1, _MASSES_ROUNDING_BELOW_1, 0.3),
    ),
}


def logistic_scenario(s, slope, prior, shift, scale, q):
    """Source features N(0, 1) over the support s with the posterior
    expit(slope * s + b), b chosen for the source prior, and target features
    N(shift, scale^2) with prior q."""
    src_probs = np.exp(-0.5 * s**2)
    src_probs /= src_probs.sum()
    intercept = bisect_root(
        lambda b: float(np.dot(src_probs, expit(slope * s + b))) - prior, -30.0, 30.0, 1e-14
    )
    posterior = expit(slope * s + intercept)
    src = SourceModel(
        DiscreteScoreDist(s, src_probs),
        PosteriorCurve(s, posterior),
        float(np.dot(src_probs, posterior)),
    )
    tgt_probs = np.exp(-0.5 * ((s - shift) / scale) ** 2)
    tgt_probs /= tgt_probs.sum()
    return src, TargetSpec(DiscreteScoreDist(s, tgt_probs), q)


def saturated_tail_scenario(n=4097):
    """Support [-4, 4], a logistic source posterior (slope 1.237, prior
    0.0686) and a narrow target (shift -0.459, scale 0.704, q 0.2496): the
    class-0 CDF refreshed from a recalibrated posterior rounds to 1 in the
    upper tail, where only its two-sided probit stays finite. A one-sided
    probit failed there at n = 65,537 and already at n = 4,097."""
    return logistic_scenario(np.linspace(-4.0, 4.0, n), 1.237, 0.0686, -0.459, 0.704, 0.2496)
