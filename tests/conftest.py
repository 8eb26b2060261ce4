import json
import os
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
from recal.dist_core import MAX_QUAD_NODES, MAX_TRIALS

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
    ("target.feature.quad_nodes", "vasicek_mixture", 16, MAX_QUAD_NODES),
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
