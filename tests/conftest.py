import json
from pathlib import Path

import numpy as np
import pytest

from recal import (
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    class_conditionals,
    example_scenario_path,
    worked_example_scenario,
)
from recal.dist_core import MAX_QUAD_NODES, MAX_TRIALS

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
