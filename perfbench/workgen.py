"""Seeded generator of synthetic explicit-support scenarios.

Uses numpy only, never ``recal``: the program under test receives the
generated scenario files or dicts and nothing else. The same seed always
gives the same parameters and byte-identical JSON.

Every scenario shares one shape:

* support: n equally spaced scores on [-3, 3];
* source features: a standard Gaussian shape over the support;
* source posterior: expit(slope * s + intercept), the intercept solved so
  the posterior mean is the source prior;
* target features: a Gaussian shape with a shift and a scale;
* target prior q.

The seed does not draw a geometry from a wide box. It jitters each of a
fixed set of geometries by a few percent, so every seed exercises the same
solver paths at nearly the same cost, and run-to-run spread measures the
program rather than a different workload mix.
"""

from __future__ import annotations

import json

import numpy as np

SUPPORT_HALF_WIDTH = 3.0
JITTER = 0.03  # relative, per parameter

PARAM_NAMES = ("slope", "source_prior", "target_shift", "target_scale", "q")

# Geometries for the small batch. Target scales alternate below and above 1,
# so the CSPD slope brackets expand upward on even and downward on odd rows.
SMALL_GEOMETRIES = (
    (0.7, 0.05, -0.2, 0.88, 0.05),
    (1.0, 0.10, 0.1, 1.20, 0.20),
    (1.5, 0.15, 0.2, 0.90, 0.10),
    (0.8, 0.03, -0.1, 1.10, 0.25),
    (1.2, 0.08, 0.25, 0.92, 0.04),
    (1.4, 0.18, -0.25, 1.25, 0.12),
    (1.0, 0.12, 0.05, 0.86, 0.30),
)
LARGE_GEOMETRY = (1.2, 0.10, 0.15, 0.90, 0.15)


def _expit(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _gaussian_pmf(s: np.ndarray, shift: float, scale: float) -> np.ndarray:
    w = np.exp(-0.5 * ((s - shift) / scale) ** 2)
    return w / w.sum()


def _intercept_for_prior(probs: np.ndarray, s: np.ndarray, slope: float, prior: float) -> float:
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.dot(probs, _expit(slope * s + mid))) < prior:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def jittered(geometry: tuple, seed: int, index: int) -> dict:
    """One geometry with each parameter scaled by a seeded factor in 1 ± JITTER."""
    rng = np.random.default_rng([seed, index])
    factors = rng.uniform(1.0 - JITTER, 1.0 + JITTER, len(PARAM_NAMES))
    return {name: float(v * f) for name, v, f in zip(PARAM_NAMES, geometry, factors)}


def small_batch_params(seed: int) -> list[dict]:
    return [jittered(g, seed, i) for i, g in enumerate(SMALL_GEOMETRIES)]


def large_params(seed: int) -> dict:
    return jittered(LARGE_GEOMETRY, seed, len(SMALL_GEOMETRIES))


def scenario_dict(n: int, params: dict) -> dict:
    """Explicit-support scenario in the schema ``recal.scenario`` parses."""
    s = np.linspace(-SUPPORT_HALF_WIDTH, SUPPORT_HALF_WIDTH, n)
    src_probs = _gaussian_pmf(s, 0.0, 1.0)
    intercept = _intercept_for_prior(src_probs, s, params["slope"], params["source_prior"])
    posterior = _expit(params["slope"] * s + intercept)
    tgt_probs = _gaussian_pmf(s, params["target_shift"], params["target_scale"])
    return {
        "source": {
            "support": s.tolist(),
            "probs": src_probs.tolist(),
            "posterior": posterior.tolist(),
        },
        "target": {
            "feature": {"type": "explicit", "support": s.tolist(), "probs": tgt_probs.tolist()},
            "prior": params["q"],
        },
        "methods": "all",
        "functional": "sqrt",
    }


def scenario_json(scenario: dict) -> str:
    return json.dumps(scenario) + "\n"
