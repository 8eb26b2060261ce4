"""Class-conditional decompositions and AUC machinery for discrete classifiers.

Two independent AUC routes are kept side by side on purpose:

* ``mann_whitney_auc`` ranks by the support order of a pair of
  class-conditional distributions and sums P[S1 > S0] + P[S1 = S0] / 2
  over all support pairs.
* ``implied_auc`` treats the posterior value itself as the score of an
  auto-calibrated classifier and evaluates a closed-form sum over the
  distribution of those values. That distribution comes from one merge,
  which sorts only values that are not already strictly increasing.

For monotone posterior curves the two agree to float precision; the test
suite leans on that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_core import DiscreteScoreDist, PosteriorCurve, _require_shared_support
from .errors import DegenerateClassError


@dataclass(frozen=True, eq=False)
class ClassConditionals:
    """Score laws given class 1 and class 0, plus the class-1 weight."""

    dist1: DiscreteScoreDist
    dist0: DiscreteScoreDist
    prior: float

    def __post_init__(self):
        _require_shared_support(self.dist1.support, self.dist0.support, "dist1 and dist0")
        if not (0.0 < self.prior < 1.0):
            raise DegenerateClassError("class-1 weight must lie strictly inside (0, 1)")

    def reconstruct(self) -> np.ndarray:
        """Unconditional probabilities implied by the decomposition."""
        return self.prior * self.dist1.probs + (1.0 - self.prior) * self.dist0.probs


def class_conditionals(dist: DiscreteScoreDist, curve: PosteriorCurve) -> ClassConditionals:
    """Split a score distribution into class conditionals via its posterior.

    dist1_i = probs_i * curve_i / pbar and dist0_i = probs_i * (1 - curve_i)
    / (1 - pbar) where pbar is the posterior mean; pbar becomes the prior of
    the decomposition.
    """
    _require_shared_support(dist.support, curve.support, "dist and curve")
    pbar = float(np.dot(dist.probs, curve.values))
    if not (0.0 < pbar < 1.0):
        raise DegenerateClassError(
            f"posterior mean {pbar!r} leaves one class empty; cannot decompose"
        )
    d1 = dist.probs * curve.values / pbar
    d0 = dist.probs * (1.0 - curve.values) / (1.0 - pbar)
    return ClassConditionals(
        DiscreteScoreDist(dist.support, d1),
        DiscreteScoreDist(dist.support, d0),
        pbar,
    )


def mann_whitney_auc(cc: ClassConditionals) -> float:
    """P[S1 > S0] + P[S1 = S0] / 2 for independent draws from dist1, dist0.

    Exact double summation over the finite shared support; ties get half
    weight, never jitter.
    """
    joint = np.outer(cc.dist1.probs, cc.dist0.probs)
    # support strictly increasing, so s_i > s_j iff i > j
    wins = float(np.sum(np.tril(joint, -1)))
    ties = float(np.trace(joint))
    return wins + 0.5 * ties


def merged_value_dist(dist: DiscreteScoreDist, curve: PosteriorCurve) -> DiscreteScoreDist:
    """Distribution of the curve value as a score: sorted, ties merged.

    This is the score law of the auto-calibrated classifier whose output is
    the curve value; its posterior given its own output equals that output.
    The merge is :func:`_merge_by_value`'s, so a strictly increasing curve
    is not sorted.
    """
    _require_shared_support(dist.support, curve.support, "dist and curve")
    values, probs = _merge_by_value(curve.values, dist.probs)
    return DiscreteScoreDist(values, probs)


def _merge_by_value(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` in ascending order, each with its summed mass.

    Strictly increasing ``values`` (one comparison pass) are already merged
    and come back as given, with ``probs + 0.0`` as their mass. Anything
    else is sorted by ``np.unique`` and the mass of tied values is summed in
    input order starting from 0.0, so both paths give the same bits: the
    ``+ 0.0`` turns a -0.0 mass into 0.0 exactly as that sum does.
    """
    if np.all(values[1:] > values[:-1]):
        return values, probs + 0.0
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, np.bincount(inverse, weights=probs, minlength=distinct.size)


def implied_auc_values(probs: np.ndarray, values: np.ndarray) -> float:
    """Array fast path of :func:`implied_auc`; no validation, same result.

    Called once per slope probe of the QMM solves, whose link values are
    usually strictly increasing already; those skip the sort (see
    :func:`_merge_by_value`).
    """
    v, p = _merge_by_value(np.asarray(values, dtype=float), np.asarray(probs, dtype=float))
    pbar = float(np.dot(p, v))
    if not (0.0 < pbar < 1.0):
        raise DegenerateClassError(
            f"posterior mean {pbar!r} leaves one class empty; AUC undefined"
        )
    hit = p * v
    miss = p * (1.0 - v)
    below = np.concatenate(([0.0], np.cumsum(miss)[:-1]))
    # self-tie term hit_i * miss_i / 2 included for every i, the lowest
    # value as well, so one-point (uninformative) inputs yield exactly 1/2
    num = float(np.sum(hit * (0.5 * miss + below)))
    return num / (pbar * (1.0 - pbar))


def implied_auc(dist: DiscreteScoreDist, curve: PosteriorCurve) -> float:
    """AUC implied by using the posterior value itself as the score.

    The curve values are sorted ascending with probabilities carried along
    and equal values merged (input that is already strictly increasing is
    not sorted; tied mass is summed in input order), then the closed-form
    tie-aware sum is applied.
    The result equals the Mann-Whitney route on the merged value
    distribution to float precision.
    """
    _require_shared_support(dist.support, curve.support, "dist and curve")
    return implied_auc_values(dist.probs, curve.values)


def adjusted_cdf(dist: DiscreteScoreDist) -> np.ndarray:
    """Average of the CDF and its left-continuous version at each support point.

    Value i equals cumsum(probs)_i - probs_i / 2. When all probabilities are
    positive every value lies strictly inside (0, 1), keeping probit
    transforms finite everywhere.
    """
    return np.cumsum(dist.probs) - dist.probs / 2.0
