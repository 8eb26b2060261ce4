"""Class-conditional decompositions and AUC machinery for discrete classifiers.

Two independent AUC routes are kept side by side on purpose:

* ``mann_whitney_auc`` ranks by the support order of a pair of
  class-conditional distributions and sums P[S1 > S0] + P[S1 = S0] / 2
  over all support pairs.
* ``implied_auc`` treats the posterior value itself as the score of an
  auto-calibrated classifier and evaluates a closed-form sum over the
  distribution of those values. That distribution comes from one merge,
  which sorts only values that are not already strictly increasing. The
  sum is N = sum(p v F) - pbar**2 / 2 over the merged masses p, with F
  their mid-CDF, so the AUC N / (pbar (1 - pbar)) is two dot products once
  F is known. F depends on the masses only; a QMM solve reads it from the
  target law, which caches it (``DiscreteScoreDist.mid_cdf``), and each
  probe keeps its merge for the AUC's derivative in the slope.

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
    if (values[1:] > values[:-1]).all():
        return values, probs + 0.0
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, np.bincount(inverse, weights=probs, minlength=distinct.size)


def mid_cdf(probs: np.ndarray) -> np.ndarray:
    """The mid-CDF cumsum(p) - p / 2 of masses ``p`` in their given order."""
    f = np.cumsum(probs, dtype=float)
    f -= 0.5 * probs
    return f


def _merged(probs, values, cached_mid_cdf=None):
    """(u, pbar, F, A): the values u of :func:`_merge_by_value` of the arrays,
    the posterior mean pbar, which must leave both classes non-empty, the
    mid-CDF F of the merged masses (``cached_mid_cdf``, that of ``probs``,
    where the values needed no merge) and the implied AUC A."""
    v = np.asarray(values, dtype=float)
    u, p = _merge_by_value(v, np.asarray(probs, dtype=float))
    pbar = float(np.dot(p, u))
    if not (0.0 < pbar < 1.0):
        raise DegenerateClassError(
            f"posterior mean {pbar!r} leaves one class empty; AUC undefined"
        )
    f = cached_mid_cdf if u is v and cached_mid_cdf is not None else mid_cdf(p)
    # the p / 2 in F carries the self-tie terms, so one-point (uninformative)
    # inputs give 1/2 up to rounding
    return u, pbar, f, (float(np.dot(p * u, f)) - 0.5 * pbar * pbar) / (pbar * (1.0 - pbar))


def implied_auc_values(
    probs: np.ndarray, values: np.ndarray, cached_mid_cdf: np.ndarray | None = None
) -> float:
    """Array fast path of :func:`implied_auc`; no validation, same result.

    Values that are strictly increasing already, as the link values of the
    QMM probes usually are, skip the sort (see :func:`_merge_by_value`) and,
    given ``cached_mid_cdf = mid_cdf(probs)``, the prefix sum. The result has
    the same bits with or without it. The probes call :func:`_merged` itself
    and keep its result for the slope derivative.
    """
    return _merged(probs, values, cached_mid_cdf)[3]


def implied_auc_gradient(
    probs: np.ndarray, values: np.ndarray, cached_mid_cdf: np.ndarray, auc: float
) -> np.ndarray:
    """Gradient of the implied AUC A = N / (pbar (1 - pbar)) of
    :func:`implied_auc_values` in each of ``values``.

    For strictly increasing v, with h = p v, m = p (1 - v), B the exclusive
    prefix sum of m and H the exclusive suffix sum of h,
    dA/dv_k = p_k (m_k / 2 + B_k - h_k / 2 - H_k - A (1 - 2 pbar)) /
    (pbar (1 - pbar)). As B_k - H_k = P_k + h_k - pbar, with P the exclusive
    prefix sum of p, the bracket is F_k - pbar - A (1 - 2 pbar), where
    F = P + p / 2 is the mid-CDF that A itself is computed from. Tied values
    get their share, by mass, of the derivative of the merged value, which
    is exact where they move together. ``cached_mid_cdf`` is ``mid_cdf(probs)``
    as for :func:`implied_auc_values`. A is computed from the arrays; ``auc``,
    that function's result on them, is accepted and not read.
    """
    v = np.asarray(values, dtype=float)
    return _merged_gradient(probs, v, _merged(probs, v, cached_mid_cdf))


def _merged_gradient(probs, values, merged) -> np.ndarray:
    """:func:`implied_auc_gradient` from the :func:`_merged` result of ``values``."""
    u, pbar, f, auc = merged
    var = pbar * (1.0 - pbar)
    per_mass = (f - (pbar + auc * (1.0 - 2.0 * pbar))) / var
    if u is not values:
        per_mass = per_mass[np.searchsorted(u, values)]
    return np.asarray(probs, dtype=float) * per_mass


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
    return mid_cdf(dist.probs)
