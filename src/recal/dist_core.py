"""Discrete score distributions and the generators used by the worked example.

All types are immutable after construction (arrays are copied and marked
read-only) and every operation is pure, so the whole module is safe to use
from concurrent threads without coordination. That includes the cached
properties (``DiscreteScoreDist.mid_cdf``, ``SourceModel.implied_auc``):
from Python 3.12 on, threads that first read one at the same time may each
compute it, from the same immutable inputs and so with the same bits, and one
result is kept; the cached mid-CDF array is read-only. The generators take
their special functions from the standard library (``math.lgamma``, and the
normal CDF and quantile of :mod:`._special` per quadrature node), not from
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _special as sp
from .errors import DomainError, StructuralError

PROB_SUM_TOL = 1e-12
PRIOR_CONSISTENCY_TOL = 1e-10

# Largest generator inputs: a binomial support has at most MAX_TRIALS + 1 =
# 65,537 points, the largest support size the project measures, and the
# Vasicek mixture's pmf matrix at most MAX_QUAD_NODES x (MAX_TRIALS + 1)
# float64 entries (134 MB).
MAX_TRIALS = 65_536
MIN_QUAD_NODES = 16
MAX_QUAD_NODES = 256
# largest miss of the requested mean that a Vasicek quadrature may leave
VASICEK_MEAN_TOL = 1e-8


def _validated_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise StructuralError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise StructuralError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


def _require_shared_support(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or not np.array_equal(a, b):
        raise StructuralError(f"{what} must share the same support")


@dataclass(frozen=True, eq=False)
class DiscreteScoreDist:
    """Probability mass over a strictly increasing, finite score support."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", _validated_array(self.support, "support"))
        object.__setattr__(self, "probs", _validated_array(self.probs, "probs"))
        if self.support.size != self.probs.size:
            raise StructuralError("support and probs must have the same length")
        if self.support.size > 1 and np.any(np.diff(self.support) <= 0):
            raise StructuralError("support must be strictly increasing (no duplicates)")
        if np.any(self.probs < 0):
            raise DomainError("probs must be non-negative")
        if abs(float(self.probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"probs must sum to 1 within {PROB_SUM_TOL}")

    @property
    def n(self) -> int:
        return int(self.support.size)

    @cached_property
    def mid_cdf(self) -> np.ndarray:
        """Read-only ``auc_engine.mid_cdf`` of ``probs``, computed on first use."""
        from .auc_engine import mid_cdf  # auc_engine imports this module

        f = mid_cdf(self.probs)
        f.setflags(write=False)
        return f


@dataclass(frozen=True, eq=False)
class PosteriorCurve:
    """Class-1 posterior probabilities attached to a score support."""

    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", _validated_array(self.support, "support"))
        object.__setattr__(self, "values", _validated_array(self.values, "values"))
        if self.support.size != self.values.size:
            raise StructuralError("support and values must have the same length")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise DomainError("posterior values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Source feature distribution, its posterior curve and class-1 prior.

    The prior must equal the mean of the posterior under the feature
    distribution (auto-calibration consistency) within ``PRIOR_CONSISTENCY_TOL``.
    """

    feature_dist: DiscreteScoreDist
    posterior: PosteriorCurve
    prior: float

    def __post_init__(self):
        _require_shared_support(
            self.feature_dist.support, self.posterior.support, "feature_dist and posterior"
        )
        if not (0.0 < self.prior < 1.0):
            raise DomainError("source prior must lie strictly inside (0, 1)")
        implied = float(np.dot(self.feature_dist.probs, self.posterior.values))
        if abs(implied - self.prior) > PRIOR_CONSISTENCY_TOL:
            raise DomainError(
                "source prior must equal the posterior mean under the feature distribution "
                f"within {PRIOR_CONSISTENCY_TOL} (prior={self.prior!r}, mean={implied!r})"
            )

    @property
    def support(self) -> np.ndarray:
        return self.feature_dist.support

    @cached_property
    def implied_auc(self) -> float:
        """Implied AUC of the posterior under the feature distribution,
        computed on first use and kept, since the model is immutable."""
        from .auc_engine import implied_auc_values  # auc_engine imports this module

        return implied_auc_values(self.feature_dist.probs, self.posterior.values)


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Target feature distribution and class-1 prior; labels unobserved."""

    feature_dist: DiscreteScoreDist
    prior: float

    def __post_init__(self):
        if not (0.0 < self.prior < 1.0):
            raise DomainError("target prior must lie strictly inside (0, 1)")

    @property
    def support(self) -> np.ndarray:
        return self.feature_dist.support


def _count(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int in [lo, hi], checked before it sizes any array."""
    if not lo <= value <= hi or int(value) != value:  # NaN fails the first test
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}]")
    return int(value)


def _binomial_pmf(trials: int, success_prob) -> np.ndarray:
    """Binomial pmf over k = 0..trials, computed in log space.

    ``success_prob`` may be an array, broadcast against k along the last
    axis. Log-gamma coefficients keep every term finite for any trial count;
    a success probability of exactly 0 or 1 gives the degenerate pmf.
    """
    k = np.arange(trials + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, trials + 2)), float, trials + 1)  # log k!
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log(0) is taken as 0
        log_p = np.where(k == 0, 0.0, k * np.log(success_prob))
        log_q = np.where(k == trials, 0.0, (trials - k) * np.log1p(-success_prob))
    return np.exp(log_fact[-1] - log_fact - log_fact[::-1] + log_p + log_q)


def binomial_dist(trials: int, success_prob: float) -> DiscreteScoreDist:
    """Binomial pmf over k = 0..trials as a DiscreteScoreDist.

    The pmf is computed in log space and renormalized, so it matches an
    iterated Bernoulli convolution to float precision and stays finite for
    large trial counts, up to ``MAX_TRIALS``.
    """
    trials = _count(trials, "trials", 1, MAX_TRIALS)
    if not np.isfinite(success_prob) or not (0.0 < success_prob < 1.0):
        raise DomainError("success_prob must be finite and strictly inside (0, 1)")
    pmf = _binomial_pmf(trials, success_prob)
    pmf = pmf / pmf.sum()
    return DiscreteScoreDist(np.arange(trials + 1, dtype=float), pmf)


def vasicek_mixture_dist(
    trials: int, mean: float, correlation: float, quad_nodes: int = 128
) -> DiscreteScoreDist:
    """Binomial pmf mixed over a Vasicek-distributed success probability.

    The success probability is V(z) = ndtr((ndtri(mean) - sqrt(corr) * z)
    / sqrt(1 - corr)) for a standard normal z, the one-factor law with the
    given mean. The mixture integral is evaluated by Gauss-Hermite quadrature
    with ``MIN_QUAD_NODES`` to ``MAX_QUAD_NODES`` nodes and the pmf is
    renormalized. Nodes whose mean of V misses ``mean`` by more than
    ``VASICEK_MEAN_TOL`` (near correlation 1) raise a :class:`DomainError`.
    """
    trials = _count(trials, "trials", 1, MAX_TRIALS)
    if not np.isfinite(mean) or not (0.0 < mean < 1.0):
        raise DomainError("mean must be finite and strictly inside (0, 1)")
    if not np.isfinite(correlation) or not (0.0 < correlation < 1.0):
        raise DomainError(
            "correlation must lie strictly inside (0, 1); "
            "request the degenerate case as a plain binomial instead"
        )
    quad_nodes = _count(quad_nodes, "quad_nodes", MIN_QUAD_NODES, MAX_QUAD_NODES)
    nodes, weights = np.polynomial.hermite.hermgauss(quad_nodes)
    z = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    shifted = (sp.normal_ppf(mean) - np.sqrt(correlation) * z) / np.sqrt(1.0 - correlation)
    succ = sp.elementwise(sp.normal_cdf, shifted)
    achieved = float(np.dot(w, succ))
    if not abs(achieved - mean) <= VASICEK_MEAN_TOL:
        raise DomainError(
            f"{quad_nodes} quadrature nodes give mean {achieved!r}, not the requested {mean!r}; "
            f"raise quad_nodes (at most {MAX_QUAD_NODES}) or lower the correlation"
        )
    # rows: quadrature nodes, columns: k
    pmf = w @ _binomial_pmf(trials, succ[:, None])
    pmf = pmf / pmf.sum()
    return DiscreteScoreDist(np.arange(trials + 1, dtype=float), pmf)


def mean_under(dist: DiscreteScoreDist, curve: PosteriorCurve) -> float:
    """Expectation of the curve values under the distribution."""
    _require_shared_support(dist.support, curve.support, "dist and curve")
    return float(np.dot(dist.probs, curve.values))
