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
scipy, and compute their Gauss-Hermite rule with numpy, so they import
neither scipy nor ``numpy.polynomial`` and call no LAPACK routine.
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
# 65,537 points, the largest support size the project measures. The mixture
# holds no nodes x support matrix: vasicek_mixture_dist(65536, 0.3, 0.3)
# peaks at ~6.8 MB (tracemalloc) at 128 and 256 nodes alike.
MAX_TRIALS = 65_536
# Gauss-Hermite node counts a Vasicek quadrature tries in turn (~0.6 ms for
# the 128-node rule, ~1.5 ms for 256); at 512 the rule's weights overflow
VASICEK_QUAD_NODES = (128, 256)
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
        with np.errstate(over="ignore"):  # masses near the float limit sum to inf
            total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
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


# exp() of a log pmf below about -745.13 is exactly 0; the margin covers the
# rounding of the log pmf, which stays below 1e-9 up to MAX_TRIALS
_LOG_PMF_FLOOR = -750.0
# (node, k) pairs that one vectorised pass of _binomial_mixture evaluates
_CHUNK_ENTRIES = 1 << 16


def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the weight exp(-x^2), as
    ``numpy.polynomial.hermite.hermgauss`` returns them, without its
    eigenproblem (a LAPACK call).

    The non-negative nodes start at Tricomi's approximation, the quantiles
    of the semicircle law that the zeros of H_n follow, and take Newton steps
    on the orthonormal recurrence p_k = sqrt(2/k) x p_{k-1} - sqrt((k-1)/k)
    p_{k-2}, run on the ratios r_k = p_k / p_{k-1} so that nothing
    overflows. As p_n' = sqrt(2n) p_{n-1}, the step is r_n / sqrt(2n); four
    steps settle every n from 16 to 256. A node's
    weight is proportional to 1 / p_{n-1}(x)^2, and the weights are scaled to
    sum to sqrt(pi). The negative half mirrors the positive one, so the rule
    is exactly symmetric.
    """
    m = n // 2
    # T - sin T = (4j - 1) pi / (2n + 1) for the j-th node from the top
    rhs = np.arange(4 * m - 1, 0, -4) * (math.pi / (2 * n + 1))
    t = np.full(m, math.pi / 2)
    for _ in range(8):
        t -= (t - np.sin(t) - rhs) / (1.0 - np.cos(t))
    x = math.sqrt(2 * n + 1) * np.cos(0.5 * t)
    k = np.arange(1.0, n + 1)
    a = np.sqrt(2.0 / k)
    b = np.sqrt((k - 1.0) / k).tolist()
    ratio = np.empty((n, m))  # row k - 1 holds r_k
    rows = list(ratio)
    for _ in range(8):
        ax = list(np.multiply.outer(a, x))
        rows[0][:] = ax[0]
        for prev, row, ax_k, b_k in zip(rows, rows[1:], ax[1:], b[1:]):
            np.divide(b_k, prev, out=row)
            np.subtract(ax_k, row, out=row)
        dx = ratio[-1] / math.sqrt(2 * n)
        x -= dx
        if np.max(np.abs(dx)) <= 1e-9:
            break
    # p_{n-1} / p_0 at the last iterate, carried to x - dx to first order
    # by p_{n-1}' = sqrt(2(n-1)) p_{n-2}
    p = np.prod(ratio[:-1], axis=0) * (1.0 - dx * math.sqrt(2 * (n - 1)) / ratio[-2])
    w = 1.0 / (p * p)
    # an odd n adds the node 0, where p_{n-1}(0)^2 / p_0^2 = C(n-1, j) / 4^j
    j = (n - 1) // 2
    middle = [4.0**j / math.comb(n - 1, j)] if n % 2 else []
    nodes = np.concatenate([-x[::-1], [0.0] * (n % 2), x])
    weights = np.concatenate([w[::-1], middle, w])
    return nodes, weights * (math.sqrt(math.pi) / weights.sum())


def _log_pmf(log_fact, trials: int, k, log_s, log_f) -> np.ndarray:
    """Binomial log pmf at the counts ``k``, given the log of the success
    and failure probabilities at each count; 0 * log(0) is taken as 0."""
    with np.errstate(invalid="ignore"):
        log_p = np.where(k == 0, 0.0, k * log_s)
        log_q = np.where(k == trials, 0.0, (trials - k) * log_f)
    return log_fact[trials] - log_fact[k] - log_fact[trials - k] + log_p + log_q


def _windows(log_fact, trials: int, succ, log_s, log_f) -> tuple[np.ndarray, np.ndarray]:
    """First and last k of each row whose log pmf reaches _LOG_PMF_FLOOR.

    The pmf is log-concave, so these counts form an interval around the
    mode. Both ends are bisected at once: j counts the points dropped at
    one end, k = j on the left and trials - j on the right.
    """
    mode = np.clip(np.floor((trials + 1) * succ), 0, trials).astype(np.int64)
    rows = succ.size
    log_s, log_f = np.tile(log_s, 2), np.tile(log_f, 2)
    end = np.repeat([0, trials], rows)
    step = np.repeat([1, -1], rows)
    lo, hi = np.zeros(2 * rows, np.int64), np.concatenate([mode, trials - mode])
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        reached = _log_pmf(log_fact, trials, end + step * mid, log_s, log_f) >= _LOG_PMF_FLOOR
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid + 1)
    return lo[:rows], trials - lo[rows:]


def _binomial_mixture(trials: int, succ: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * binomial pmf(trials, succ[i]) over k = 0..trials.

    Row i is evaluated in log space on its window only (``_windows``):
    outside it, exp() of the log pmf is exactly 0. The (row, k) pairs of all
    windows are evaluated _CHUNK_ENTRIES at a time and added into the result
    in row order by ``np.add.at``, with no BLAS, so its bits depend neither
    on the chunk size nor on the thread count. Log-gamma coefficients keep
    every term finite for any trial count; a success probability of exactly
    0 or 1 gives the degenerate row.
    """
    log_fact = np.fromiter(map(math.lgamma, range(1, trials + 2)), float, trials + 1)  # log k!
    with np.errstate(divide="ignore"):
        log_s, log_f = np.log(succ), np.log1p(-succ)
    first, last = _windows(log_fact, trials, succ, log_s, log_f)
    size = last - first + 1
    stop = np.cumsum(size)
    shift = first - (stop - size)  # k of an entry is its index plus its row's shift
    total = int(stop[-1])
    pmf = np.zeros(trials + 1)
    for start in range(0, total, _CHUNK_ENTRIES):
        entry = np.arange(start, min(start + _CHUNK_ENTRIES, total))
        row = np.searchsorted(stop, entry, side="right")
        k = entry + shift[row]
        terms = np.exp(_log_pmf(log_fact, trials, k, log_s[row], log_f[row]))
        np.add.at(pmf, k, weights[row] * terms)
    return pmf


def binomial_dist(trials: int, success_prob: float) -> DiscreteScoreDist:
    """Binomial pmf over k = 0..trials as a DiscreteScoreDist.

    The pmf is computed in log space and renormalized, so it matches an
    iterated Bernoulli convolution to float precision and stays finite for
    large trial counts, up to ``MAX_TRIALS``.
    """
    trials = _count(trials, "trials", 1, MAX_TRIALS)
    if not np.isfinite(success_prob) or not (0.0 < success_prob < 1.0):
        raise DomainError("success_prob must be finite and strictly inside (0, 1)")
    pmf = _binomial_mixture(trials, np.array([success_prob], dtype=float), np.ones(1))
    pmf = pmf / pmf.sum()
    return DiscreteScoreDist(np.arange(trials + 1, dtype=float), pmf)


def vasicek_mixture_dist(trials: int, mean: float, correlation: float) -> DiscreteScoreDist:
    """Binomial pmf mixed over a Vasicek-distributed success probability.

    The success probability is V(z) = ndtr((ndtri(mean) - sqrt(corr) * z)
    / sqrt(1 - corr)) for a standard normal z, the one-factor law with the
    given mean. The mixture integral is evaluated by Gauss-Hermite quadrature
    with the first of ``VASICEK_QUAD_NODES`` whose mean of V lies within
    ``VASICEK_MEAN_TOL`` of ``mean``, and the pmf is renormalized. If every
    count misses (near correlation 1) a :class:`DomainError` is raised.
    """
    trials = _count(trials, "trials", 1, MAX_TRIALS)
    if not np.isfinite(mean) or not (0.0 < mean < 1.0):
        raise DomainError("mean must be finite and strictly inside (0, 1)")
    if not np.isfinite(correlation) or not (0.0 < correlation < 1.0):
        raise DomainError(
            "correlation must lie strictly inside (0, 1); "
            "request the degenerate case as a plain binomial instead"
        )
    for n in VASICEK_QUAD_NODES:
        nodes, weights = _gauss_hermite(n)
        z = np.sqrt(2.0) * nodes
        w = weights / np.sqrt(np.pi)
        shifted = (sp.normal_ppf(mean) - np.sqrt(correlation) * z) / np.sqrt(1.0 - correlation)
        succ = sp.elementwise(sp.normal_cdf, shifted)
        achieved = float(np.dot(w, succ))
        if abs(achieved - mean) <= VASICEK_MEAN_TOL:
            break
    else:
        raise DomainError(
            f"{n} quadrature nodes give mean {achieved!r}, not the requested {mean!r}; "
            "lower the correlation"
        )
    pmf = _binomial_mixture(trials, succ, w)
    pmf = pmf / pmf.sum()
    return DiscreteScoreDist(np.arange(trials + 1, dtype=float), pmf)


def mean_under(dist: DiscreteScoreDist, curve: PosteriorCurve) -> float:
    """Expectation of the curve values under the distribution."""
    _require_shared_support(dist.support, curve.support, "dist and curve")
    return float(np.dot(dist.probs, curve.values))
