"""Deterministic numerical machinery shared by the recalibration methods.

Everything here is stateless and bit-reproducible: identical inputs give
identical outputs, with no randomness and no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _special as sp
from .auc_engine import implied_auc_values
from .dist_core import PosteriorCurve, TargetSpec
from .errors import DegenerateClassError, DomainError, InfeasibleError, NoRootError

MAX_EXPANSIONS = 60
MAX_BISECT_ITER = 260
# the slope search of solve_qmm_2d stays within [1 / SLOPE_LIMIT, SLOPE_LIMIT]
SLOPE_LIMIT = 2.0**MAX_EXPANSIONS
# a warm-started solve_qmm_2d brackets each intercept search within this
# half-width (times max(1, |beta|)) of the previous intercept, and its first
# slope step is no smaller than this in log space
WARM_BETA_HALF_WIDTH = 0.1
WARM_MIN_LOG_STEP = 1e-12


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration caps used across the solvers.

    Defaults leave three-plus orders of headroom below the three-decimal
    reporting precision of the results table.
    """

    tol_mean: float = 1e-9
    tol_auc: float = 1e-6
    tol_fixed_point: float = 1e-10
    max_iter: int = 200


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class SolveDiagnostics:
    """Outcome record of a solver run.

    ``converged`` being True implies every applicable residual met its
    tolerance; residuals that do not apply to a method are ``None``.
    ``bracket`` records the sign-change interval used by the outer search of
    the two-parameter solve so multiple-solution situations stay detectable.
    """

    iterations: int
    converged: bool
    residual_mean: float | None = None
    residual_auc: float | None = None
    residual_fixed_point: float | None = None
    bracket: tuple[float, float] | None = None


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    *,
    fprime: Callable[[float], float] | None = None,
    x0: float | None = None,
    expand_lo: bool = True,
    expand_hi: bool = True,
    max_expansions: int = MAX_EXPANSIONS,
) -> float:
    """Bracketed root search for a monotone scalar function.

    Returns x with |f(x)| <= tol or bracket width <= tol * max(1, |x|). When
    f(lo) and f(hi) do not differ in sign, the bracket is widened
    geometrically on the permitted sides (each round extends by the current
    width) up to ``max_expansions`` rounds; failure to find a sign change
    raises :class:`NoRootError` carrying the probed interval.

    The first point tried inside the bracket is ``x0`` when it lies there,
    else the midpoint. Without ``fprime`` the bracket is then bisected. With
    the derivative ``fprime`` of an increasing f, each further step is a
    Newton step from the last point; the midpoint is taken instead whenever
    the Newton step would leave the current sign-change bracket, the
    derivative is not positive, or the step fails to halve the one before it
    (``rtsafe`` in *Numerical Recipes*).
    """
    if not np.isfinite(lo) or not np.isfinite(hi) or lo > hi:
        raise DomainError("bisect_root needs a finite interval with lo <= hi")
    flo = float(f(lo))
    fhi = float(f(hi))
    if lo == hi:
        if abs(flo) <= tol:
            return lo
        raise NoRootError(
            "degenerate interval does not satisfy the tolerance", probed_interval=(lo, hi)
        )
    expansions = 0
    while flo * fhi > 0.0:
        if expansions >= max_expansions or not (expand_lo or expand_hi):
            raise NoRootError(
                f"no sign change over [{lo!r}, {hi!r}] after {expansions} expansions",
                probed_interval=(lo, hi),
            )
        width = hi - lo
        if expand_lo:
            lo = lo - width
            flo = float(f(lo))
        if expand_hi:
            hi = hi + width
            fhi = float(f(hi))
        expansions += 1
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    mid = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    step_before = hi - lo
    for _ in range(MAX_BISECT_ITER):
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent floats
            break
        fmid = float(f(mid))
        if abs(fmid) <= tol:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if (hi - lo) <= tol * max(1.0, abs(mid)):
            break
        last, mid = mid, 0.5 * (lo + hi)
        if fprime is not None:
            slope = float(fprime(last))
            if slope > 0.0:
                step = fmid / slope
                if lo < last - step < hi and 2.0 * abs(step) <= step_before:
                    mid = last - step
            step_before = abs(last - mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TransformFamily:
    """A one-link parametric transform eta = link(a * x + b).

    ``link_pdf`` is the derivative of ``link``, which the solver's Newton
    intercept step uses. ``make_x`` maps the source posterior values to the
    per-point regressor x (it may ignore them when x is attached to the
    support instead, as in the two-parameter scheme). Every family is
    non-decreasing in x for a >= 0, the slope range the solver searches.
    """

    name: str
    link: Callable[[np.ndarray], np.ndarray]
    link_pdf: Callable[[np.ndarray], np.ndarray]
    make_x: Callable[[np.ndarray], np.ndarray]
    slope_may_vanish: bool

    def x_values(self, source_values: np.ndarray) -> np.ndarray:
        x = np.asarray(self.make_x(source_values), dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError(
                f"{self.name}: transform regressor is not finite; "
                "source posterior values must lie strictly inside (0, 1)"
            )
        return x

    def posterior_values(self, source_values: np.ndarray, a: float, b: float) -> np.ndarray:
        return np.asarray(self.link(a * self.x_values(source_values) + b), dtype=float)


def expit(z):
    """The logistic link; a module attribute that families bind when built."""
    return sp.expit(z)


def ndtr(z):
    """The standard normal CDF link; bound like :func:`expit`."""
    return sp.ndtr(z)


def _logistic_pdf(z: np.ndarray) -> np.ndarray:
    """Derivative expit(z) * (1 - expit(z)) of the logistic link."""
    e = np.exp(-np.abs(z))
    return e / (1.0 + e) ** 2


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    """Derivative of the ``ndtr`` link: the standard normal density."""
    return np.exp(-0.5 * np.square(z)) / np.sqrt(2.0 * np.pi)


def platt_family() -> TransformFamily:
    """eta = sigmoid(a * u + b) on the raw posterior values; a >= 0."""
    return TransformFamily(
        "platt", expit, _logistic_pdf, lambda u: u, slope_may_vanish=True
    )


def logistic_cspd_family() -> TransformFamily:
    """eta = sigmoid(a * logit(u) + b); strictly increasing needs a > 0."""
    return TransformFamily(
        "logistic_cspd", expit, _logistic_pdf, lambda u: sp.logit(u), slope_may_vanish=False
    )


def normal_cspd_family() -> TransformFamily:
    """eta = ndtr(a * ndtri(u) + b); strictly increasing needs a > 0."""
    return TransformFamily(
        "normal_cspd", ndtr, _normal_pdf, lambda u: sp.ndtri(u), slope_may_vanish=False
    )


def rob_logit_family(f0_values: np.ndarray) -> TransformFamily:
    """eta_i = sigmoid(a * ndtri(f0_i) + b) attached to support points.

    The paper writes this transform as 1 / (1 + exp(b' + a' * ndtri(f0_i))),
    decreasing in the probit of the class-0 CDF for a' > 0; it is the same
    family with (a', b') = (-a, -b), the form ``two_param_qmm`` reports.
    """
    z = sp.ndtri(np.asarray(f0_values, dtype=float))
    return TransformFamily(
        "rob_logit", expit, _logistic_pdf, lambda _u: z, slope_may_vanish=True
    )


def solve_qmm_2d(
    family: TransformFamily,
    source_auc_target: float,
    q: float,
    target: TargetSpec,
    source_curve: PosteriorCurve,
    settings: SolverSettings = DEFAULT_SETTINGS,
    warm_start: tuple[float, float, float] | None = None,
) -> tuple[float, float, SolveDiagnostics]:
    """Fit (a, b) so the transformed curve has mean q and the target AUC.

    Nested solve: for fixed slope the intercept is found by a safeguarded
    Newton search (:func:`bisect_root` with the link's pdf as derivative,
    started from the previous probe's intercept) on the mean equation, which
    is strictly monotone because the link is a strictly increasing
    distribution function; the slope is then found by a bracketed search on
    the AUC residual. The slope bracket starts at 1 and expands
    geometrically, capped at 2**60 on either side; if no sign change exists
    an :class:`InfeasibleError` reports the attainable AUC range instead of
    silently clamping. Inside the bracket each slope step is an Illinois
    (modified regula falsi) step, or the midpoint when that step would leave
    the bracket.

    ``warm_start = (alpha, beta, log_step)`` hands over where a nearby solve
    ended, such as the previous outer step of :func:`two_param_qmm`. The
    first slope probe is then at ``alpha`` (unit slope when ``alpha`` lies
    outside the slope range or its probe is unhealthy), and the bracket's
    first expansion factor is exp(``log_step``), at least
    exp(``WARM_MIN_LOG_STEP``); the factor squares on each further expansion
    up to the cold factor 2. Every intercept search first brackets within
    ``WARM_BETA_HALF_WIDTH`` * max(1, |beta|) of the previous intercept,
    starting from ``beta``, instead of [-2, 2], and widens from there as
    needed. Without a warm start the search is the cold one described above.
    """
    weights = target.feature_dist.probs
    x = family.x_values(source_curve.values)
    tol_auc = settings.tol_auc
    evals = 0
    start, factor = 1.0, 2.0  # first slope probe and expansion factor
    beta_start = None  # the previous probe's intercept
    if warm_start is not None:
        alpha0, beta_start, log_step = (float(v) for v in warm_start)
        if not (0.0 <= alpha0 < math.inf and math.isfinite(beta_start) and log_step >= 0.0):
            raise DomainError(
                "solve_qmm_2d: warm_start needs a finite alpha >= 0, a finite beta "
                "and a log_step >= 0"
            )
        if 1.0 / SLOPE_LIMIT <= alpha0 <= SLOPE_LIMIT:
            start = alpha0
            factor = math.exp(min(max(log_step, WARM_MIN_LOG_STEP), math.log(2.0)))

    fits = {}  # slope -> (auc, beta, |mean residual|) of its probe

    def probe(alpha: float) -> bool:
        """Solve the mean equation at a fixed slope, record the fit in ``fits``
        and return whether it is healthy.

        An unhealthy fit has a NaN AUC: float exhaustion keeps the intercept
        from pinning the mean (extreme slopes make the transform a hard step
        between adjacent representable intercepts), or the resulting values
        saturate a whole class. Unhealthy probes mark the numerically
        attainable edge of the family.
        """
        nonlocal evals, beta_start
        evals += 1
        ax = alpha * x
        # (beta, link argument, link values, mean residual) of the last
        # intercept tried; the Newton step's derivative reuses its argument
        last = None

        def mean_resid(beta: float) -> float:
            nonlocal last
            z = ax + beta
            values = family.link(z)
            last = beta, z, values, float(np.dot(weights, values)) - q
            return last[3]

        def mean_slope(beta: float) -> float:
            z = last[1] if beta == last[0] else ax + beta
            return float(np.dot(weights, family.link_pdf(z)))

        if warm_start is None:
            lo, hi = -2.0, 2.0
        else:
            half = WARM_BETA_HALF_WIDTH * max(1.0, abs(beta_start))
            lo, hi = beta_start - half, beta_start + half
        fits[alpha] = (np.nan, np.nan, np.nan)
        try:
            beta = bisect_root(
                mean_resid, lo, hi, settings.tol_mean, fprime=mean_slope, x0=beta_start
            )
        except NoRootError:
            return False
        beta_start = beta
        if beta != last[0]:
            mean_resid(beta)
        values, resid = last[2], abs(last[3])
        fits[alpha] = (np.nan, beta, resid)
        if resid > settings.tol_mean:
            return False
        try:
            fits[alpha] = (implied_auc_values(weights, values), beta, resid)
        except DegenerateClassError:
            return False
        return True

    def residual(alpha: float) -> float:
        return fits[alpha][0] - source_auc_target

    if family.slope_may_vanish and abs(0.5 - source_auc_target) <= tol_auc:
        # a constant transform (slope 0) has AUC exactly 1/2; families that
        # admit it get the exact degenerate solution instead of a search. An
        # unhealthy probe leaves auc NaN, which reads as not converged below.
        alpha, bracket = 0.0, (0.0, 0.0)
        probe(alpha)
    else:
        healthy = probe(start)
        if not healthy and start != 1.0:  # an unusable warm slope
            start, factor = 1.0, 2.0
            healthy = probe(start)
        if not healthy:
            raise InfeasibleError(
                f"{family.name}: mean equation insoluble at unit slope; "
                "the transform family is numerically exhausted"
            )
        # bracket the slope around the start, expanding geometrically on the
        # side where the AUC residual keeps its sign: downward while the AUC
        # is too high, upward while it is too low. Upward expansion stops
        # early at the last slope the mean equation can still be solved for.
        end = start
        down = residual(start) > 0.0
        sign = 1.0 if down else -1.0
        if sign * residual(start) > tol_auc:
            limit = 1.0 / SLOPE_LIMIT if down else SLOPE_LIMIT
            while end != limit:
                trial = max(end / factor, limit) if down else min(end * factor, limit)
                factor = min(factor * factor, 2.0)
                if not probe(trial):
                    break  # numerically attainable edge reached
                end = trial
                if sign * residual(trial) <= tol_auc:
                    break
            if down and residual(end) > tol_auc and family.slope_may_vanish and probe(0.0):
                end = 0.0
        lo, hi = bracket = (end, start) if down else (start, end)

        r_lo, r_hi = residual(lo), residual(hi)
        if abs(r_hi) <= tol_auc:
            alpha = hi
        elif abs(r_lo) <= tol_auc:
            alpha = lo
        elif r_lo * r_hi > 0.0:
            observed = tuple(sorted((fits[lo][0], fits[hi][0])))
            raise InfeasibleError(
                f"{family.name}: target AUC {source_auc_target!r} lies outside the AUC "
                f"range [{observed[0]!r}, {observed[1]!r}] attained over the probed slopes",
                attainable_auc_range=observed,
            )
        else:
            alpha = hi
            kept = 0  # +1 / -1 when the last step kept the lo / hi end
            for _ in range(MAX_BISECT_ITER):
                mid = (lo * r_hi - hi * r_lo) / (r_hi - r_lo)
                if not lo < mid < hi:  # also when r_hi is unknown (nan)
                    mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if not probe(mid):
                    # hardness grows with the slope; retreat downward
                    hi, r_hi = mid, np.nan
                    continue
                alpha = mid
                r_mid = residual(mid)
                if abs(r_mid) <= tol_auc:
                    break
                # Illinois rule: halve the residual of an end kept twice in a row
                if r_mid > 0.0:
                    hi, r_hi = mid, r_mid
                    if kept == 1:
                        r_lo *= 0.5
                    kept = 1
                else:
                    lo, r_lo = mid, r_mid
                    if kept == -1:
                        r_hi *= 0.5
                    kept = -1
                if (hi - lo) <= 1e-14 * max(1.0, abs(mid)):
                    break

    auc, beta, residual_mean = fits[alpha]
    residual_auc = abs(auc - source_auc_target)
    diag = SolveDiagnostics(
        iterations=evals,
        converged=residual_mean <= settings.tol_mean and residual_auc <= tol_auc,
        residual_mean=residual_mean,
        residual_auc=residual_auc,
        bracket=bracket,
    )
    return alpha, beta, diag


def fixed_point_f0(
    update: Callable[[np.ndarray], np.ndarray],
    init,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Iterate a map on class-0 CDF values until the sup-norm change is small.

    Stops when the largest absolute change across support points is <= tol or
    after ``max_iter`` iterations; the diagnostics record which. On
    non-convergence the last iterate is returned with converged=False, left
    for the caller to judge.
    """
    current = np.array(init, dtype=float, copy=True)
    if current.ndim != 1 or current.size == 0:
        raise DomainError("init must be a non-empty vector")
    if np.any(current <= 0.0) or np.any(current >= 1.0):
        raise DomainError("init values must lie strictly inside (0, 1)")
    if current.size > 1 and np.any(np.diff(current) <= 0.0):
        raise DomainError("init values must be strictly increasing")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    delta = np.inf
    iterations = 0
    for _ in range(max_iter):
        new = np.asarray(update(current), dtype=float)
        delta = float(np.max(np.abs(new - current)))
        current = new
        iterations += 1
        if delta <= tol:
            break
    converged = delta <= tol
    diag = SolveDiagnostics(
        iterations=iterations, converged=converged, residual_fixed_point=delta
    )
    return current, diag
