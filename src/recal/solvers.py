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
# implied_auc_values is not called here; it stays importable under this
# module's name because perfbench/layers.py wraps it there
from .auc_engine import _merged, _merged_gradient, implied_auc_values  # noqa: F401
from .dist_core import TargetSpec
from .errors import (
    DegenerateClassError, DomainError, InfeasibleError, NoRootError, StructuralError,
)

MAX_EXPANSIONS = 60
MAX_BISECT_ITER = 260
# the slope search of solve_qmm_2d stays within [1 / SLOPE_LIMIT, SLOPE_LIMIT]
SLOPE_LIMIT = 2.0**MAX_EXPANSIONS
# the slope search of solve_qmm_2d stops at this fraction of tol_auc, since
# the curve moves up to several times the AUC residual
SLOPE_TOL_FRACTION = 0.1


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
    ``bracket`` records the sign-change interval that the slope search of
    the two-parameter solve saw, so multiple-solution situations stay
    detectable. ``implied_auc`` is the AUC of the returned curve when the
    solver computed it, so the methods need not compute it again.
    """

    iterations: int
    converged: bool
    residual_mean: float | None = None
    residual_auc: float | None = None
    residual_fixed_point: float | None = None
    bracket: tuple[float, float] | None = None
    implied_auc: float | None = None


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    *,
    fprime: Callable[[float], float] | None = None,
    x0: float | None = None,
    widen: bool = True,
) -> float:
    """Root search for a non-decreasing scalar function: returns x with
    |f(x)| <= tol or bracket width <= tol * max(1, |x|).

    The search starts at ``x0`` (else the midpoint of [lo, hi]). With the
    derivative ``fprime``, Newton steps run from there, each at most half as
    long as [lo, hi], while the derivative is positive and |f| shrinks. A
    point where f is not finite is overshoot, moved halfway back toward the
    nearest probe until f is finite there. The first sign change seen is the
    bracket; until one is seen, without ``fprime`` or once Newton stalls,
    the search walks from the probes toward the root's side, to that end of
    [lo, hi] and then by a width that doubles each round. With ``widen``
    False every probe stays inside [lo, hi]. A needed widening that
    ``widen`` forbids, an empty interval, ``MAX_EXPANSIONS`` rounds or
    widening after an overshoot raise :class:`NoRootError`, which carries
    the probed interval. In the bracket each step is the midpoint, or with
    ``fprime`` Newton from the last point where that stays inside the
    bracket, the derivative is positive and the step halves the one before
    (``rtsafe`` in *Numerical Recipes*); overshoot replaces the upper end. A
    width stop returns the end with the smaller |f|.
    """
    if not math.isfinite(lo) or not math.isfinite(hi) or lo > hi:
        raise DomainError("bisect_root needs a finite interval with lo <= hi")
    width, cap, expansions = hi - lo, 0.5 * (hi - lo), 0
    if x0 is None or not (widen or lo <= x0 <= hi):
        x0 = 0.5 * (lo + hi)
    x, fx = x0, float(f(x0))
    neg = pos = None  # (x, f(x)) of the probes nearest the root with f < 0 / f > 0
    newton, edge = fprime is not None and math.isfinite(fx), False
    for _ in range(MAX_BISECT_ITER):
        if abs(fx) <= tol:
            return x
        if fx < 0.0 and (neg is None or x > neg[0]):
            neg = (x, fx)
        elif fx > 0.0 and (pos is None or x < pos[0]):
            pos = (x, fx)
        if neg and pos:
            break
        up = pos is None
        near = neg if up else pos  # None only when f is not finite at x0
        slope = float(fprime(x)) if newton else math.nan
        trial = x - min(max(fx / slope, -cap), cap) if slope > 0.0 else None
        if trial is None or not (widen or lo <= trial <= hi):
            newton, trial = False, hi if up else lo
            if near is not None and (trial <= near[0] if up else trial >= near[0]):
                if edge or width == 0.0 or expansions >= MAX_EXPANSIONS or not widen:
                    raise NoRootError(
                        f"no sign change over [{lo!r}, {hi!r}] after {expansions} "
                        "expansions", probed_interval=(lo, hi),
                    )
                trial = near[0] + width if up else near[0] - width
                width, expansions = 2.0 * width, expansions + 1
        ft = float(f(trial))
        while not math.isfinite(ft) and near is not None and trial != near[0]:
            edge, trial = True, 0.5 * (near[0] + trial)
            ft = float(f(trial))
        if not math.isfinite(ft):
            raise NoRootError(f"f is not finite at {trial!r}", probed_interval=(lo, hi))
        newton = newton and abs(ft) < abs(fx)
        lo, hi, x, fx = min(lo, trial), max(hi, trial), trial, ft
    else:
        raise NoRootError("no sign change found", probed_interval=(lo, hi))
    (lo, flo), (hi, fhi) = neg, pos
    step_before = hi - lo
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        slope = float(fprime(x)) if fprime is not None and math.isfinite(fx) else math.nan
        if slope > 0.0:
            step = fx / slope
            if lo < x - step < hi and 2.0 * abs(step) <= step_before:
                mid = x - step
        step_before = abs(x - mid)
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent floats
            break
        x, fx = mid, float(f(mid))
        if abs(fx) <= tol:
            return x
        if fx < 0.0:
            lo, flo = x, fx
        else:  # also where f is not finite
            hi, fhi = x, fx
        if (hi - lo) <= tol * max(1.0, abs(x)):
            break
    return hi if abs(fhi) < abs(flo) else lo


@dataclass(frozen=True, eq=False)
class TransformFamily:
    """A one-link parametric transform eta = link(a * x + b) over a fixed
    per-point regressor x.

    ``link_pdf(z, v)`` is the derivative of ``link`` at z, given the link's
    values v = link(z) there, which the solver holds already: the logistic
    pdf is v (1 - v), while the normal pdf ignores v. The solver's Newton
    steps use it. ``x`` is copied to float64 and made read-only; a
    regressor that is not finite everywhere raises a :class:`DomainError`
    naming the family. Every family is non-decreasing in x for a >= 0, the
    slope range the solver searches.
    """

    name: str
    link: Callable[[np.ndarray], np.ndarray]
    link_pdf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x: np.ndarray
    slope_may_vanish: bool

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        if not np.isfinite(x).all():
            raise DomainError(f"{self.name}: transform regressor is not finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def expit(z):
    """The logistic link 1 / (1 + exp(-z)); a module attribute that families
    bind when built.

    numpy's vectorised exp makes this several times faster than
    ``scipy.special.expit``. It gives exactly 0 and 1 at the same z and is
    within a few ulps of it elsewhere; an exp that overflows to inf gives 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def ndtr(z):
    """The standard normal CDF link; bound like :func:`expit`."""
    return sp.ndtr(z)


def _logistic_pdf(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Derivative v (1 - v) of the logistic link, from its values v = expit(z)."""
    return v * (1.0 - v)


def _normal_pdf(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Derivative of the ``ndtr`` link: the standard normal density at z."""
    return np.exp(-0.5 * np.square(z)) / np.sqrt(2.0 * np.pi)


def platt_family(u) -> TransformFamily:
    """eta = sigmoid(a * u + b) on the raw posterior values u; a >= 0."""
    return TransformFamily("platt", expit, _logistic_pdf, u, slope_may_vanish=True)


def logistic_cspd_family(u) -> TransformFamily:
    """eta = sigmoid(a * logit(u) + b); strictly increasing needs a > 0."""
    x = sp.logit(np.asarray(u, dtype=float))
    return TransformFamily("logistic_cspd", expit, _logistic_pdf, x, slope_may_vanish=False)


def normal_cspd_family(u) -> TransformFamily:
    """eta = ndtr(a * ndtri(u) + b); strictly increasing needs a > 0."""
    x = sp.ndtri(np.asarray(u, dtype=float))
    return TransformFamily("normal_cspd", ndtr, _normal_pdf, x, slope_may_vanish=False)


def rob_logit_family(z) -> TransformFamily:
    """eta_i = sigmoid(a * z_i + b) on the probit z_i = ndtri(F0_i) of the
    class-0 CDF at each support point.

    The paper writes this transform as 1 / (1 + exp(b' + a' * z_i)),
    decreasing in the probit of the class-0 CDF for a' > 0; it is the same
    family with (a', b') = (-a, -b), the form ``two_param_qmm`` reports.
    """
    return TransformFamily("rob_logit", expit, _logistic_pdf, z, slope_may_vanish=True)


def solve_qmm_2d(
    family: TransformFamily,
    source_auc_target: float,
    target: TargetSpec,
    settings: SolverSettings = DEFAULT_SETTINGS,
    warm_start: tuple[float, float] | None = None,
) -> tuple[float, float, np.ndarray, SolveDiagnostics]:
    """Fit (a, b) so the transformed curve has mean q = ``target.prior`` and
    the target AUC; return them with the fitted curve link(a * x + b), which
    the accepted probe computed, and the diagnostics.

    Both levels are :func:`bisect_root` with a derivative. At a fixed slope
    (a probe) the intercept solves the strictly monotone mean equation,
    derivative the link's pdf, starting where the last slope derivative
    predicts it, else at the last intercept. The slope solves the AUC
    residual in log(alpha) from unit slope, Newton steps capped at 2, with
    derivative dA/dalpha = sum_k dA/dv_k pdf_k (x_k + dbeta/dalpha) along
    the mean equation, dbeta/dalpha = -sum(w pdf x) / sum(w pdf) and dA/dv
    from :func:`implied_auc_gradient`. A probe whose intercept cannot pin
    the mean or whose values saturate a class is unhealthy, as is a slope
    outside [2**-60, 2**60]; the search treats it as overshoot. If no slope
    matches, an :class:`InfeasibleError` reports the AUC range attained over
    the probed slopes.

    ``iterations`` counts probes. ``bracket`` is the tightest sign change of
    the AUC residual over the probed slopes, widened to hold alpha, or
    (alpha, alpha) if the search converged without one. ``warm_start =
    (alpha, beta)`` starts both searches there; an ``alpha`` outside the
    slope range or with an unhealthy probe gives the cold solve.
    """
    weights, q = target.feature_dist.probs, target.prior
    x = family.x
    if x.shape != weights.shape:
        raise StructuralError(
            f"{family.name}: regressor has {x.size} points, the target support {weights.size}"
        )
    tol_auc = settings.tol_auc
    wx = weights * x
    weights_cdf = target.feature_dist.mid_cdf  # the AUC's prefix sum over increasing values
    evals = 0
    start, beta_start = 0.0, None  # first log slope probed; the last probe's intercept
    if warm_start is not None:
        alpha0, beta0 = (float(v) for v in warm_start)
        if not (0.0 <= alpha0 < math.inf and math.isfinite(beta0)):
            raise DomainError(
                "solve_qmm_2d: warm_start needs a finite alpha >= 0 and a finite beta"
            )
        if 1.0 / SLOPE_LIMIT <= alpha0 <= SLOPE_LIMIT:
            start, beta_start = math.log(alpha0), beta0

    # log slope -> (alpha, auc, beta, |mean residual|, link values, link argument, AUC merge)
    fits = {}
    tangent = None

    def probe(t: float) -> bool:
        """Solve the mean equation at slope exp(t), record the fit in ``fits``
        and return whether it is healthy: unhealthy fits (NaN AUC) mark the
        numerically attainable edge of the family, where float exhaustion
        keeps the intercept from pinning the mean or the values saturate a
        class."""
        nonlocal evals, beta_start
        evals += 1
        alpha = math.exp(t)
        ax = alpha * x
        # (beta, link argument, link values, mean residual) of the last
        # intercept tried; the Newton step's derivative reuses them
        last = None

        def mean_resid(beta: float) -> float:
            nonlocal last
            z = ax + beta
            values = family.link(z)
            last = beta, z, values, float(np.dot(weights, values)) - q
            return last[3]

        def mean_slope(beta: float) -> float:
            if beta != last[0]:
                mean_resid(beta)
            return float(np.dot(weights, family.link_pdf(last[1], last[2])))

        if tangent is not None:  # the intercept that the last slope derivative predicts
            predicted = tangent[1] + tangent[2] * (alpha - tangent[0])
            beta_start = predicted if math.isfinite(predicted) else beta_start
        lo, hi = (-2.0, 2.0) if beta_start is None else (beta_start - 2.0, beta_start + 2.0)
        fits[t] = (alpha, np.nan, np.nan, np.nan, None, None, None)
        try:
            beta = bisect_root(
                mean_resid, lo, hi, settings.tol_mean, fprime=mean_slope, x0=beta_start
            )
        except NoRootError:
            return False
        beta_start = beta
        if beta != last[0]:
            mean_resid(beta)
        _, z, values, resid = last
        resid = abs(resid)
        fits[t] = (alpha, np.nan, beta, resid, values, z, None)
        if resid > settings.tol_mean:
            return False
        try:
            merged = _merged(weights, values, weights_cdf)
        except DegenerateClassError:
            return False
        fits[t] = (alpha, merged[3], beta, resid, values, z, merged)
        return True

    def residual(t: float) -> float:
        if t not in fits:
            if not 1.0 / SLOPE_LIMIT <= math.exp(t) <= SLOPE_LIMIT:
                return math.nan
            probe(t)
        return fits[t][1] - source_auc_target

    def auc_slope(t: float) -> float:
        """Derivative of the AUC residual in log(alpha) at the probe of t."""
        nonlocal tangent
        alpha, auc, beta, _, values, z, merged = fits[t]
        if not math.isfinite(auc):
            return math.nan
        pdf = family.link_pdf(z, values)
        mass = float(np.dot(weights, pdf))
        if not mass > 0.0:  # the link is flat at every point
            return math.nan
        dbeta = -float(np.dot(wx, pdf)) / mass
        tangent = alpha, beta, dbeta
        moved = _merged_gradient(weights, values, merged) * pdf
        return alpha * (float(np.dot(moved, x)) + dbeta * float(moved.sum()))

    if family.slope_may_vanish and abs(0.5 - source_auc_target) <= tol_auc:
        # a constant transform (slope 0) has AUC exactly 1/2; families that
        # admit it get that exact solution. An unhealthy probe reads as not
        # converged; without an intercept root, or when the constant would
        # need q / sum(weights) outside (0, 1), there is no curve to return.
        t, bracket = -math.inf, (0.0, 0.0)
        if not 0.0 < q < float(weights.sum()) or not probe(t) and fits[t][4] is None:
            raise InfeasibleError(f"{family.name}: mean equation insoluble at slope 0")
    else:
        if not probe(start) and start != 0.0:  # an unusable warm slope
            start, beta_start = 0.0, None
            probe(start)
        if not math.isfinite(fits[start][1]):
            raise InfeasibleError(
                f"{family.name}: mean equation insoluble at unit slope; "
                "the transform family is numerically exhausted"
            )
        try:
            t = bisect_root(
                residual, start - 2.0, start + 2.0, SLOPE_TOL_FRACTION * tol_auc,
                fprime=auc_slope, x0=start,
            )
        except NoRootError:
            aucs = [fit[1] for fit in fits.values() if math.isfinite(fit[1])]
            raise InfeasibleError(
                f"{family.name}: target AUC {source_auc_target!r} lies outside the AUC "
                f"range [{min(aucs)!r}, {max(aucs)!r}] attained over the probed slopes",
                attainable_auc_range=(min(aucs), max(aucs)),
            ) from None
        alpha = fits[t][0]
        below = [fit[0] for fit in fits.values() if fit[1] < source_auc_target]
        above = [fit[0] for fit in fits.values() if fit[1] > source_auc_target]
        bracket = (alpha, alpha)
        if below and above:
            bracket = (min(max(below), alpha), max(min(above), alpha))

    alpha, auc, beta, residual_mean, values, _, _ = fits[t]
    residual_auc = abs(auc - source_auc_target)
    diag = SolveDiagnostics(
        iterations=evals,
        converged=residual_mean <= settings.tol_mean and residual_auc <= tol_auc,
        residual_mean=residual_mean,
        residual_auc=residual_auc,
        bracket=bracket,
        implied_auc=auc if math.isfinite(auc) else None,
    )
    return alpha, beta, values, diag
