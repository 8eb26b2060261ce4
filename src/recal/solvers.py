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
    tolerance; residuals that do not apply to a method, or that the run
    did not compute, are ``None``.
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
) -> float:
    """Root search for a non-decreasing scalar function: returns x with
    |f(x)| <= tol or bracket width <= tol * max(1, |x|).

    One loop keeps the probe nearest the root on each side, with f < 0
    below it and f > 0 above; a probe where f is not finite counts as the
    end on the side the search was moving toward. The search starts at
    ``x0`` (else the midpoint of [lo, hi]), where f must be finite. Until
    both ends are seen, each step is the Newton step on ``fprime``, clamped
    to +-``width``. A clamped step, or one with no positive derivative or
    too short to move, goes ``width`` toward the root's side and doubles it.
    ``width`` starts at half of [lo, hi], so the walk from the midpoint
    probes hi, then hi + (hi - lo), and so on. A step that cannot move or
    leaves the float range, or more than ``MAX_EXPANSIONS`` doublings, raise
    :class:`NoRootError`, which carries the probed interval. In the bracket
    each step is the midpoint, or with ``fprime`` Newton from the last point
    where that stays inside the bracket, the derivative is positive and the
    step halves the one before (``rtsafe``, *Numerical Recipes* section
    9.4). A width stop returns the end with the smaller |f|; a bracket that
    closes on an end where f is not finite raises :class:`NoRootError`.
    Each ``fprime(x)`` call comes right after ``f(x)`` at the same x, with
    no call between them, so ``fprime`` may reuse what ``f`` computed there.
    """
    if not math.isfinite(lo) or not math.isfinite(hi) or lo > hi:
        raise DomainError("bisect_root needs a finite interval with lo <= hi")
    if x0 is None:
        x0 = 0.5 * (lo + hi)
    x, fx = x0, float(f(x0))
    if not math.isfinite(fx):
        raise NoRootError(f"f is not finite at {x!r}", probed_interval=(lo, hi))
    width, expansions, up = 0.5 * (hi - lo), 0, True
    neg = pos = None  # (x, f(x)) of the probes nearest the root below / above it
    for _ in range(MAX_BISECT_ITER):
        if abs(fx) <= tol:
            return x
        if fx < 0.0 or not (fx > 0.0 or up):
            neg = x, fx
        else:
            pos = x, fx
        slope = float(fprime(x)) if fprime is not None and math.isfinite(fx) else math.nan
        step = fx / slope if slope > 0.0 else math.nan
        if neg is None or pos is None:
            up = pos is None
            if not abs(step) <= width or x - step == x:
                step, width, expansions = -width if up else width, 2.0 * width, expansions + 1
            trial = x - step
            if trial == x or not math.isfinite(trial) or expansions > MAX_EXPANSIONS:
                break
            lo, hi = min(lo, trial), max(hi, trial)
        else:
            if pos[0] - neg[0] <= tol * max(1.0, abs(x)):
                break
            trial = x - step
            if not (neg[0] < trial < pos[0] and 2.0 * abs(step) <= step_before):
                trial = 0.5 * (neg[0] + pos[0])
            if not neg[0] < trial < pos[0]:  # the ends are adjacent floats
                break
        step_before, x, fx = abs(x - trial), trial, float(f(trial))
    if neg is None or pos is None:
        raise NoRootError(
            f"no sign change over [{lo!r}, {hi!r}] within {MAX_EXPANSIONS} expansions",
            probed_interval=(lo, hi),
        )
    for end in (neg, pos):
        if not math.isfinite(end[1]):
            raise NoRootError(f"f is not finite at {end[0]!r}", probed_interval=(lo, hi))
    return pos[0] if abs(pos[1]) < abs(neg[1]) else neg[0]


def _closed_form_solve(a, b):
    """a^-1 b for a 1 x 1 or 2 x 2 matrix ``a`` (nested lists of floats) by
    Cramer's rule, or None where its determinant is 0 or not finite; the
    entries of ``b`` may be floats or arrays of one shape."""
    det = a[0][0] if len(b) == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if not (det != 0.0 and math.isfinite(det)):
        return None
    if len(b) == 2:
        b = (a[1][1] * b[0] - a[0][1] * b[1], a[0][0] * b[1] - a[1][0] * b[0])
    return [x / det for x in b]


def _moment_rows(weights, values, merged, pdf, x):
    """(w pdf, dA/dv pdf, J): the derivatives of the mean and the AUC of values
    = link(alpha x + beta) in each link argument, from the link's ``pdf``
    (overwritten by the first) and the :func:`_merged` result of ``values``,
    and their 2 x 2 Jacobian J in (alpha, beta), one row per moment."""
    auc_rows = _merged_gradient(weights, values, merged)
    auc_rows *= pdf
    pdf *= weights
    return pdf, auc_rows, [[float(np.dot(r, x)), float(r.sum())] for r in (pdf, auc_rows)]


def intercept_root(family, alpha, target, tol, beta_start):
    """Solve the mean equation w . link(alpha x + beta) = q of ``target`` in
    beta on the :class:`TransformFamily` ``family`` by :func:`bisect_root`
    from ``beta_start`` on [beta_start - 2, beta_start + 2], widened as
    needed, with Newton steps on the derivative w . link_pdf, taken at the
    link argument and values of the mean evaluation at the same beta.
    Returns (beta, link argument, link values, |mean residual|, mean
    evaluations) there; a :class:`NoRootError` propagates."""
    weights, q, ax = target.feature_dist.probs, target.prior, alpha * family.x
    evals = 0
    last = None  # (beta, link argument, link values, mean residual) of the last evaluation

    def mean_resid(beta: float) -> float:
        nonlocal evals, last
        evals += 1
        z = ax + beta
        values = family.link(z)
        last = beta, z, values, float(np.dot(weights, values)) - q
        return last[3]

    def mean_slope(beta: float) -> float:
        return float(np.dot(weights, family.link_pdf(last[1], last[2])))

    beta = bisect_root(
        mean_resid, beta_start - 2.0, beta_start + 2.0, tol, fprime=mean_slope, x0=beta_start
    )
    if beta != last[0]:
        mean_resid(beta)
    return beta, last[1], last[2], abs(last[3]), evals


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
    """eta = sigmoid(a * logit(u) + b), strictly increasing for a > 0, and at
    a = 1 label shift and FJS; numpy forms logit(u) = log(u) - log1p(-u) on
    any support, infinite and refused with no warning at a u of 0 or 1."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(u) - np.log1p(-u)
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
    (a probe) :func:`intercept_root` solves the strictly monotone mean
    equation, starting where the last slope derivative predicts the
    intercept, else at the last intercept. The slope solves the AUC
    residual in log(alpha) from unit slope, Newton steps clamped to a width
    that starts at 2 and doubles, with derivative dA/dalpha + dA/dbeta
    dbeta/dalpha along the mean equation, dbeta/dalpha = -(dmean/dalpha) /
    (dmean/dbeta), all read from the Jacobian of :func:`_moment_rows`.
    A probe whose intercept cannot pin the mean or whose values saturate a
    class is unhealthy, as is a slope outside [2**-60, 2**60]; the search
    counts it as an end on the side it was moving toward. If no slope
    matches, an :class:`InfeasibleError` reports the AUC range attained over
    the probed slopes.

    ``warm_start = (alpha, beta)`` with alpha in the slope range first takes
    joint Newton steps on (alpha, beta), each from one link evaluation, one
    AUC merge and the 2 x 2 Jacobian of the mean and the AUC, kept only
    while max(|mean residual| / tol_mean, |AUC residual| / (SLOPE_TOL_FRACTION
    * tol_auc)), the two stops of the nested search, shrinks. Where that
    reaches 1 the solve returns there; otherwise the solve is the cold one,
    as it is for an ``alpha`` outside the slope range.

    ``iterations`` counts probes, each joint Newton point as one. ``bracket``
    is the tightest sign change of the AUC residual over the probed slopes,
    widened to hold alpha, or (alpha, alpha) if the search converged without
    one.
    """
    weights, q = target.feature_dist.probs, target.prior
    x = family.x
    if x.shape != weights.shape:
        raise StructuralError(
            f"{family.name}: regressor has {x.size} points, the target support {weights.size}"
        )
    tol_auc = settings.tol_auc
    weights_cdf = target.feature_dist.mid_cdf  # the AUC's prefix sum over increasing values
    slope_tol = SLOPE_TOL_FRACTION * tol_auc
    # a constant transform (slope 0) has AUC exactly 1/2; families that admit
    # it get that exact solution
    constant = family.slope_may_vanish and abs(0.5 - source_auc_target) <= tol_auc
    evals = 0

    def joint_steps(alpha: float, beta: float):
        """Newton steps on (alpha, beta) jointly, each kept only while the
        residual max(|mean - q| / tol_mean, |AUC - target| / slope_tol)
        shrinks and alpha stays in the slope range. Returns the solve's
        (alpha, beta, values, diagnostics) once that residual is at most 1,
        else None."""
        nonlocal evals
        size = math.inf
        for _ in range(MAX_BISECT_ITER):
            if not (1.0 / SLOPE_LIMIT <= alpha <= SLOPE_LIMIT and math.isfinite(beta)):
                break
            evals += 1
            z = alpha * x + beta
            values = family.link(z)
            resid_mean = float(np.dot(weights, values)) - q
            try:
                merged = _merged(weights, values, weights_cdf)
            except DegenerateClassError:
                break
            resid_auc = merged[3] - source_auc_target
            trial = max(abs(resid_mean) / settings.tol_mean, abs(resid_auc) / slope_tol)
            if not trial < size:
                break
            size = trial
            if size <= 1.0:
                return alpha, beta, values, SolveDiagnostics(
                    iterations=evals, converged=True, residual_mean=abs(resid_mean),
                    residual_auc=abs(resid_auc), bracket=(alpha, alpha), implied_auc=merged[3],
                )
            jacobian = _moment_rows(weights, values, merged, family.link_pdf(z, values), x)[2]
            step = _closed_form_solve(jacobian, (resid_mean, resid_auc))
            if step is None:
                break
            alpha, beta = alpha - step[0], beta - step[1]
        return None

    if warm_start is not None:
        alpha0, beta0 = (float(v) for v in warm_start)
        if not (0.0 <= alpha0 < math.inf and math.isfinite(beta0)):
            raise DomainError(
                "solve_qmm_2d: warm_start needs a finite alpha >= 0 and a finite beta"
            )
        if not constant and 1.0 / SLOPE_LIMIT <= alpha0 <= SLOPE_LIMIT:
            solved = joint_steps(alpha0, beta0)
            if solved is not None:
                return solved

    # log slope -> (alpha, auc, beta, |mean residual|, link values, link argument, AUC merge)
    fits = {}
    tangent = None
    beta_start = 0.0  # the last probe's intercept

    def probe(t: float) -> bool:
        """Solve the mean equation at slope exp(t), record the fit in ``fits``
        and return whether it is healthy: unhealthy fits (NaN AUC) mark the
        numerically attainable edge of the family, where float exhaustion
        keeps the intercept from pinning the mean or the values saturate a
        class."""
        nonlocal evals, beta_start
        evals += 1
        alpha = math.exp(t)
        if tangent is not None:  # the intercept that the last slope derivative predicts
            predicted = tangent[1] + tangent[2] * (alpha - tangent[0])
            beta_start = predicted if math.isfinite(predicted) else beta_start
        fits[t] = (alpha, np.nan, np.nan, np.nan, None, None, None)
        try:
            beta, z, values, resid, _ = intercept_root(
                family, alpha, target, settings.tol_mean, beta_start
            )
        except NoRootError:
            return False
        beta_start = beta
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
        (dmean, mass), (dauc, dauc_dbeta) = _moment_rows(weights, values, merged, pdf, x)[2]
        if not mass > 0.0:  # the link is flat at every point
            return math.nan
        dbeta = -dmean / mass  # dbeta/dalpha along the mean equation
        tangent = alpha, beta, dbeta
        return alpha * (dauc + dbeta * dauc_dbeta)

    if constant:
        # an unhealthy probe reads as not converged; without an intercept
        # root, or when the constant would need q / sum(weights) outside
        # (0, 1), there is no curve to return
        t, bracket = -math.inf, (0.0, 0.0)
        if not 0.0 < q < float(weights.sum()) or not probe(t) and fits[t][4] is None:
            raise InfeasibleError(f"{family.name}: mean equation insoluble at slope 0")
    else:
        probe(0.0)
        if not math.isfinite(fits[0.0][1]):
            raise InfeasibleError(
                f"{family.name}: mean equation insoluble at unit slope; "
                "the transform family is numerically exhausted"
            )
        try:
            t = bisect_root(residual, -2.0, 2.0, slope_tol, fprime=auc_slope, x0=0.0)
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
    healthy = math.isfinite(auc)  # an unhealthy constant probe computed no AUC
    residual_auc = abs(auc - source_auc_target) if healthy else None
    diag = SolveDiagnostics(
        iterations=evals,
        converged=healthy and residual_mean <= settings.tol_mean and residual_auc <= tol_auc,
        residual_mean=residual_mean,
        residual_auc=residual_auc,
        bracket=bracket,
        implied_auc=auc if healthy else None,
    )
    return alpha, beta, values, diag
