"""The eight recalibration methods.

Each method maps a source model and a target spec to a recalibrated
posterior curve over the shared support, together with the achieved mean,
the implied AUC, the fitted parameters and solver diagnostics. Methods are
pure given their inputs; distinct methods can run concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _special as sp
# adjusted_cdf and class_conditionals are not called here; they stay importable
# under this module's name because perfbench/layers.py wraps them there
from .auc_engine import adjusted_cdf, class_conditionals, implied_auc_values, mid_cdf  # noqa: F401
from .dist_core import (
    PROB_SUM_TOL,
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    _require_shared_support,
)
from .errors import DegenerateClassError, DomainError, InfeasibleError, NoRootError
from .solvers import (
    DEFAULT_SETTINGS,
    SolveDiagnostics,
    SolverSettings,
    bisect_root,
    logistic_cspd_family,
    normal_cspd_family,
    platt_family,
    rob_logit_family,
    solve_qmm_2d,
)


class MethodId(enum.Enum):
    """Closed enumeration of the recalibration methods; names are stable."""

    CAPPED_SCALING = "capped_scaling"
    LABEL_SHIFT = "label_shift"
    FJS = "fjs"
    PLATT = "platt"
    LOGISTIC_CSPD = "logistic_cspd"
    NORMAL_CSPD = "normal_cspd"
    ROC_QMM = "roc_qmm"
    TWO_PARAM_QMM = "two_param_qmm"


# results-table row order
CANONICAL_ORDER: tuple[MethodId, ...] = (
    MethodId.CAPPED_SCALING,
    MethodId.LABEL_SHIFT,
    MethodId.FJS,
    MethodId.PLATT,
    MethodId.ROC_QMM,
    MethodId.TWO_PARAM_QMM,
    MethodId.LOGISTIC_CSPD,
    MethodId.NORMAL_CSPD,
)

DISPLAY_LABELS: dict[MethodId, str] = {
    MethodId.CAPPED_SCALING: "Capped scaling",
    MethodId.LABEL_SHIFT: "Label shift",
    MethodId.FJS: "FJS",
    MethodId.PLATT: "Platt scaling",
    MethodId.ROC_QMM: "ROC QMM",
    MethodId.TWO_PARAM_QMM: "2-param QMM",
    MethodId.LOGISTIC_CSPD: "Logistic CSPD",
    MethodId.NORMAL_CSPD: "Normal CSPD",
}


@dataclass(frozen=True, eq=False)
class RecalResult:
    """Recalibrated posterior curve plus everything needed to audit it."""

    method: MethodId
    posterior: PosteriorCurve
    achieved_mean: float
    implied_auc: float
    params: dict[str, float]
    diagnostics: SolveDiagnostics


def _require_inside_unit(values, message: str) -> None:
    """Raise a :class:`DomainError` with ``message`` unless every value lies
    strictly inside (0, 1), where its probit is finite."""
    if not (np.all(values > 0.0) and np.all(values < 1.0)):
        raise DomainError(message)


def _require_interior(src: SourceModel, method: str) -> None:
    _require_inside_unit(
        src.posterior.values, f"{method}: source posterior values must lie strictly inside (0, 1)"
    )


def _finish(
    method: MethodId,
    tgt: TargetSpec,
    values: np.ndarray,
    params: dict[str, float],
    diagnostics: SolveDiagnostics,
) -> RecalResult:
    curve = PosteriorCurve(tgt.support, values)
    auc = diagnostics.implied_auc  # the AUC a QMM solve's accepted probe computed
    if auc is None:
        auc = implied_auc_values(tgt.feature_dist.probs, curve.values)
    return RecalResult(
        method=method,
        posterior=curve,
        achieved_mean=float(np.dot(tgt.feature_dist.probs, curve.values)),
        implied_auc=auc,
        params=params,
        diagnostics=diagnostics,
    )


def _match_mean(method, tgt, curve_at, lo, hi, param, settings, widen=True) -> RecalResult:
    """Solve mean(curve_at(t)) = q under the target features for the one
    parameter t, reported as ``param``: a bisection from [lo, hi], widened
    unless ``widen`` is False, with one diagnostics iteration per mean
    evaluation."""
    q = tgt.prior
    weights = tgt.feature_dist.probs
    evals = 0

    def mean_resid(t: float) -> float:
        nonlocal evals
        evals += 1
        return float(np.dot(weights, curve_at(t))) - q

    t = bisect_root(mean_resid, lo, hi, settings.tol_mean, widen=widen)
    values = curve_at(t)
    residual = abs(float(np.dot(weights, values)) - q)
    diag = SolveDiagnostics(
        iterations=evals,
        converged=residual <= settings.tol_mean,
        residual_mean=residual,
    )
    return _finish(method, tgt, values, {param: float(t)}, diag)


def capped_scaling(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Scale the source posterior by t, capping at 1, so the mean hits q.

    The capped mean is continuous and non-decreasing in t with range (0, 1],
    so a bracketed bisection always finds t; it is -q at t = 0, so the search
    never goes below 0. The cap can flatten the curve at value 1 but nowhere
    else.
    """
    _require_shared_support(src.support, tgt.support, "source and target")
    eta = src.posterior.values
    return _match_mean(
        MethodId.CAPPED_SCALING, tgt, lambda t: np.minimum(t * eta, 1.0),
        0.0, 2.0, "t", settings,
    )


def _fjs_values(eta: np.ndarray, p: float, q: float, rho: float) -> np.ndarray:
    # rho = 1 is label shift, bit for bit: (1.0 / 1.0) * c == c
    num = (q / p) * eta
    den = num + (1.0 / rho) * ((1.0 - q) / (1.0 - p)) * (1.0 - eta)
    return num / den


def label_shift_correct(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Posterior correction for a prior moving from p to q with unchanged
    class-conditional feature distributions: FJS with class-0 weight 1.

    The achieved mean equals q only when the target feature distribution is
    the corresponding mixture of the source class conditionals; whatever mean
    obtains is recorded, never forced.
    """
    _require_shared_support(src.support, tgt.support, "source and target")
    _require_interior(src, "label_shift")
    values = _fjs_values(src.posterior.values, src.prior, tgt.prior, 1.0)
    diag = SolveDiagnostics(iterations=0, converged=True)
    return _finish(MethodId.LABEL_SHIFT, tgt, values, {}, diag)


def fjs_bounds(src: SourceModel, tgt: TargetSpec) -> tuple[float, float]:
    """Closed interval that always contains the factorizable-shift weight."""
    p = src.prior
    eta = src.posterior.values
    weights = tgt.feature_dist.probs
    odds = eta / (1.0 - eta)
    lower = p / ((1.0 - p) * float(np.dot(weights, odds)))
    upper = p / (1.0 - p) * float(np.dot(weights, 1.0 / odds))
    return lower, upper


def fjs_recalibrate(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Recalibrate under factorizable joint shift.

    The class-0 density weight rho is the unique root of the mean equation
    and always lies inside :func:`fjs_bounds`; the bisection runs on that
    closed interval with no expansion, and a missing sign change is surfaced
    as infeasibility rather than hidden.
    """
    _require_shared_support(src.support, tgt.support, "source and target")
    _require_interior(src, "fjs")
    p, q = src.prior, tgt.prior
    eta = src.posterior.values
    lower, upper = fjs_bounds(src, tgt)
    try:
        return _match_mean(
            MethodId.FJS, tgt, lambda rho: _fjs_values(eta, p, q, rho),
            lower, upper, "rho", settings, widen=False,
        )
    except NoRootError as exc:
        raise InfeasibleError(
            f"fjs: no sign change of the mean equation over the weight bounds "
            f"[{lower!r}, {upper!r}]"
        ) from exc


_PARAMETRIC_FAMILIES = {
    MethodId.PLATT: platt_family,
    MethodId.LOGISTIC_CSPD: logistic_cspd_family,
    MethodId.NORMAL_CSPD: normal_cspd_family,
}


def parametric_cspd_qmm(
    src: SourceModel,
    tgt: TargetSpec,
    family: MethodId,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RecalResult:
    """Two-parameter transform of the source posterior fitted by quasi moment
    matching: mean q and the source implied AUC.

    ``family`` picks the transform: a sigmoid of an affine map of the raw
    posterior values (Platt), or an affine map in logit or probit space
    composed with the matching distribution function.
    """
    _require_shared_support(src.support, tgt.support, "source and target")
    _require_interior(src, family.value)
    if family not in _PARAMETRIC_FAMILIES:
        raise DomainError(f"{family!r} is not a parametric transform family")
    fam = _PARAMETRIC_FAMILIES[family](src.posterior.values)
    auc_target = src.implied_auc
    a, b, values, diag = solve_qmm_2d(fam, auc_target, tgt.prior, tgt, settings)
    return _finish(family, tgt, values, {"a": float(a), "b": float(b)}, diag)


def _class0_cdf(stage: str, d0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjusted CDF F = mid_cdf(d0) of class-0 masses and its two-sided
    probit z: ndtri(F) where F <= 1/2, above it -ndtri of the adjusted
    survival sum, which stays finite where F rounds to 1. A z that is not
    finite raises a :class:`DomainError` that starts with ``stage``."""
    f0 = mid_cdf(d0)
    upper = int(np.searchsorted(f0, 0.5, "right"))  # F is non-decreasing
    # one ndtri call, so that the support's size alone picks its path
    z = sp.ndtri(np.concatenate((f0[:upper], mid_cdf(d0[upper:][::-1])[::-1])))
    z[upper:] = -z[upper:]
    if not np.all(np.isfinite(z)):
        raise DomainError(
            f"{stage} has values outside (0, 1), where their probit is not finite "
            "(a zero class-0 mass at an end of the support puts one there)"
        )
    return f0, z


def _refreshed_f0(method: str, feature: DiscreteScoreDist, values: np.ndarray):
    """The class-0 CDF and its probit (:func:`_class0_cdf`) implied by a
    posterior over the target features. F has the bits of
    ``adjusted_cdf(class_conditionals(feature, curve).dist0)``, with the
    checks of that path: the posterior mean must leave both classes
    non-empty (:class:`DegenerateClassError`) and the class-0 mass must sum
    to 1 within ``PROB_SUM_TOL`` (:class:`DomainError`). Each error names
    the method and the stage."""
    stage = f"{method}: class-0 CDF refresh"
    probs = feature.probs
    pbar = float(np.dot(probs, values))
    if not (0.0 < pbar < 1.0):
        raise DegenerateClassError(f"{stage}: posterior mean {pbar!r} leaves one class empty")
    d0 = probs * (1.0 - values) / (1.0 - pbar)
    mass = float(d0.sum())
    if abs(mass - 1.0) > PROB_SUM_TOL:
        raise DomainError(f"{stage}: class-0 mass sums to {mass!r}, not 1 within {PROB_SUM_TOL}")
    return _class0_cdf(stage, d0)


def fixed_point_f0(method, feature, tol, max_iter, fit):
    """Alternate ``fit(z) -> (alpha, beta, values, diag)`` with the refresh
    of the class-0 CDF F and its probit z from ``values``, starting from the
    target law ``feature``, until the sup-norm change over F and the last two
    fits' (alpha, beta) is at most ``tol`` or for ``max_iter`` steps; the one
    loop of :func:`roc_qmm` and :func:`two_param_qmm`. The change is measured
    from step 2 on, so ``residual_fixed_point`` is None until then. Returns
    the last z, the diagnostics and the last fit; ``max_iter`` below 1 raises
    a :class:`DomainError` naming ``method``."""
    if max_iter < 1:
        raise DomainError(f"{method}: max_iter must be at least 1")
    f0, z = _class0_cdf(f"{method}: initial class-0 CDF", feature.probs)
    delta = last = None
    for step in range(1, max_iter + 1):
        fitted = fit(z)
        f0_new, z = _refreshed_f0(method, feature, fitted[2])
        if last is not None:
            delta = float(np.max(np.abs(f0_new - f0)))
            delta = max(delta, abs(fitted[0] - last[0]), abs(fitted[1] - last[1]))
        last, f0 = fitted, f0_new
        converged = delta is not None and delta <= tol
        if converged:
            break
    diag = SolveDiagnostics(iterations=step, converged=converged, residual_fixed_point=delta)
    return z, diag, fitted


def _source_auc(method: str, src: SourceModel, tgt: TargetSpec) -> float:
    """The source implied AUC, strictly inside (0, 1), on the target's support."""
    _require_shared_support(src.support, tgt.support, "source and target")
    auc_src = src.implied_auc
    _require_inside_unit(auc_src, f"{method}: source implied AUC must lie strictly inside (0, 1)")
    return auc_src


def roc_qmm(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Recalibrate through a one-parameter ROC shape matched to the source AUC.

    The shape parameter is c = sqrt(2) * ndtri(source implied AUC). The
    posterior is sigmoid(c * ndtri(F0) + logit(q) - c**2 / 2), the
    two-parameter transform of :func:`two_param_qmm` held at the constants of
    the equal-variance binormal ROC. The unknown class-0 CDF F0 starts from
    the adjusted CDF of the unconditional target features and is refined by
    :func:`fixed_point_f0`: posterior from the ROC shape, class-0 conditional
    from that posterior, adjusted CDF again. Achieved mean and AUC are
    approximate by construction and are reported, not forced.
    """
    auc_src = _source_auc("roc_qmm", src, tgt)
    c = float(np.sqrt(2.0) * sp.normal_ppf(auc_src))
    b = sp.log_odds(tgt.prior) - c * c / 2.0

    def fit(z: np.ndarray):
        fam = rob_logit_family(z)
        return c, b, fam.link(c * fam.x + b), None

    z, diag, _ = fixed_point_f0(
        "roc_qmm", tgt.feature_dist, settings.tol_fixed_point, settings.max_iter, fit
    )
    return _finish(MethodId.ROC_QMM, tgt, fit(z)[2], {"c": c}, diag)


def two_param_qmm(
    src: SourceModel,
    tgt: TargetSpec,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RecalResult:
    """Two-parameter logistic transform of the probit class-0 CDF, alternated
    with refinement of that CDF.

    Each outer step of :func:`fixed_point_f0` solves (a, b) against the
    targets (q, source implied AUC) at the current class-0 CDF, then refreshes
    the CDF from the resulting posterior exactly as the ROC-based scheme does.
    From the second step on the inner solve is warm-started from the previous
    step's (alpha, beta); it meets the same tolerances as a cold solve, which
    keeps the fit within the joint tolerance of the cold alternation's. An
    inner solve that finds the targets infeasible raises an
    :class:`InfeasibleError` naming this method and the outer step. The loop
    stops when the CDF values and (a, b) are jointly stable to
    ``settings.tol_fixed_point``. The solver fits sigmoid(alpha * ndtri(F0)
    + beta) with alpha >= 0; the reported (a, b) = (-alpha, -beta) and slope
    bracket are those of the paper's literal form 1 / (1 + exp(b + a *
    ndtri(F0))), so a is negative for an increasing net effect.
    """
    auc_src = _source_auc("two_param_qmm", src, tgt)
    # the inner solves must be pinned well below the joint stability
    # tolerance, otherwise (a, b) jitter at the solver's own stopping
    # granularity and the alternation cycles instead of settling
    inner_settings = replace(
        settings, tol_mean=min(settings.tol_mean, 1e-12), tol_auc=min(settings.tol_auc, 1e-11)
    )
    warm_start = None
    steps = 0

    def fit(z: np.ndarray):
        nonlocal warm_start, steps
        steps += 1
        try:
            alpha, beta, values, inner = solve_qmm_2d(
                rob_logit_family(z), auc_src, tgt.prior, tgt, inner_settings,
                warm_start=warm_start,
            )
        except InfeasibleError as exc:
            raise InfeasibleError(
                f"two_param_qmm: inner (a, b) solve at outer step {steps}: {exc}",
                attainable_auc_range=exc.attainable_auc_range,
            ) from exc
        warm_start = (alpha, beta)  # the next solve starts here
        return alpha, beta, values, inner

    _, diag, (alpha, beta, values, inner) = fixed_point_f0(
        "two_param_qmm", tgt.feature_dist, settings.tol_fixed_point, settings.max_iter, fit
    )
    converged = (
        diag.converged
        and inner.residual_mean <= settings.tol_mean
        and inner.residual_auc <= settings.tol_auc
    )
    diag = replace(
        diag, converged=converged, residual_mean=inner.residual_mean,
        residual_auc=inner.residual_auc, bracket=(-inner.bracket[1], -inner.bracket[0]),
        implied_auc=inner.implied_auc,
    )
    return _finish(
        MethodId.TWO_PARAM_QMM, tgt, values, {"a": -float(alpha), "b": -float(beta)}, diag
    )


_RUNNERS = {
    MethodId.CAPPED_SCALING: capped_scaling,
    MethodId.LABEL_SHIFT: label_shift_correct,
    MethodId.FJS: fjs_recalibrate,
    MethodId.ROC_QMM: roc_qmm,
    MethodId.TWO_PARAM_QMM: two_param_qmm,
    **{m: partial(parametric_cspd_qmm, family=m) for m in _PARAMETRIC_FAMILIES},
}


def run_method(
    method: MethodId,
    src: SourceModel,
    tgt: TargetSpec,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RecalResult:
    """Dispatch a method id to its implementation."""
    if method not in _RUNNERS:
        raise DomainError(f"unknown method {method!r}")
    return _RUNNERS[method](src, tgt, settings=settings)
