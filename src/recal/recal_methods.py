"""The eight recalibration methods.

Each method maps a source model and a target spec to a recalibrated
posterior curve over the shared support, together with the achieved mean,
the implied AUC, the fitted parameters and solver diagnostics. Methods are
pure given their inputs; distinct methods can run concurrently.

Both QMMs iterate the class-0 CDF to a fixed point, and ``two_param_qmm``
starts its alternation where ``roc_qmm``'s converged. Inside
:func:`_sharing_roc_fixed_point`, the block ``scenario.run_methods`` runs
the methods in, that fixed point is computed once for both; outside it each
method computes its own, to the same bits, so no output depends on which
other methods run.
"""

from __future__ import annotations

import contextvars
import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _special as sp
# adjusted_cdf and class_conditionals are not called here; they stay importable
# under this module's name because perfbench/layers.py wraps them there
from .auc_engine import (  # noqa: F401
    _merged, adjusted_cdf, class_conditionals, implied_auc_values, mid_cdf,
)
from .dist_core import (
    DiscreteScoreDist,
    PosteriorCurve,
    SourceModel,
    TargetSpec,
    _require_shared_support,
)
from .errors import DegenerateClassError, DomainError, InfeasibleError, NoRootError, RecalError
from .solvers import (
    DEFAULT_SETTINGS,
    SolveDiagnostics,
    SolverSettings,
    _closed_form_solve,
    _moment_rows,
    _normal_pdf,
    bisect_root,
    intercept_root,
    logistic_cspd_family,
    normal_cspd_family,
    platt_family,
    rob_logit_family,
    solve_qmm_2d,
)

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


class MethodId(enum.Enum):
    """The recalibration methods in results-table order; names are stable."""

    CAPPED_SCALING = "capped_scaling"
    LABEL_SHIFT = "label_shift"
    FJS = "fjs"
    PLATT = "platt"
    ROC_QMM = "roc_qmm"
    TWO_PARAM_QMM = "two_param_qmm"
    LOGISTIC_CSPD = "logistic_cspd"
    NORMAL_CSPD = "normal_cspd"


CANONICAL_ORDER: tuple[MethodId, ...] = tuple(MethodId)

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


def _require_interior(src: SourceModel, method: str) -> None:
    """Refuse a source posterior outside (0, 1), where its probit is not finite."""
    values = src.posterior.values
    if not (np.all(values > 0.0) and np.all(values < 1.0)):
        raise DomainError(f"{method}: source posterior values must lie strictly inside (0, 1)")


def _source_auc(method: str, src: SourceModel, tgt: TargetSpec) -> float:
    """The source implied AUC, strictly inside (0, 1), on the target's
    support; each error names ``method``."""
    _require_shared_support(src.support, tgt.support, "source and target")
    try:
        auc_src = src.implied_auc
    except DegenerateClassError as exc:
        raise DegenerateClassError(f"{method}: source implied AUC: {exc}") from exc
    if not 0.0 < auc_src < 1.0:
        raise DomainError(f"{method}: source implied AUC must lie strictly inside (0, 1)")
    return auc_src


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
        try:
            auc = implied_auc_values(
                tgt.feature_dist.probs, curve.values, tgt.feature_dist.mid_cdf
            )
        except DegenerateClassError as exc:
            raise DegenerateClassError(f"{method.value}: recalibrated curve: {exc}") from exc
    return RecalResult(
        method=method,
        posterior=curve,
        achieved_mean=float(np.dot(tgt.feature_dist.probs, curve.values)),
        implied_auc=auc,
        params=params,
        diagnostics=diagnostics,
    )


def capped_scaling(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Scale the source posterior by t, capping at 1, so the mean hits q.

    The capped mean is continuous, piecewise linear, concave and
    non-decreasing in t. It is 0 at t = 0 and rises to the target mass
    sum(w) over the points with eta > 0, so the search finds t for any q up
    to that mass; a q above it cannot be reached, and the search raises an
    :class:`InfeasibleError` naming this method and the interval searched.
    The mean residual is -q at t = 0, so the search never goes below 0. Its
    derivative is the weighted sum of eta over the points the cap leaves
    free. The search starts at t0 = q / sum(w * eta), the root when nothing
    is capped and below it otherwise, so its Newton steps climb to the root
    from below; it runs on [0, 2 * t0], or on [0, 2] where 2 * t0 is not
    finite. One diagnostics iteration per mean evaluation. The cap can
    flatten the curve at value 1 but nowhere else.
    """
    _require_shared_support(src.support, tgt.support, "source and target")
    eta = src.posterior.values
    weights, q = tgt.feature_dist.probs, tgt.prior
    mean = float(np.dot(weights, eta))
    t0 = q / mean if mean > 0.0 else math.inf
    hi, x0 = (2.0 * t0, t0) if math.isfinite(2.0 * t0) else (2.0, None)
    evals = 0
    last = None  # (t, capped curve) of the last mean evaluation

    def mean_resid(t: float) -> float:
        nonlocal evals, last
        evals += 1
        last = t, np.minimum(t * eta, 1.0)
        return float(np.dot(weights, last[1])) - q

    def mean_slope(t: float) -> float:
        return float(np.dot(weights, np.where(last[1] < 1.0, eta, 0.0)))

    try:
        t = bisect_root(mean_resid, 0.0, hi, settings.tol_mean, fprime=mean_slope, x0=x0)
    except NoRootError as exc:
        lo, hi = exc.probed_interval
        raise InfeasibleError(
            f"capped_scaling: no sign change of the mean equation in t over [{lo!r}, {hi!r}]"
        ) from exc
    values = last[1] if t == last[0] else np.minimum(t * eta, 1.0)
    residual = abs(float(np.dot(weights, values)) - q)
    diag = SolveDiagnostics(
        iterations=evals, converged=residual <= settings.tol_mean, residual_mean=residual
    )
    return _finish(MethodId.CAPPED_SCALING, tgt, values, {"t": float(t)}, diag)


def _logistic_family(src: SourceModel, tgt: TargetSpec, method: str):
    """The logistic CSPD family of the source posterior and beta0 = logit(q) -
    logit(p), after the shared-support and interior-posterior checks."""
    _require_shared_support(src.support, tgt.support, "source and target")
    _require_interior(src, method)
    fam = logistic_cspd_family(src.posterior.values)
    return fam, sp.log_odds(tgt.prior) - sp.log_odds(src.prior)


def label_shift_correct(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Posterior correction for a prior moving from p to q with unchanged
    class-conditional feature distributions: expit(logit(eta) + logit(q) -
    logit(p)), FJS with class-0 weight 1.

    The achieved mean equals q only when the target feature distribution is
    the corresponding mixture of the source class conditionals; whatever mean
    obtains is recorded, never forced.
    """
    fam, beta0 = _logistic_family(src, tgt, "label_shift")
    diag = SolveDiagnostics(iterations=0, converged=True)
    return _finish(MethodId.LABEL_SHIFT, tgt, fam.link(fam.x + beta0), {}, diag)


def fjs_bounds(src: SourceModel, tgt: TargetSpec) -> tuple[float, float]:
    """Closed interval that always contains the factorizable-shift weight rho
    of :func:`fjs_recalibrate`, which does not search it: the Jensen bounds,
    in order (rounding swaps them where they meet, at a constant posterior)
    and clipped into the normal float range."""
    p = src.prior
    eta = src.posterior.values
    weights = tgt.feature_dist.probs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        odds = eta / (1.0 - eta)
        lower = float(p / ((1.0 - p) * np.dot(weights, odds)))
        upper = float(p / (1.0 - p) * np.dot(weights, 1.0 / odds))
    upper = _HUGE if math.isnan(upper) else upper  # 1 / odds overflowed at a zero mass
    lower, upper = min(max(lower, _TINY), _HUGE), min(max(upper, _TINY), _HUGE)
    return (lower, upper) if lower <= upper else (upper, lower)


def fjs_recalibrate(
    src: SourceModel, tgt: TargetSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> RecalResult:
    """Recalibrate under factorizable joint shift.

    The posterior with class-0 density weight rho is expit(logit(eta) +
    beta0 + log(rho)), beta0 = logit(q) - logit(p): the logistic CSPD family
    at slope 1. :func:`intercept_root` solves the mean equation in beta from
    beta0 (label shift, the root whenever the target is a mixture of the
    source classes), one diagnostics iteration per mean evaluation, and rho =
    exp(beta - beta0) lies inside :func:`fjs_bounds`. A rho that is not a
    positive finite float is surfaced as infeasibility rather than hidden.
    """
    fam, beta0 = _logistic_family(src, tgt, "fjs")
    try:
        beta, _, values, residual, evals = intercept_root(fam, 1.0, tgt, settings.tol_mean, beta0)
        rho = math.exp(beta - beta0)
    except (NoRootError, OverflowError):
        rho = 0.0
    if not rho > 0.0:  # no root, or exp(beta - beta0) left the float range
        raise InfeasibleError(
            "fjs: no sign change of the mean equation in rho over the positive floats"
        )
    diag = SolveDiagnostics(
        iterations=evals, converged=residual <= settings.tol_mean, residual_mean=residual
    )
    return _finish(MethodId.FJS, tgt, values, {"rho": rho}, diag)


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
    composed with the matching distribution function. The CSPDs' logit and
    probit need the posterior strictly inside (0, 1); Platt's raw values do
    not, so a posterior of 0 or 1 is refused for the CSPDs alone.
    """
    if family not in _PARAMETRIC_FAMILIES:
        raise DomainError(f"{family!r} is not a parametric transform family")
    if family is not MethodId.PLATT:
        _require_interior(src, family.value)
    auc_src = _source_auc(family.value, src, tgt)
    fam = _PARAMETRIC_FAMILIES[family](src.posterior.values)
    a, b, values, diag = solve_qmm_2d(fam, auc_src, tgt, settings)
    return _finish(family, tgt, values, {"a": float(a), "b": float(b)}, diag)


def _class0_cdf(stage: str, d0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjusted CDF F = mid_cdf(d0) of class-0 masses and its two-sided
    probit z: ndtri(F) where F <= 1/2, above it -ndtri of the adjusted
    survival sum, which stays finite where F rounds to 1. A z that is not
    finite raises a :class:`DomainError` that starts with ``stage``. A z that
    steps back (ndtri falls by an ulp between some neighbouring floats, and
    the split's two sides rest on different sums) becomes its running maximum."""
    f0 = mid_cdf(d0)
    upper = int(np.searchsorted(f0, 0.5, "right"))  # F is non-decreasing
    # one ndtri call, so that the support's size alone picks its path
    z = sp.ndtri(np.concatenate((f0[:upper], mid_cdf(d0[upper:][::-1])[::-1])))
    np.negative(z[upper:], out=z[upper:])
    if not np.isfinite(z).all():
        raise DomainError(
            f"{stage} has values outside (0, 1), where their probit is not finite "
            "(a zero class-0 mass at an end of the support puts one there)"
        )
    if (z[1:] < z[:-1]).any():  # rare; the running maximum costs more than the test
        np.maximum.accumulate(z, out=z)
    return f0, z


def _refreshed_f0(method: str, feature: DiscreteScoreDist, values: np.ndarray, complement):
    """(F, z, d0): the class-0 masses d0 = p (1 - v) / sum(p (1 - v)) implied
    by a posterior v over the target features, their CDF F and its probit z
    (:func:`_class0_cdf`). ``complement`` is 1 - v, which the fits hold as
    expit(-eta), positive where v rounds to 1. A mean pbar = p . v that
    leaves a class empty, or masses whose sum is not positive and finite,
    raise a :class:`DegenerateClassError`; each error names the method and
    stage."""
    stage = f"{method}: class-0 CDF refresh"
    probs = feature.probs
    pbar = float(np.dot(probs, values))
    if not (0.0 < pbar < 1.0):
        raise DegenerateClassError(f"{stage}: posterior mean {pbar!r} leaves one class empty")
    d0 = complement * probs
    mass = float(d0.sum())
    if not 0.0 < mass < math.inf:
        raise DegenerateClassError(f"{stage}: class-0 masses sum to {mass!r}")
    d0 /= mass
    return (*_class0_cdf(stage, d0), d0)


def _cdf_residual(z: np.ndarray, refreshed: np.ndarray) -> tuple[float, np.ndarray]:
    """max |G(z) - z| phi(G(z)), the fixed-point residual of z in CDF units,
    and the density phi(G(z)) it is weighted by."""
    phi = _normal_pdf(refreshed, None)
    resid = refreshed - z
    np.abs(resid, out=resid)
    resid *= phi
    return float(resid.max()), phi


def _sided_solve(k, g, rhs, upper) -> bool:
    """Overwrite each row w of ``rhs`` with T^-1 w, or return False where a
    cumprod underflows. T = I + K M diag(g) on the rows below ``upper`` and
    I - K M' diag(g) on the rows from it on, with K = diag(k) and M, M' the
    mid-cumsums from the left and from the right, so that each side only
    reaches its own rows.

    Each side is the recurrence y_i = (w_i - k_i S_i) / (1 + x_i), x_i =
    k_i g_i / 2, over the sums S of g y taken from that side's end, with g
    negated on the upper side. S follows S_(i+1) = a_i S_i + e_i with a_i =
    (1 - x_i) / (1 + x_i), so it is the cumprod P of a times the cumsum of
    e / P: one cumprod and one row-major cumsum per side solve every row."""
    signed = g.copy()
    signed[upper:] *= -1.0
    x = k * signed
    x *= 0.5
    inv = 1.0 + x
    np.reciprocal(inv, out=inv)
    prod = np.subtract(1.0, x, out=x)
    prod *= inv
    np.cumprod(prod[:upper], out=prod[:upper])
    np.cumprod(prod[upper:][::-1], out=prod[upper:][::-1])
    if not np.abs(prod).min() >= _TINY:
        return False
    signed *= inv
    signed /= prod
    sums = rhs * signed
    np.cumsum(sums[:, :upper], axis=1, out=sums[:, :upper])
    np.cumsum(sums[:, upper:][:, ::-1], axis=1, out=sums[:, upper:][:, ::-1])
    # w - k S, with S each side's sum one point behind, times P there
    lower = max(upper - 1, 0)
    below, above = sums[:, :lower], sums[:, upper + 1 :]
    below *= prod[:lower]
    below *= k[1 : lower + 1]
    rhs[:, 1 : lower + 1] -= below
    above *= prod[upper + 1 :]
    above *= k[upper:-1]
    rhs[:, upper:-1] -= above
    rhs *= inv
    return True


def _newton_iterate(z, fitted, d0, f0, refreshed, phi):
    """The Newton iterate z + d for the class-0 fixed point z = G(z), or None
    where the plain iterate G(z) is to be taken: where the fit's ``rows`` are
    None, 1 / phi overflows, a cumprod underflows, the small system is
    singular, or the iterate is not finite or steps back somewhere.

    ``fitted`` = (alpha, beta, v = expit(eta), diag, expit(-eta), rows) is the
    fit at z; d0, F, G(z) and phi(G(z)) come from its refresh, d0 the class-0
    masses. With g = alpha d0 v, the Jacobian of G
    is K (-M diag(g) + low rank), K = diag(1 / phi) and M the mid-cumsum,
    which above the F = 1/2 split runs from the right with its sign flipped,
    as the two-sided probit does (:func:`_sided_solve`). A fixed (alpha,
    beta) (empty ``rows``) gives the mean's rank-1 term K (F, or -S above the
    split) g^T; a refit that holds the mean and the AUC gives ``rows`` =
    (dalpha/dz, dbeta/dz) / alpha and the rank-2 term (T - I) [z, 1] rows.
    Sherman-Morrison or Woodbury adds it, with the 1 x 1 or 2 x 2 system of
    :func:`_closed_form_solve`."""
    alpha, _, values, _, _, rows = fitted
    if rows is None:
        return None
    with np.errstate(all="ignore"):
        k = 1.0 / phi
        if not (math.isfinite(k[0]) and math.isfinite(k[-1])):  # G(z) is monotone
            return None
        upper = int(np.searchsorted(f0, 0.5, "right"))
        y = np.empty((3 if rows else 2, z.size))
        np.subtract(refreshed, z, out=y[0])
        if rows:
            y[1] = z
            y[2] = 1.0
        else:  # K times -F below the split and the survival sums S above it
            np.negative(f0[:upper], out=y[1, :upper])
            y[1, upper:] = mid_cdf(d0[upper:][::-1])[::-1]
            y[1] *= k
        g = d0 * alpha
        g *= values
        if not _sided_solve(k, g, y, upper):
            return None
        cols = y[1:]
        if rows:  # I - J = T + (T - I) [z, 1] rows
            np.subtract(z, cols[0], out=cols[0])
            np.subtract(1.0, cols[1], out=cols[1])
        else:  # I - J = T + (K tails) g^T, and y[1] is now T^-1 K tails
            rows = (g,)
        small = [[float(np.dot(r, c)) + (i == j) for j, c in enumerate(cols)]
                 for i, r in enumerate(rows)]
        sol = _closed_form_solve(small, [float(np.dot(r, y[0])) for r in rows])
        if sol is None:
            return None
        step = y[0]
        for coef, col in zip(sol, cols):
            step -= coef * col
        step += z
    if not np.isfinite(step).all() or (step[1:] < step[:-1]).any():
        return None
    return step


def fixed_point_f0(method, tgt, settings, fit, start=None):
    """Solve the class-0 fixed point z = G(z) of :func:`roc_qmm` and
    :func:`two_param_qmm`, from the probit ``start``, else from that of the
    target features' own CDF. G calls
    ``fit(z) -> (alpha, beta, values, diag, complement, rows)``, values =
    expit(alpha z + beta) and complement = expit(-(alpha z + beta)), and
    refreshes F, z and the class-0 masses from them (:func:`_refreshed_f0`).

    Each step tries the Newton iterate of :func:`_newton_iterate` (none
    where ``rows`` is None) and keeps it where G there raises no
    :class:`RecalError` and max |G(z) - z| phi(G(z)) does not rise above the
    last iterate's; a rejected one makes this step and the next plain, G(z).

    The loop stops when the sup-norm change over F and (alpha, beta) between
    the last two fits is at most ``settings.tol_fixed_point`` (None before
    the second), or after ``max_iter`` evaluations of G, rejected ones
    included, which ``iterations`` counts. Returns G at the last iterate,
    the diagnostics and the fit there. ``max_iter`` below 1 raises a
    :class:`DomainError`; an error at the start or at a plain iterate
    propagates, naming ``method`` and the stage."""
    if settings.max_iter < 1:
        raise DomainError(f"{method}: max_iter must be at least 1")
    evals = 0

    def evaluate(z):
        """(fit, F, G(z), class-0 masses, residual, phi(G(z))) at z."""
        nonlocal evals
        evals += 1
        fitted = fit(z)
        f0, refreshed, d0 = _refreshed_f0(method, tgt.feature_dist, fitted[2], fitted[4])
        return (fitted, f0, refreshed, d0, *_cdf_residual(z, refreshed))

    z = start
    if z is None:
        z = _class0_cdf(f"{method}: initial class-0 CDF", tgt.feature_dist.probs)[1]
    fitted, f0, refreshed, d0, resid, phi = evaluate(z)
    delta, converged, rejected = None, False, False
    while not converged and evals < settings.max_iter:
        trial = None
        z_new = None if rejected else _newton_iterate(z, fitted, d0, f0, refreshed, phi)
        rejected = False
        if z_new is not None:
            try:
                trial = evaluate(z_new)
            except RecalError:
                pass
            if trial is None or not trial[4] <= resid:
                if evals == settings.max_iter:
                    break
                trial, rejected = None, True
        if trial is None:
            z_new = refreshed
            trial = evaluate(z_new)
        fitted_new, f0_new = trial[:2]
        change = f0_new - f0
        delta = float(np.abs(change, out=change).max())
        delta = max(delta, abs(fitted_new[0] - fitted[0]), abs(fitted_new[1] - fitted[1]))
        z, (fitted, f0, refreshed, d0, resid, phi) = z_new, trial
        converged = delta <= settings.tol_fixed_point
    diag = SolveDiagnostics(iterations=evals, converged=converged, residual_fixed_point=delta)
    return refreshed, diag, fitted


def _roc_fit(c: float, q: float):
    """The fit of :func:`roc_qmm`: (alpha, beta) held at (c, logit(q) - c**2 / 2)."""
    b = sp.log_odds(q) - c * c / 2.0

    def fit(z: np.ndarray):
        fam = rob_logit_family(z)
        eta = c * fam.x + b
        return c, b, fam.link(eta), None, fam.link(-eta), ()

    return fit


# roc_qmm's fixed point by (source, target, settings), shared by the methods
# of one run_methods call; None outside :func:`_sharing_roc_fixed_point`
_ROC_FIXED_POINTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_ROC_FIXED_POINTS", default=None
)


@contextmanager
def _sharing_roc_fixed_point():
    """Within the block, :func:`roc_qmm` and :func:`two_param_qmm` compute
    :func:`_roc_fixed_point` once per (source, target, settings); the
    memo is dropped when the block ends."""
    token = _ROC_FIXED_POINTS.set({})
    try:
        yield
    finally:
        _ROC_FIXED_POINTS.reset(token)


def _roc_fixed_point(src: SourceModel, tgt: TargetSpec, settings: SolverSettings):
    """((c, b), z, diagnostics) of :func:`roc_qmm`'s alternation: the
    (alpha, beta) its fit holds, the class-0 probit z where
    :func:`fixed_point_f0` stopped, read-only, and its diagnostics, from the
    memo of the enclosing :func:`_sharing_roc_fixed_point` block where there
    is one. Its errors name ``roc_qmm``."""
    memo = _ROC_FIXED_POINTS.get()
    key = (src, tgt, settings)  # the models hash by identity
    if memo is not None and key in memo:
        return memo[key]
    auc_src = _source_auc("roc_qmm", src, tgt)
    c = float(np.sqrt(2.0) * sp.normal_ppf(auc_src))
    z, diag, fitted = fixed_point_f0("roc_qmm", tgt, settings, _roc_fit(c, tgt.prior))
    z.setflags(write=False)
    point = fitted[:2], z, diag
    if memo is not None:
        memo[key] = point
    return point


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
    approximate by construction and are reported, not forced. The fixed
    point is :func:`_roc_fixed_point`'s, which ``run_methods`` computes once
    for both QMMs.
    """
    (c, _), z, diag = _roc_fixed_point(src, tgt, settings)
    return _finish(MethodId.ROC_QMM, tgt, _roc_fit(c, tgt.prior)(z)[2], {"c": c}, diag)


def _refit_rows(tgt: TargetSpec, z, values, complement):
    """(dalpha/dz, dbeta/dz) / alpha of the (alpha, beta) that hold the mean
    and the AUC of values = expit(alpha z + beta) as z moves, for the Newton
    step of :func:`_newton_iterate`: by the implicit function theorem, r in
    -J r = rows of :func:`_moment_rows`; None where J is singular."""
    weights = tgt.feature_dist.probs
    merged = _merged(weights, values, tgt.feature_dist.mid_cdf)
    *rows, jacobian = _moment_rows(weights, values, merged, values * complement, z)
    with np.errstate(over="ignore"):  # a row that overflows gives a non-finite iterate
        return _closed_form_solve([[-d for d in row] for row in jacobian], rows)


def two_param_qmm(
    src: SourceModel,
    tgt: TargetSpec,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RecalResult:
    """Two-parameter logistic transform of the probit class-0 CDF, alternated
    with refinement of that CDF.

    The alternation starts at the class-0 probit where :func:`roc_qmm`'s
    converged (:func:`_roc_fixed_point`), a nearby fixed point of the same
    family held at the binormal (alpha, beta). It computes that point itself
    when it runs alone and shares it within ``run_methods``, to the same
    bits either way. Where roc's alternation raises a :class:`RecalError`,
    it starts from the target features' own CDF, and roc's error is not
    raised. Each outer step of :func:`fixed_point_f0` solves (a, b) against the
    targets (q, source implied AUC) at the current class-0 CDF, then refreshes
    the CDF from the resulting posterior exactly as the ROC-based scheme does.
    Each inner solve is warm-started at the previous step's (alpha, beta),
    the first at roc's (c, logit(q) - c**2 / 2); it is cold where roc's
    alternation raised or c is not positive (a source AUC that rounds below
    1/2). A warm solve meets the same tolerances as a cold one, which keeps
    the fit within the joint tolerance of the cold alternation's.
    An inner solve that finds the targets infeasible raises an
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
    last, start = None, None  # (alpha, beta) of the last fit; the probit to start at
    try:
        roc_fit, start, _ = _roc_fixed_point(src, tgt, settings)
        if roc_fit[0] > 0.0:  # an uninformative source can give c < 0
            last = roc_fit
    except RecalError:
        pass
    steps = 0

    def fit(z: np.ndarray):
        nonlocal last, steps
        steps += 1
        fam = rob_logit_family(z)
        try:
            alpha, beta, values, inner = solve_qmm_2d(
                fam, auc_src, tgt, inner_settings, warm_start=last
            )
        except InfeasibleError as exc:
            raise InfeasibleError(
                f"two_param_qmm: inner (a, b) solve at outer step {steps}: {exc}",
                attainable_auc_range=exc.attainable_auc_range,
            ) from exc
        last = alpha, beta
        complement = fam.link(-(alpha * fam.x + beta))
        return alpha, beta, values, inner, complement, _refit_rows(tgt, fam.x, values, complement)

    _, diag, (alpha, beta, values, inner, *_) = fixed_point_f0(
        "two_param_qmm", tgt, settings, fit, start
    )
    converged = (
        diag.converged
        and inner.residual_auc is not None
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
