import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit, ndtri

from recal import _special, recal_methods, solvers
from recal.auc_engine import mid_cdf
from recal import (
    DEFAULT_SETTINGS,
    DegenerateClassError,
    DiscreteScoreDist,
    DomainError,
    InfeasibleError,
    MethodId,
    NoRootError,
    PosteriorCurve,
    RecalError,
    RecalResult,
    SolverSettings,
    SourceModel,
    TargetSpec,
    adjusted_cdf,
    bisect_root,
    capped_scaling,
    class_conditionals,
    fjs_bounds,
    fjs_recalibrate,
    implied_auc,
    label_shift_correct,
    logistic_cspd_family,
    mean_under,
    normal_cspd_family,
    parametric_cspd_qmm,
    platt_family,
    roc_qmm,
    run_method,
    run_methods,
    scenario_from_dict,
    solve_qmm_2d,
    two_param_qmm,
)
from conftest import (
    CELL_TOL,
    METHOD_REPROS,
    REFERENCE_TABLE,
    SATURATED_BINOMIAL_SCENARIO,
    UNATTAINABLE_Q_SCENARIO,
    ZERO_END_MASS_SCENARIO,
    far_root_scenario,
    logistic_scenario,
    mixture_target,
    random_source,
    random_target,
    saturated_tail_scenario,
)


BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def workgen_scenarios(monkeypatch):
    """The benchmark's seeded scenarios: its 7 small geometries at n = 257
    and its large one at n = 4,097, each for seeds 1, 2 and 7919."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workgen

    params = [(257, p) for seed in (1, 2, 7919) for p in workgen.small_batch_params(seed)]
    params += [(4097, workgen.large_params(seed)) for seed in (1, 2, 7919)]
    return [scenario_from_dict(workgen.scenario_dict(n, p)) for n, p in params]


def exact_capped_scale(eta, w, q):
    """The capped-scaling root in closed form: with the points capped from
    the largest posterior down, the capped mean is linear in t between
    consecutive thresholds 1 / eta, and the piece that holds the root gives
    t exactly."""
    order = np.argsort(-eta, kind="stable")
    eta, w = eta[order], w[order]
    for k in range(eta.size + 1):  # the k largest capped
        t = (q - math.fsum(w[:k])) / math.fsum(w[k:] * eta[k:])
        if (k == 0 or t * eta[k - 1] >= 1.0) and (k == eta.size or t * eta[k] < 1.0):
            return t


def fjs_curve(eta, p, q, rho):
    """The FJS posterior in its ratio form (Tasche 2022): (q / p) eta over
    itself plus (1 / rho) ((1 - q) / (1 - p)) (1 - eta)."""
    num = (q / p) * eta
    den = num + (1.0 / rho) * ((1.0 - q) / (1.0 - p)) * (1.0 - eta)
    return num / den


def method_row(result, tgt):
    """(mean, auc) actually achieved, recomputed from the stored curve."""
    return (
        mean_under(tgt.feature_dist, result.posterior),
        implied_auc(tgt.feature_dist, result.posterior),
    )


def single_point_source(eta=0.3):
    dist = DiscreteScoreDist([0.0], [1.0])
    return SourceModel(dist, PosteriorCurve([0.0], [eta]), eta)


@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_saturated_tail_runs_every_method(method):
    """Every method converges on the [-4, 4] geometry, whose refreshed
    class-0 CDF rounds to 1 in the upper tail; both QMM curves increase and
    two_param_qmm meets its residual contract."""
    src, tgt = saturated_tail_scenario()
    result = run_method(method, src, tgt)
    assert result.diagnostics.converged
    if method in (MethodId.ROC_QMM, MethodId.TWO_PARAM_QMM):
        assert np.all(np.diff(result.posterior.values) > 0.0)
    if method is MethodId.TWO_PARAM_QMM:
        assert abs(result.achieved_mean - tgt.prior) <= 1e-9
        assert abs(result.implied_auc - src.implied_auc) <= 1e-6


@pytest.mark.parametrize(
    "scenario",
    [far_root_scenario(0.3), UNATTAINABLE_Q_SCENARIO],
    ids=["far_root", "unattainable_q"],
)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_no_bare_no_root_error_escapes(method, scenario):
    """On the capped-scaling far-root and unattainable-q inputs every method
    returns a result or raises an error that names it, never a bare
    NoRootError."""
    sc = scenario_from_dict(scenario)
    try:
        run_method(method, sc.source, sc.target)
    except RecalError as exc:
        assert not isinstance(exc, NoRootError)
        assert str(exc).startswith(f"{method.value}: ")


# the outcome on each of METHOD_REPROS: the params a converged result has,
# or the error type and the start of its message
REPRO_OUTCOMES = {
    "fjs_constant_posterior": {"rho": 1.0},
    "fjs_subnormal_posterior": {},
    "fjs_bounds_underflow": (InfeasibleError, "fjs: no sign change of the mean equation in rho"),
    "fjs_overflow_at_a_zero_mass": (
        InfeasibleError, "fjs: no sign change of the mean equation in rho"
    ),
    "fjs_bounds_posterior_at_1": (
        DomainError, "fjs: source posterior values must lie strictly inside (0, 1)"
    ),
    "capped_scaling_all_zero_curve": (
        DegenerateClassError,
        "capped_scaling: recalibrated curve: posterior mean 0.0 leaves one class empty",
    ),
    "capped_scaling_walk_past_the_float_range": (
        InfeasibleError, "capped_scaling: no sign change of the mean equation in t"
    ),
    "label_shift_subnormal_prior": {},
    "normal_cspd_subnormal_curve_mean": (InfeasibleError, "normal_cspd: target AUC"),
    "platt_source_mean_rounds_to_1": (
        DegenerateClassError,
        "platt: source implied AUC: posterior mean 1.0 leaves one class empty",
    ),
}


@pytest.mark.parametrize("case", sorted(METHOD_REPROS))
def test_repro_gives_a_result_or_an_error_naming_the_method(case):
    """Each input once let a warning, a ZeroDivisionError or an error that
    named no method out; it now gives a converged result or an error that
    names the method and the stage, with no warning."""
    method, scenario = METHOD_REPROS[case]
    sc = scenario_from_dict(scenario)
    expected = REPRO_OUTCOMES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, tuple):
            with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}"):
                run_method(MethodId(method), sc.source, sc.target)
            return
        result = run_method(MethodId(method), sc.source, sc.target)
    assert result.diagnostics.converged
    assert abs(result.achieved_mean - sc.target.prior) <= DEFAULT_SETTINGS.tol_mean
    assert {key: result.params[key] for key in expected} == expected


def _masses(draw, n):
    """n masses summing to 1, some of them 0 in some draws."""
    masses = st.one_of(st.floats(1e-6, 1.0), st.just(0.0))
    weights = np.array(draw(st.lists(masses, min_size=n, max_size=n)))
    if not weights.sum() > 0.0:
        weights[-1] = 1.0
    return weights / weights.sum()


@st.composite
def explicit_inputs(draw):
    """A source and a target on an explicit support of 1 to 40 points, with
    zero masses, and a sorted or constant posterior that takes exact 0 and 1,
    values down to 1e-320 and values within 1e-9 of 1; q from 1e-12 to
    1 - 1e-6."""
    n = draw(st.integers(1, 40))
    value = st.one_of(
        st.floats(0.0, 1.0),
        st.floats(1e-320, 1e-300),
        st.floats(1.0 - 1e-9, 1.0),
        st.sampled_from([0.0, 1.0, 1e-320, 1.0 - 2.0**-53]),
    )
    if draw(st.booleans()):
        posterior = np.full(n, draw(value))
    else:
        posterior = np.sort(draw(st.lists(value, min_size=n, max_size=n)))
    support = np.arange(n, dtype=float)
    feature = DiscreteScoreDist(support, _masses(draw, n))
    target = feature if draw(st.booleans()) else DiscreteScoreDist(support, _masses(draw, n))
    prior = float(np.dot(feature.probs, posterior))
    assume(0.0 < prior < 1.0)
    src = SourceModel(feature, PosteriorCurve(support, posterior), prior)
    return src, TargetSpec(target, draw(st.floats(1e-12, 1.0 - 1e-6)))


@settings(max_examples=100, deadline=None)
@given(explicit_inputs())
def test_every_method_gives_a_result_or_an_error_naming_it(inputs):
    """On small explicit scenarios every method returns a result or raises a
    RecalError whose message starts with its name, and no warning escapes."""
    src, tgt = inputs
    for method in MethodId:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert isinstance(run_method(method, src, tgt), RecalResult)
            except RecalError as exc:
                assert str(exc).startswith(f"{method.value}: "), str(exc)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("fjs_constant_posterior", (0.9999999999999999, 1.0)),
        # p / ((1 - p) E[odds]) = (1.4 / 3) / ((1.6 / 3) (10 / 3)) = 0.2625
        ("fjs_subnormal_posterior", (pytest.approx(0.2625, rel=1e-15), np.finfo(float).max)),
        ("fjs_bounds_underflow", (np.finfo(float).tiny,) * 2),
        ("fjs_overflow_at_a_zero_mass", (np.finfo(float).tiny, np.finfo(float).max)),
        ("fjs_bounds_posterior_at_1", (np.finfo(float).tiny, np.finfo(float).max)),
    ],
)
def test_fjs_bounds_are_ordered_and_inside_the_normal_range(case, expected):
    """Rounding swapped the bounds of a constant posterior; 1 / odds
    overflowed to inf past a subnormal posterior value, with a warning, and
    to NaN at a zero mass; a subnormal prior underflowed the bounds to 0;
    the odds divided by zero, with a warning, at a posterior of 1."""
    sc = scenario_from_dict(METHOD_REPROS[case][1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fjs_bounds(sc.source, sc.target) == expected


@pytest.mark.parametrize("method", ["roc_qmm", "two_param_qmm"])
@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_degenerate_class0_cdf_refresh_names_method_and_stage(method, fill):
    feature = DiscreteScoreDist([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    with pytest.raises(
        DegenerateClassError,
        match=f"^{method}: class-0 CDF refresh: posterior mean {fill!r} leaves one class empty",
    ):
        recal_methods._refreshed_f0(method, feature, np.full(3, fill), np.full(3, 1.0 - fill))


@pytest.mark.parametrize("method", ["roc_qmm", "two_param_qmm"])
@pytest.mark.parametrize("fill", [0.0, np.inf])
def test_class0_masses_whose_sum_is_not_positive_and_finite_raise_a_degenerate_class_error(method, fill):
    """Class-0 masses whose sum is 0 or inf, under a posterior mean of 3/4,
    raise an error naming the method and stage, with no RuntimeWarning
    from a division by that sum."""
    feature = DiscreteScoreDist([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            DegenerateClassError,
            match=f"^{method}: class-0 CDF refresh: class-0 masses sum to {fill!r}$",
        ):
            recal_methods._refreshed_f0(method, feature, np.full(3, 0.75), np.full(3, fill))


@st.composite
def refresh_inputs(draw):
    """A feature law, in some draws with zero masses, and an interior
    posterior over it in any order, in some draws crowding 1."""
    n = draw(st.integers(1, 40))
    masses = st.floats(1e-6, 1.0)
    if draw(st.booleans()):
        masses = st.one_of(masses, st.just(0.0))
    weights = np.array(draw(st.lists(masses, min_size=n, max_size=n)))
    if not weights.sum() > 0.0:
        weights[-1] = 1.0
    interior = st.floats(1e-12, 1.0, exclude_max=True)
    if draw(st.booleans()):
        interior = st.floats(1.0 - 1e-9, 1.0, exclude_max=True)
    values = np.array(draw(st.lists(interior, min_size=n, max_size=n)))
    return DiscreteScoreDist(np.arange(n, dtype=float), weights / weights.sum()), values


@settings(max_examples=300, deadline=None)
@given(refresh_inputs())
def test_refreshed_f0_matches_class_conditionals_route_bit_for_bit(inputs):
    """The array refresh gives the CDF bits of the validated object route
    that divides the class-0 masses p (1 - v) by their own sum, at every
    posterior mean pbar, or the error it would meet: a degenerate mean.
    Where pbar <= 1/2, the route of ``class_conditionals``, which divides by
    1 - pbar, stays within 32 ulps of it (13 at most over 95k such draws).
    Its probit z has the bits of the running maximum of the library's ndtri
    applied to F where F <= 1/2 and to the survival sums above, negated
    there; it does not decrease, and is not finite exactly where a zero
    class-0 mass sits at an end of the support. The class-0 masses it
    returns are those of the object route."""
    feature, values = inputs
    # the class-0 posterior 1 - v, given as the fits give expit(-eta)
    args = (values, 1.0 - values)
    pbar = float(np.dot(feature.probs, values))
    try:
        if not pbar < 1.0:
            raise DegenerateClassError(f"posterior mean {pbar!r} leaves class 0 empty")
        masses = feature.probs * (1.0 - values)
        dist0 = DiscreteScoreDist(feature.support, masses / masses.sum())
        expected = adjusted_cdf(dist0)
    except (DegenerateClassError, DomainError) as exc:
        with pytest.raises(type(exc), match="^two_param_qmm: class-0 CDF refresh"):
            recal_methods._refreshed_f0("two_param_qmm", feature, *args)
        return
    if pbar <= 0.5:
        curve = PosteriorCurve(feature.support, values)
        route = adjusted_cdf(class_conditionals(feature, curve).dist0)
        assert np.all(np.abs(route - expected) <= 32 * np.spacing(np.maximum(route, expected)))
    d0 = dist0.probs
    if d0[0] == 0.0 or d0[-1] == 0.0:
        with pytest.raises(
            DomainError,
            match=r"^two_param_qmm: class-0 CDF refresh has values outside \(0, 1\)",
        ):
            recal_methods._refreshed_f0("two_param_qmm", feature, *args)
        return
    f0, z, masses = recal_methods._refreshed_f0("two_param_qmm", feature, *args)
    assert masses.tobytes() == d0.tobytes()
    assert f0.dtype == expected.dtype and f0.tobytes() == expected.tobytes()
    upper = int(np.count_nonzero(expected <= 0.5))
    # one call on the whole support, as the library makes it, so that both
    # take the same path of recal._special
    probit = _special.ndtri(np.concatenate((expected[:upper], mid_cdf(d0[upper:][::-1])[::-1])))
    # ndtri itself steps back by an ulp between some neighbouring floats,
    # and the sums on the two sides of the split round differently; the
    # refresh takes the running maximum over such steps
    raw = np.concatenate((probit[:upper], -probit[upper:]))
    assert z.tobytes() == np.maximum.accumulate(raw).tobytes()
    assert np.all(np.isfinite(z)) and np.all(np.diff(z) >= 0.0)


# neighbouring floats where scipy 1.17's ndtri falls by an ulp
_NDTRI_STEP_BACK = 0.14000000000000082


def _raw_two_sided_probit(d0):
    """The two-sided probit of class-0 masses, before any step-back repair."""
    f0 = mid_cdf(d0)
    upper = int(np.searchsorted(f0, 0.5, "right"))
    probit = _special.ndtri(np.concatenate((f0[:upper], mid_cdf(d0[upper:][::-1])[::-1])))
    return np.concatenate((probit[:upper], -probit[upper:]))


@pytest.mark.parametrize(
    "d0",
    [
        # F = [x / 2, x, x + 1 ulp] at x = _NDTRI_STEP_BACK; 73 points, so
        # that scipy's ndtri runs
        np.concatenate((
            [_NDTRI_STEP_BACK, 0.0, 2.0 * np.spacing(_NDTRI_STEP_BACK)],
            np.full(70, (1.0 - _NDTRI_STEP_BACK) / 70.0),
        )),
        # masses summing to 1 + 5e-13: F[1] = 1/2 - 5e-15 lies below the
        # split, and the survival sum 1/2 + 4.95e-13 at index 2 above it
        # gives a probit below ndtri(F[1])
        np.array([0.5 - 1e-14, 1e-14, 1e-14, 0.5 - 1e-14 + 5e-13]),
    ],
    ids=["ndtri_ulp", "split"],
)
def test_class0_probit_does_not_step_back(d0):
    """Where the two-sided probit of a class-0 law falls from index 1 to 2,
    between neighbouring floats or across the F = 1/2 split, the class-0
    CDF step returns its running maximum, and F itself unchanged."""
    raw = _raw_two_sided_probit(d0)
    if np.flatnonzero(np.diff(raw) < 0.0).tolist() != [1]:
        # the installed scipy's ndtri does not fall at _NDTRI_STEP_BACK;
        # test_class0_probit_repairs_an_ulp_step_back_of_ndtri covers it
        pytest.skip("the installed ndtri does not step back on this law")
    f0, z = recal_methods._class0_cdf("two_param_qmm: class-0 CDF refresh", d0)
    assert f0.tobytes() == mid_cdf(d0).tobytes()
    assert z.tobytes() == np.maximum.accumulate(raw).tobytes()
    assert np.all(np.diff(z) >= 0.0)


def test_class0_probit_repairs_an_ulp_step_back_of_ndtri(monkeypatch):
    """An ndtri that falls by one ulp between two probits gives their
    running maximum, whatever scipy is installed; an ndtri that does not
    fall keeps its bits."""
    d0 = np.array([0.1, 0.2, 0.3, 0.4])  # F = [0.05, 0.2, 0.45, 0.8]
    honest = recal_methods._class0_cdf("two_param_qmm: class-0 CDF refresh", d0)[1]
    assert honest.tobytes() == _raw_two_sided_probit(d0).tobytes()
    ndtri = _special.ndtri

    def stepping_ndtri(p):
        out = ndtri(p)
        out[2] = np.nextafter(out[1], -np.inf)
        return out

    monkeypatch.setattr(recal_methods.sp, "ndtri", stepping_ndtri)
    f0, z = recal_methods._class0_cdf("two_param_qmm: class-0 CDF refresh", d0)
    assert f0.tobytes() == mid_cdf(d0).tobytes()
    raw = honest.copy()
    raw[2] = np.nextafter(raw[1], -np.inf)
    assert z.tobytes() == np.maximum.accumulate(raw).tobytes()
    assert z[2] == z[1] == honest[1] and z[[0, 3]].tolist() == honest[[0, 3]].tolist()


def test_refreshed_f0_leaves_its_inputs_unchanged():
    """The refresh runs in place on its own arrays only."""
    rng = np.random.default_rng(3)
    probs = rng.uniform(0.1, 1.0, 100)
    feature = DiscreteScoreDist(np.arange(100.0), probs / probs.sum())
    values = np.sort(rng.uniform(0.05, 0.95, 100))
    complement = 1.0 - values
    kept = feature.probs.tobytes(), values.tobytes(), complement.tobytes()
    recal_methods._refreshed_f0("two_param_qmm", feature, values, complement)
    assert (feature.probs.tobytes(), values.tobytes(), complement.tobytes()) == kept


def test_two_sided_probit_stays_finite_where_the_cdf_rounds_to_1():
    """Class-0 masses [1, 2e-20, 1e-20] put F at [1/2, 1, 1], where ndtri is
    +inf; z takes the probit of the survival sums [2e-20, 5e-21] instead,
    from the library's ndtri on the array it passes."""
    feature = DiscreteScoreDist([0.0, 1.0, 2.0], [1.0, 2e-20, 1e-20])
    f0, z, _ = recal_methods._refreshed_f0("two_param_qmm", feature, *np.full((2, 3), 0.5))
    assert f0.tolist() == [0.5, 1.0, 1.0]
    probit = _special.ndtri(np.array([0.5, 2e-20, 5e-21]))
    assert z.tolist() == [0.0, -probit[1], -probit[2]]


class TestCappedScaling:
    def test_identity_when_target_already_matched(self):
        rng = np.random.default_rng(1)
        src = random_source(rng, 6)
        tgt_dist = random_target(rng, src).feature_dist
        q = float(np.dot(tgt_dist.probs, src.posterior.values))
        result = capped_scaling(src, TargetSpec(tgt_dist, q))
        assert abs(result.params["t"] - 1.0) <= 1e-6
        np.testing.assert_allclose(result.posterior.values, src.posterior.values, atol=1e-7)

    def test_two_point_toy_analytic(self):
        """Hand solve: mean 0.5*(t*0.1) + 0.5*(t*0.2) = 0.3 gives t = 2 and
        no cap binds since 2 * 0.2 < 1."""
        src = SourceModel(
            DiscreteScoreDist([0.0, 1.0], [0.5, 0.5]),
            PosteriorCurve([0.0, 1.0], [0.1, 0.2]),
            0.15,
        )
        tgt = TargetSpec(DiscreteScoreDist([0.0, 1.0], [0.5, 0.5]), 0.3)
        result = capped_scaling(src, tgt)
        assert abs(result.params["t"] - 2.0) <= 1e-6
        np.testing.assert_allclose(result.posterior.values, [0.2, 0.4], atol=1e-7)

    def test_reference_row(self, example_scenario):
        result = capped_scaling(example_scenario.source, example_scenario.target)
        mean, auc = method_row(result, example_scenario.target)
        expected = REFERENCE_TABLE["Capped scaling"]
        assert abs(mean - expected[0]) <= CELL_TOL
        assert abs(auc - expected[1]) <= CELL_TOL
        assert result.diagnostics.converged

    def test_flat_segments_only_at_one(self):
        """With q = 0.9 the top two posterior values both cap: the solved
        scale is t = 10 from 0.2 * 0.05 t + 0.8 = 0.9, giving (0.5, 1, 1)."""
        src = SourceModel(
            DiscreteScoreDist([0.0, 1.0, 2.0], [0.9, 0.05, 0.05]),
            PosteriorCurve([0.0, 1.0, 2.0], [0.05, 0.8, 0.9]),
            0.9 * 0.05 + 0.05 * 0.8 + 0.05 * 0.9,
        )
        tgt = TargetSpec(DiscreteScoreDist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]), 0.9)
        result = capped_scaling(src, tgt)
        values = result.posterior.values
        assert abs(result.params["t"] - 10.0) <= 1e-6
        np.testing.assert_allclose(values, [0.5, 1.0, 1.0], atol=1e-7)
        diffs = np.diff(values)
        for i, d in enumerate(diffs):
            if d == 0.0:
                assert values[i + 1] == 1.0
        assert abs(result.achieved_mean - 0.9) <= 1e-8

    def test_scale_is_the_closed_form_root(self, monkeypatch, example_scenario):
        """Oracle: with the points capped from the largest posterior down, the
        capped mean is linear in t between consecutive thresholds 1 / eta, so
        the piece that holds the root solves for t exactly. Newton lands on
        it, on the worked example and the benchmark's seeded scenarios."""
        for scenario in [example_scenario, *workgen_scenarios(monkeypatch)]:
            src, tgt = scenario.source, scenario.target
            result = capped_scaling(src, tgt)
            t = exact_capped_scale(src.posterior.values, tgt.feature_dist.probs, tgt.prior)
            assert result.params["t"] == pytest.approx(t, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [0.3, 0.0105, 0.011])
    def test_far_root_is_the_closed_form_root(self, q):
        """The root lies 360 to 7,300 times t0 above the start t0. Each
        clamped Newton step doubles the width, so a few mean evaluations
        reach it; a width fixed at t0 ran out of steps."""
        scenario = scenario_from_dict(far_root_scenario(q))
        src, tgt = scenario.source, scenario.target
        result = capped_scaling(src, tgt)
        t = exact_capped_scale(src.posterior.values, tgt.feature_dist.probs, q)
        assert result.diagnostics.converged
        assert result.params["t"] == pytest.approx(t, rel=1e-12, abs=0.0)
        assert result.diagnostics.iterations <= 16

    def test_saturated_binomial_root_in_few_evaluations(self):
        """t0 ~ 7.6e7 and the root ~ 1.07e10: a width fixed at t0 took 141
        mean evaluations."""
        scenario = scenario_from_dict(SATURATED_BINOMIAL_SCENARIO)
        src, tgt = scenario.source, scenario.target
        result = capped_scaling(src, tgt)
        t = exact_capped_scale(src.posterior.values, tgt.feature_dist.probs, tgt.prior)
        assert result.diagnostics.converged
        assert result.params["t"] == pytest.approx(t, rel=1e-12, abs=0.0)
        assert result.diagnostics.iterations <= 12

    def test_unattainable_q_names_the_method(self):
        """The capped mean never exceeds 0.1, the target mass over eta > 0,
        so q = 0.3 has no scale; the error names the method."""
        scenario = scenario_from_dict(UNATTAINABLE_Q_SCENARIO)
        with pytest.raises(InfeasibleError, match=r"^capped_scaling: no sign change"):
            capped_scaling(scenario.source, scenario.target)


class TestLabelShift:
    def test_equal_priors_identity(self):
        rng = np.random.default_rng(2)
        src = random_source(rng, 5)
        tgt = random_target(rng, src, q=src.prior)
        result = label_shift_correct(src, tgt)
        np.testing.assert_allclose(result.posterior.values, src.posterior.values, atol=1e-15)

    def test_pointwise_formula(self):
        src = SourceModel(
            DiscreteScoreDist([0.0, 1.0], [0.5, 0.5]),
            PosteriorCurve([0.0, 1.0], [0.5, 0.5]),
            0.5,
        )
        tgt = TargetSpec(DiscreteScoreDist([0.0, 1.0], [0.5, 0.5]), 0.8)
        result = label_shift_correct(src, tgt)
        np.testing.assert_allclose(result.posterior.values, 0.8, atol=1e-15)

    def test_reference_row_mean_off_target(self, example_scenario):
        result = label_shift_correct(example_scenario.source, example_scenario.target)
        mean, auc = method_row(result, example_scenario.target)
        expected = REFERENCE_TABLE["Label shift"]
        assert abs(mean - expected[0]) <= CELL_TOL
        assert abs(auc - expected[1]) <= CELL_TOL
        assert abs(mean - example_scenario.target.prior) > 0.005  # documented miss

    def test_mixture_target_recovers_prior_and_auc(self):
        """When the target features really are the label-shift blend of the
        source class conditionals, the corrected curve hits q exactly and the
        implied AUC is unchanged."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            src = random_source(rng, int(rng.integers(2, 9)))
            q = float(rng.uniform(0.01, 0.5))
            tgt = mixture_target(src, q)
            result = label_shift_correct(src, tgt)
            assert abs(result.achieved_mean - q) <= 1e-10
            assert abs(result.implied_auc - src.implied_auc) <= 1e-10

    @pytest.mark.parametrize("method", ["label_shift", "fjs", "logistic_cspd", "normal_cspd"])
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_interior_required(self, end, method):
        """Every method that needs the source posterior strictly inside
        (0, 1) refuses a value of 0 or 1 with the one shared message. Platt
        does not: its regressor is the raw posterior, finite at 0 and 1."""
        src_dist = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        values = [0.0, 0.8] if end == 0.0 else [0.2, 1.0]
        src = SourceModel(src_dist, PosteriorCurve([0.0, 1.0], values), 0.5 * sum(values))
        tgt = TargetSpec(src_dist, 0.3)
        with pytest.raises(
            DomainError,
            match=rf"^{method}: source posterior values must lie strictly inside \(0, 1\)",
        ):
            run_method(MethodId(method), src, tgt)

    def test_is_the_logistic_cspd_family_at_slope_1(self, example_scenario, monkeypatch):
        """On the worked example and a seeded 257-point scenario, the logistic
        CSPD regressor holds the bits of numpy's log(eta) - log1p(-eta), and
        label shift those of expit(x + beta0) on it, beta0 = logit q - logit p."""
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import workgen

        seeded = scenario_from_dict(workgen.scenario_dict(257, workgen.small_batch_params(1)[0]))
        for sc in (example_scenario, seeded):
            src, tgt = sc.source, sc.target
            eta, p, q = src.posterior.values, src.prior, tgt.prior
            fam = logistic_cspd_family(eta)
            assert fam.x.tobytes() == (np.log(eta) - np.log1p(-eta)).tobytes()
            beta0 = (math.log(q) - math.log1p(-q)) - (math.log(p) - math.log1p(-p))
            curve = label_shift_correct(src, tgt).posterior.values
            assert curve.tobytes() == solvers.expit(fam.x + beta0).tobytes()


class TestFjs:
    def test_weight_one_coincides_with_label_shift(self):
        """On a mixture-built target the mean equation is solved by weight 1,
        where the correction formula collapses to the label-shift formula."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            src = random_source(rng, int(rng.integers(2, 8)))
            q = float(rng.uniform(0.05, 0.4))
            tgt = mixture_target(src, q)
            result = fjs_recalibrate(src, tgt)
            assert abs(result.params["rho"] - 1.0) <= 1e-6
            shift = label_shift_correct(src, tgt)
            np.testing.assert_allclose(
                result.posterior.values, shift.posterior.values, atol=1e-7
            )

    def test_reference_row(self, example_scenario):
        result = fjs_recalibrate(example_scenario.source, example_scenario.target)
        mean, auc = method_row(result, example_scenario.target)
        expected = REFERENCE_TABLE["FJS"]
        assert abs(mean - expected[0]) <= CELL_TOL
        assert abs(auc - expected[1]) <= CELL_TOL
        assert abs(result.achieved_mean - 0.05) <= 1e-9

    def test_weight_always_inside_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            src = random_source(rng, int(rng.integers(2, 9)))
            tgt = random_target(rng, src)
            result = fjs_recalibrate(src, tgt)
            lower, upper = fjs_bounds(src, tgt)
            assert lower - 1e-12 <= result.params["rho"] <= upper + 1e-12

    def test_grid_scan_oracle_locates_same_root(self, example_scenario):
        """Oracle: dense scan of the mean residual over the closed weight
        bounds; the bisection answer must sit in the sign-change cell."""
        src, tgt = example_scenario.source, example_scenario.target
        lower, upper = fjs_bounds(src, tgt)
        p, q = src.prior, tgt.prior
        eta = src.posterior.values
        w = tgt.feature_dist.probs

        def resid(rho):
            return float(np.dot(w, fjs_curve(eta, p, q, rho))) - q

        grid = np.linspace(lower, upper, 4001)
        signs = np.array([resid(r) for r in grid])
        cells = np.nonzero(np.diff(np.signbit(signs)))[0]
        assert cells.size == 1  # unique root
        result = fjs_recalibrate(src, tgt)
        rho = result.params["rho"]
        assert grid[cells[0]] <= rho <= grid[cells[0] + 1]

    def test_factorizable_shift_law_recovers_its_weight(self):
        """Oracle (Tasche 2022): a target whose features make the FJS curve v*
        at weight 2.5 meet q = 0.2. Its features mix two shifted normals,
        weighted so that w . v* = q, so 2.5 is the unique root of the mean
        equation. The default tolerance bounds the weight's error by tol_mean
        over the mean's slope; at tol_mean 1e-14 Newton lands on it."""
        s = np.linspace(-4.0, 4.0, 257)
        src_probs = np.exp(-0.5 * s**2)
        src_probs /= src_probs.sum()
        eta = expit(1.3 * s - 2.0)
        p, q, rho = float(np.dot(src_probs, eta)), 0.2, 2.5
        expected = fjs_curve(eta, p, q, rho)
        left, right = (np.exp(-0.5 * (s - shift) ** 2) for shift in (-1.0, 1.0))
        left, right = left / left.sum(), right / right.sum()
        share = (q - np.dot(right, expected)) / (np.dot(left, expected) - np.dot(right, expected))
        assert 0.0 < share < 1.0
        tgt = TargetSpec(DiscreteScoreDist(s, share * left + (1.0 - share) * right), q)
        src = SourceModel(DiscreteScoreDist(s, src_probs), PosteriorCurve(s, eta), p)
        slope = float(np.dot(tgt.feature_dist.probs, expected * (1.0 - expected))) / rho

        default = fjs_recalibrate(src, tgt)
        assert default.diagnostics.converged and default.diagnostics.iterations <= 10
        assert abs(default.params["rho"] - rho) <= DEFAULT_SETTINGS.tol_mean / slope
        tight = fjs_recalibrate(src, tgt, SolverSettings(tol_mean=1e-14))
        assert tight.diagnostics.converged and tight.diagnostics.iterations <= 10
        assert tight.params["rho"] == pytest.approx(rho, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(tight.posterior.values, expected, rtol=0, atol=1e-15)

    def test_mean_matched_on_random_scenarios(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            src = random_source(rng, int(rng.integers(2, 9)))
            tgt = random_target(rng, src)
            result = fjs_recalibrate(src, tgt)
            assert abs(result.achieved_mean - tgt.prior) <= 1e-8
            assert result.diagnostics.converged


class TestParametricCspdQmm:
    @pytest.mark.parametrize(
        "family,label",
        [
            (MethodId.PLATT, "Platt scaling"),
            (MethodId.LOGISTIC_CSPD, "Logistic CSPD"),
            (MethodId.NORMAL_CSPD, "Normal CSPD"),
        ],
    )
    def test_reference_rows(self, example_scenario, family, label):
        result = parametric_cspd_qmm(example_scenario.source, example_scenario.target, family)
        mean, auc = method_row(result, example_scenario.target)
        expected = REFERENCE_TABLE[label]
        assert abs(mean - expected[0]) <= CELL_TOL
        assert abs(auc - expected[1]) <= CELL_TOL
        assert result.diagnostics.converged
        assert {"a", "b"} <= set(result.params)

    def test_mean_and_auc_contracts(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        auc_src = src.implied_auc
        for family in (MethodId.PLATT, MethodId.LOGISTIC_CSPD, MethodId.NORMAL_CSPD):
            result = parametric_cspd_qmm(src, tgt, family)
            assert abs(result.achieved_mean - tgt.prior) <= 1e-9
            assert abs(result.implied_auc - auc_src) <= 1e-6

    def test_single_point_source_gives_constant_target_prior(self):
        """A one-point score is uninformative (AUC 1/2), so the fitted
        transform must emit the constant q."""
        src = single_point_source(0.3)
        tgt = TargetSpec(DiscreteScoreDist([0.0], [1.0]), 0.12)
        for family in (MethodId.PLATT, MethodId.LOGISTIC_CSPD, MethodId.NORMAL_CSPD):
            result = parametric_cspd_qmm(src, tgt, family)
            np.testing.assert_allclose(result.posterior.values, 0.12, atol=1e-8)

    def test_rejects_non_parametric_method_id(self, example_scenario):
        with pytest.raises(DomainError):
            parametric_cspd_qmm(
                example_scenario.source, example_scenario.target, MethodId.ROC_QMM
            )

    @pytest.mark.parametrize("family", ["platt", None, MethodId.ROC_QMM])
    def test_refuses_what_is_not_a_parametric_family_first(self, family):
        """A method name as a string, None, and a method id outside the
        three families each raise the family error, also on a saturated
        source that the CSPDs' interior check would refuse first."""
        scenario = scenario_from_dict(SATURATED_BINOMIAL_SCENARIO)
        with pytest.raises(DomainError, match="is not a parametric transform family$"):
            parametric_cspd_qmm(scenario.source, scenario.target, family)


class TestRocQmm:
    def test_uninformative_source_collapses_to_prior_in_two_iterations(self):
        """The change is measured between two fits, so the alternation stops
        at step 2, the first step that measures one."""
        src = single_point_source(0.3)
        tgt = TargetSpec(DiscreteScoreDist([0.0], [1.0]), 0.05)
        result = roc_qmm(src, tgt)
        np.testing.assert_allclose(result.posterior.values, 0.05, atol=1e-12)
        assert result.diagnostics.iterations == 2
        assert result.params["c"] == 0.0

    def test_reference_row(self, example_scenario):
        result = roc_qmm(example_scenario.source, example_scenario.target)
        mean, auc = method_row(result, example_scenario.target)
        expected = REFERENCE_TABLE["ROC QMM"]
        assert abs(mean - expected[0]) <= CELL_TOL
        assert abs(auc - expected[1]) <= CELL_TOL
        assert result.diagnostics.converged
        assert result.diagnostics.iterations < 100

    def test_example_iteration_deltas_shrink(self, example_scenario):
        """Oracle: run the update map by hand and watch the sup-norm deltas
        decrease monotonically to convergence."""
        src, tgt = example_scenario.source, example_scenario.target
        c = float(np.sqrt(2.0) * ndtri(src.implied_auc))
        q = tgt.prior
        f0 = adjusted_cdf(tgt.feature_dist)
        deltas = []
        for _ in range(100):
            eta = expit(logit(q) - c * c / 2.0 + c * ndtri(f0))
            cc = class_conditionals(tgt.feature_dist, PosteriorCurve(tgt.support, eta))
            f0_new = adjusted_cdf(cc.dist0)
            deltas.append(float(np.max(np.abs(f0_new - f0))))
            f0 = f0_new
            if deltas[-1] <= 1e-10:
                break
        assert len(deltas) < 100
        assert all(b < a for a, b in zip(deltas, deltas[1:]))

    def test_two_point_matches_independent_iteration_oracle(self):
        """Oracle: re-derive one update step from scratch (cumulative sums,
        Bayes split, logistic of the probit) and compose it to convergence."""
        support = [0.0, 1.0]
        src = SourceModel(
            DiscreteScoreDist(support, [0.6, 0.4]),
            PosteriorCurve(support, [0.08, 0.3]),
            0.6 * 0.08 + 0.4 * 0.3,
        )
        q = 0.05
        tgt = TargetSpec(DiscreteScoreDist(support, [0.55, 0.45]), q)

        auc_src = src.implied_auc
        c = float(np.sqrt(2.0) * ndtri(auc_src))
        w = [0.55, 0.45]
        f0 = [w[0] - w[0] / 2.0, w[0] + w[1] - w[1] / 2.0]
        for _ in range(500):
            eta = [
                1.0 / (1.0 + (1.0 - q) / q * np.exp(c * c / 2.0 - c * float(ndtri(v))))
                for v in f0
            ]
            pbar = w[0] * eta[0] + w[1] * eta[1]
            d0 = [w[0] * (1.0 - eta[0]) / (1.0 - pbar), w[1] * (1.0 - eta[1]) / (1.0 - pbar)]
            f0_new = [d0[0] - d0[0] / 2.0, d0[0] + d0[1] - d0[1] / 2.0]
            delta = max(abs(a - b) for a, b in zip(f0, f0_new))
            f0 = f0_new
            if delta <= 1e-12:
                break
        oracle_eta = [
            1.0 / (1.0 + (1.0 - q) / q * np.exp(c * c / 2.0 - c * float(ndtri(v))))
            for v in f0
        ]
        result = roc_qmm(src, tgt)
        np.testing.assert_allclose(result.posterior.values, oracle_eta, atol=1e-8)

    def test_mean_reported_not_forced(self, example_scenario):
        result = roc_qmm(example_scenario.source, example_scenario.target)
        assert result.diagnostics.residual_mean is None
        assert result.diagnostics.residual_auc is None
        # achieved values are recorded for inspection instead
        assert abs(result.achieved_mean - 0.05) < 0.01

    def test_non_convergence_flagged(self, example_scenario):
        from recal import SolverSettings

        settings = SolverSettings(max_iter=1)
        result = roc_qmm(example_scenario.source, example_scenario.target, settings)
        assert not result.diagnostics.converged

    def test_zero_end_mass_initial_cdf_names_the_method_and_stage(self):
        scenario = scenario_from_dict(ZERO_END_MASS_SCENARIO)
        with pytest.raises(
            DomainError, match=r"^roc_qmm: initial class-0 CDF has values outside \(0, 1\)"
        ):
            roc_qmm(scenario.source, scenario.target)

    @pytest.mark.parametrize("seed", [None, 3, 11, "tail"])
    def test_default_curve_within_1e12_of_tight_reference(self, example_scenario, seed):
        """The default stop on the CDF change lands within 1e-12 of a run
        converged to 1e-14, on the worked example (seed None), on two
        explicit supports and on the saturated [-4, 4] geometry."""
        if seed is None:
            src, tgt = example_scenario.source, example_scenario.target
        elif seed == "tail":
            src, tgt = saturated_tail_scenario()
        else:
            rng = np.random.default_rng(seed)
            src = random_source(rng, 60)
            tgt = random_target(rng, src)
        default = roc_qmm(src, tgt)
        tight = roc_qmm(src, tgt, SolverSettings(tol_fixed_point=1e-14, max_iter=2000))
        assert default.diagnostics.converged and tight.diagnostics.converged
        np.testing.assert_allclose(
            default.posterior.values, tight.posterior.values, rtol=0, atol=1e-12
        )


# the two-parameter QMM fits and the curve bound against a tight run: the
# inner tolerances of two_param_qmm are 1e-12 / 1e-11 and its joint stop
# tol_fixed_point (1e-10); the parametric families stop at the default tol_auc
TIGHT_SETTINGS = SolverSettings(
    tol_mean=1e-14, tol_auc=1e-13, tol_fixed_point=1e-14, max_iter=2000
)
QMM_2D_BOUNDS = {
    MethodId.PLATT: 1e-6,
    MethodId.LOGISTIC_CSPD: 1e-6,
    MethodId.NORMAL_CSPD: 1e-6,
    MethodId.TWO_PARAM_QMM: 1e-10,
}


@pytest.mark.parametrize("method", list(QMM_2D_BOUNDS), ids=lambda m: m.value)
@pytest.mark.parametrize("case", [None, 3, 11, "n257", "tail"])
def test_qmm_2d_curve_within_bound_of_tight_reference(example_scenario, case, method):
    """Each solve_qmm_2d user lands within its bound of a run at 1e-13 AUC,
    1e-14 mean and 1e-14 fixed-point tolerance, on the worked example (case
    None), on two explicit supports (seeds 3 and 11), on a 257-point
    logistic geometry and on the saturated [-4, 4] geometry."""
    if case is None:
        src, tgt = example_scenario.source, example_scenario.target
    elif case == "tail":
        src, tgt = saturated_tail_scenario()
    elif case == "n257":
        # a joint stop of 1e-9 left two_param_qmm 1.8e-9 from the reference here
        src, tgt = logistic_scenario(np.linspace(-3.0, 3.0, 257), 1.5, 0.15, 0.2, 0.9, 0.10)
    else:
        rng = np.random.default_rng(case)
        src = random_source(rng, 60)
        tgt = random_target(rng, src)
    default = run_method(method, src, tgt)
    tight = run_method(method, src, tgt, TIGHT_SETTINGS)
    assert default.diagnostics.converged and tight.diagnostics.converged
    if method is MethodId.TWO_PARAM_QMM:  # the reference's alternation is tight too
        assert tight.diagnostics.residual_fixed_point <= 1e-14
    np.testing.assert_allclose(
        default.posterior.values, tight.posterior.values, rtol=0, atol=QMM_2D_BOUNDS[method]
    )


class TestTwoParamQmm:
    def test_reference_row(self, example_scenario):
        result = two_param_qmm(example_scenario.source, example_scenario.target)
        mean, auc = method_row(result, example_scenario.target)
        expected = REFERENCE_TABLE["2-param QMM"]
        assert abs(mean - expected[0]) <= CELL_TOL
        assert abs(auc - expected[1]) <= CELL_TOL
        assert result.diagnostics.converged
        assert result.params["a"] < 0.0  # literal slope of the decreasing form

    def test_bracket_holds_reported_slope(self, example_scenario):
        result = two_param_qmm(example_scenario.source, example_scenario.target)
        lo, hi = result.diagnostics.bracket
        assert lo <= result.params["a"] <= hi

    def test_contracts(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        result = two_param_qmm(src, tgt)
        assert abs(result.achieved_mean - tgt.prior) <= 1e-9
        assert abs(result.implied_auc - src.implied_auc) <= 1e-6

    def test_uninformative_source_constant_transform(self):
        src = single_point_source(0.3)
        q = 0.07
        tgt = TargetSpec(DiscreteScoreDist([0.0], [1.0]), q)
        result = two_param_qmm(src, tgt)
        assert result.params["a"] == 0.0
        assert abs(result.params["b"] - float(np.log((1 - q) / q))) <= 1e-6
        np.testing.assert_allclose(result.posterior.values, q, atol=1e-9)

    def test_source_auc_just_below_one_half_starts_cold(self):
        """A constant posterior of 0.5 on 13 points whose masses give the
        prior 0.49999999999999994 has an implied AUC that rounds just below
        1/2, so roc's c is negative: the first inner solve starts cold, not
        at roc's (c, b), which solve_qmm_2d refuses as a warm start."""
        support = np.arange(13.0)
        masses = np.array([3.0, 1.0, 1.0, 2.0, 1.0, 3.0, 0.0, 3.0, 2.0, 1.0, 2.0, 1.0, 3.0])
        feature = DiscreteScoreDist(support, masses / masses.sum())
        posterior = PosteriorCurve(support, np.full(13, 0.5))
        src = SourceModel(feature, posterior, 0.49999999999999994)
        tgt = TargetSpec(feature, 0.3)
        assert src.implied_auc < 0.5 and roc_qmm(src, tgt).params["c"] < 0.0
        result = two_param_qmm(src, tgt)
        assert result.diagnostics.converged and result.params["a"] == 0.0
        np.testing.assert_allclose(result.posterior.values, 0.3, rtol=0.0, atol=1e-12)

    def test_zero_end_mass_initial_cdf_names_the_method_and_stage(self):
        scenario = scenario_from_dict(ZERO_END_MASS_SCENARIO)
        with pytest.raises(DomainError, match="^two_param_qmm: initial class-0 CDF has values"):
            two_param_qmm(scenario.source, scenario.target)

    def test_single_outer_step_reports_no_joint_change(self, example_scenario):
        """One outer step measures no joint change: the residual is None,
        not infinity, and the run is not converged."""
        settings = SolverSettings(max_iter=1)
        result = two_param_qmm(example_scenario.source, example_scenario.target, settings)
        assert result.diagnostics.iterations == 1
        assert result.diagnostics.residual_fixed_point is None
        assert not result.diagnostics.converged
        full = two_param_qmm(example_scenario.source, example_scenario.target)
        assert 0.0 <= full.diagnostics.residual_fixed_point <= 1e-9


def test_run_method_refuses_an_id_that_is_not_a_method(example_scenario):
    with pytest.raises(DomainError, match="^unknown method 'platt'"):
        run_method("platt", example_scenario.source, example_scenario.target)


class TestCrossMethodProperties:
    def test_mean_matching_methods(self):
        from recal import InfeasibleError

        rng = np.random.default_rng(7)
        matching = [
            MethodId.CAPPED_SCALING,
            MethodId.FJS,
            MethodId.PLATT,
            MethodId.LOGISTIC_CSPD,
            MethodId.NORMAL_CSPD,
            MethodId.TWO_PARAM_QMM,
        ]
        done = 0
        while done < 15:
            src = random_source(rng, int(rng.integers(3, 9)))
            tgt = random_target(rng, src)
            try:
                results = [run_method(m, src, tgt) for m in matching]
            except InfeasibleError:
                continue  # rare draw; frequency is policed by the acceptance suite
            for result in results:
                if result.diagnostics.converged:
                    assert abs(result.achieved_mean - tgt.prior) <= 1e-8
            done += 1

    def test_monotone_outputs(self):
        from recal import InfeasibleError

        rng = np.random.default_rng(8)
        done = 0
        while done < 10:
            src = random_source(rng, int(rng.integers(3, 9)))
            tgt = random_target(rng, src)
            try:
                results = {m: run_method(m, src, tgt) for m in MethodId}
            except InfeasibleError:
                continue
            for method, result in results.items():
                values = result.posterior.values
                if method is MethodId.CAPPED_SCALING:
                    assert np.all(np.diff(values) >= 0.0)
                else:
                    assert np.all(np.diff(values) > 0.0), method
            done += 1

    def test_achieved_mean_matches_recomputation(self):
        rng = np.random.default_rng(9)
        src = random_source(rng, 7)
        tgt = random_target(rng, src)
        for method in MethodId:
            result = run_method(method, src, tgt)
            recomputed = mean_under(tgt.feature_dist, result.posterior)
            assert abs(result.achieved_mean - recomputed) <= 1e-12

    def test_outputs_within_unit_interval(self):
        rng = np.random.default_rng(10)
        src = random_source(rng, 6)
        tgt = random_target(rng, src)
        for method in MethodId:
            result = run_method(method, src, tgt)
            values = result.posterior.values
            assert np.all(values >= 0.0) and np.all(values <= 1.0)
            if method is not MethodId.CAPPED_SCALING:
                assert np.all(values > 0.0) and np.all(values < 1.0)

    def test_example_auc_grouping(self, example_scenario):
        """Capped scaling, label shift and FJS push the implied AUC above the
        source level; the moment-matching family stays at it."""
        src, tgt = example_scenario.source, example_scenario.target
        auc_src = src.implied_auc
        steep = (MethodId.CAPPED_SCALING, MethodId.LABEL_SHIFT, MethodId.FJS)
        flat = (
            MethodId.PLATT,
            MethodId.LOGISTIC_CSPD,
            MethodId.NORMAL_CSPD,
            MethodId.ROC_QMM,
            MethodId.TWO_PARAM_QMM,
        )
        for method in steep:
            assert run_method(method, src, tgt).implied_auc > auc_src
        for method in flat:
            assert abs(run_method(method, src, tgt).implied_auc - auc_src) <= 0.005

    def test_support_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        src = random_source(rng, 5)
        other = TargetSpec(
            DiscreteScoreDist(np.arange(5, dtype=float) + 0.5, np.full(5, 0.2)), 0.1
        )
        from recal import StructuralError

        for method in MethodId:
            with pytest.raises(StructuralError):
                run_method(method, src, other)


def class_swapped(sc):
    """The scenario with its classes swapped: support s -> -s and posterior
    eta -> 1 - eta, each reversed so that the support stays increasing, each
    pmf reversed, p -> 1 - p and q -> 1 - q."""
    src, tgt = sc.source, sc.target
    s = -src.support[::-1]
    source = SourceModel(
        DiscreteScoreDist(s, src.feature_dist.probs[::-1]),
        PosteriorCurve(s, 1.0 - src.posterior.values[::-1]),
        1.0 - src.prior,
    )
    return source, TargetSpec(DiscreteScoreDist(s, tgt.feature_dist.probs[::-1]), 1.0 - tgt.prior)


# how far each method symmetric in the classes may put the curve of the
# swapped scenario from 1 minus its own curve, reversed
CLASS_SWAP_BOUNDS = {
    MethodId.LABEL_SHIFT: 1e-15,
    MethodId.FJS: 1e-14,
    MethodId.PLATT: 1e-13,
    MethodId.LOGISTIC_CSPD: 1e-13,
    MethodId.NORMAL_CSPD: 1e-13,
}


@pytest.mark.parametrize("method", list(CLASS_SWAP_BOUNDS), ids=lambda m: m.value)
def test_class_swap_mirrors_the_curve(monkeypatch, example_scenario, method):
    """Oracle: on the worked example and the seed-1 benchmark geometries at
    n = 257, a method symmetric in the classes returns 1 minus its curve,
    reversed, on the class-swapped scenario. Capped scaling (a cap at 1) and
    both QMMs (the class-0 CDF) are not symmetric by construction."""
    for sc in [example_scenario, *workgen_scenarios(monkeypatch)[:7]]:
        curve = run_method(method, sc.source, sc.target).posterior.values
        mirror = run_method(method, *class_swapped(sc)).posterior.values
        np.testing.assert_allclose(
            mirror, 1.0 - curve[::-1], rtol=0.0, atol=CLASS_SWAP_BOUNDS[method]
        )


class TestWarmStartedAlternation:
    """``two_param_qmm`` warm-starts each inner solve from the previous outer
    step; Platt and the CSPDs solve cold."""

    # worked-example fits of the cold solve: family, slope probes, slope
    # bracket (the tightest sign change of the AUC residual seen) and (a, b)
    COLD_FITS = {
        MethodId.PLATT: (
            platt_family, 6, (20.266696067219836, 20.266757277223466),
            20.266696067219836, -3.925004116054388,
        ),
        MethodId.LOGISTIC_CSPD: (
            logistic_cspd_family, 5, (0.5148023140946375, 0.5226705591465005),
            0.5148023140946375, -0.2982307523684262,
        ),
        MethodId.NORMAL_CSPD: (
            normal_cspd_family, 4, (0.597997723220634, 0.6464085074767381),
            0.6464085074767381, -0.03947023086350311,
        ),
    }

    @pytest.mark.parametrize("method", list(COLD_FITS), ids=lambda m: m.value)
    def test_cold_solves_keep_their_path(self, example_scenario, method):
        src, tgt = example_scenario.source, example_scenario.target
        build, iterations, bracket, a, b = self.COLD_FITS[method]
        result = run_method(method, src, tgt)
        assert result.diagnostics.iterations == iterations
        assert result.diagnostics.bracket == pytest.approx(bracket, rel=1e-12)
        assert result.params["a"] == pytest.approx(a, rel=1e-12)
        assert result.params["b"] == pytest.approx(b, rel=1e-12)
        family = build(src.posterior.values)
        values = family.link(result.params["a"] * family.x + result.params["b"])
        assert result.posterior.values.tobytes() == values.tobytes()

    def test_two_param_qmm_matches_the_cold_alternation(self, monkeypatch, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        warm = two_param_qmm(src, tgt)
        warm_starts = []

        def cold_solve(*args, warm_start=None, **kwargs):
            warm_starts.append(warm_start)
            return solve_qmm_2d(*args, **kwargs)

        monkeypatch.setattr(recal_methods, "solve_qmm_2d", cold_solve)
        cold = two_param_qmm(src, tgt)
        # the first outer step is handed roc's (c, logit q - c**2 / 2), every
        # later one the previous one's fit
        c = roc_qmm(src, tgt).params["c"]
        assert warm_starts[0] == (c, _special.log_odds(tgt.prior) - c * c / 2.0)
        assert None not in warm_starts[1:]
        assert len(warm_starts) == cold.diagnostics.iterations
        assert warm.diagnostics.iterations == cold.diagnostics.iterations
        assert warm.diagnostics.converged and cold.diagnostics.converged
        np.testing.assert_allclose(warm.posterior.values, cold.posterior.values, rtol=0, atol=1e-9)
        assert abs(warm.params["a"] - cold.params["a"]) <= 1e-9
        assert abs(warm.params["b"] - cold.params["b"]) <= 1e-9
        # the fit of the cold alternation on the worked example
        assert abs(warm.params["a"] - -1.2148383683789459) <= 1e-9
        assert abs(warm.params["b"] - 3.6698010433060286) <= 1e-9
        mean, auc = method_row(warm, tgt)
        expected = REFERENCE_TABLE["2-param QMM"]
        assert abs(mean - expected[0]) <= CELL_TOL and abs(auc - expected[1]) <= CELL_TOL
        assert abs(warm.achieved_mean - tgt.prior) <= 1e-9
        assert abs(warm.implied_auc - src.implied_auc) <= 1e-6

    def test_later_outer_steps_take_few_probes(self, monkeypatch, example_scenario):
        probes = []

        def recording_solve(*args, **kwargs):
            a, b, values, diag = solve_qmm_2d(*args, **kwargs)
            probes.append(diag.iterations)
            return a, b, values, diag

        monkeypatch.setattr(recal_methods, "solve_qmm_2d", recording_solve)
        two_param_qmm(example_scenario.source, example_scenario.target)
        # every outer step of the example, the first at roc_qmm's fixed point
        # from roc's (c, b), solves warm, counting each joint (alpha, beta)
        # Newton point as a probe
        assert probes == [4, 3, 2, 1]

    @pytest.mark.parametrize("field", ["residual_mean", "residual_auc"])
    def test_inner_residual_at_the_tolerance_is_converged(
        self, monkeypatch, example_scenario, field
    ):
        """two_param_qmm reports the last inner solve's residuals; one equal
        to the settings' tolerance meets it, the next float above does not."""
        tol = getattr(DEFAULT_SETTINGS, field.replace("residual", "tol"))
        for residual, converged in [(tol, True), (math.nextafter(tol, math.inf), False)]:

            def at_the_edge(*args, **kwargs):
                *fit, diag = solve_qmm_2d(*args, **kwargs)
                return (*fit, replace(diag, **{field: residual}))

            monkeypatch.setattr(recal_methods, "solve_qmm_2d", at_the_edge)
            diag = two_param_qmm(example_scenario.source, example_scenario.target).diagnostics
            assert getattr(diag, field) == residual and diag.converged is converged


def _result_bits(result):
    """Everything a result reports, in a form that compares bit for bit."""
    return (
        result.posterior.values.tobytes(), result.params, result.diagnostics,
        result.achieved_mean, result.implied_auc,
    )


class TestTwoParamQmmStartsAtRocFixedPoint:
    """two_param_qmm starts its alternation at roc_qmm's class-0 fixed point,
    which run_methods computes once for both QMMs, within that call only."""

    @pytest.mark.parametrize(
        "method, qmm",
        [(MethodId.ROC_QMM, roc_qmm), (MethodId.TWO_PARAM_QMM, two_param_qmm)],
        ids=["roc_qmm", "two_param_qmm"],
    )
    def test_result_does_not_depend_on_the_selected_methods(
        self, monkeypatch, example_scenario, method, qmm
    ):
        """Either QMM called alone, through run_method, and inside
        run_methods alone, with the other QMM and with every method: the
        same bits, diagnostics included, on the worked example and the
        seed-1 geometries at n = 257."""
        selections = [(method,), (MethodId.ROC_QMM, MethodId.TWO_PARAM_QMM), tuple(MethodId)]
        for sc in [example_scenario, *workgen_scenarios(monkeypatch)[:7]]:
            src, tgt = sc.source, sc.target
            alone = _result_bits(qmm(src, tgt))
            assert _result_bits(run_method(method, src, tgt)) == alone
            for methods in selections:
                results = run_methods(replace(sc, methods=methods))
                result = next(r for r in results if r.method is method)
                assert _result_bits(result) == alone

    def test_fixed_point_is_shared_within_one_run_methods_call_only(
        self, monkeypatch, example_scenario
    ):
        """fixed_point_f0 runs once per QMM in run_methods, on a second call
        with the same scenario too; two_param_qmm alone runs roc's
        alternation as well, roc_qmm alone only its own."""
        calls = []
        driver = recal_methods.fixed_point_f0

        def counting(name, *args):
            calls.append(name)
            return driver(name, *args)

        monkeypatch.setattr(recal_methods, "fixed_point_f0", counting)
        src, tgt = example_scenario.source, example_scenario.target
        for methods in [(MethodId.ROC_QMM, MethodId.TWO_PARAM_QMM)] * 2 + [tuple(MethodId)]:
            calls.clear()
            run_methods(replace(example_scenario, methods=methods))
            assert calls == ["roc_qmm", "two_param_qmm"]
            assert recal_methods._ROC_FIXED_POINTS.get() is None
        calls.clear()
        two_param_qmm(src, tgt)
        assert calls == ["roc_qmm", "two_param_qmm"]
        calls.clear()
        roc_qmm(src, tgt)
        assert calls == ["roc_qmm"]

    def test_shared_fixed_point_is_read_only_and_dropped_on_an_error(self, example_scenario):
        """One point per block, read-only; none once the block has ended,
        also when a method in it raised."""
        src, tgt = example_scenario.source, example_scenario.target
        with recal_methods._sharing_roc_fixed_point():
            point = recal_methods._roc_fixed_point(src, tgt, DEFAULT_SETTINGS)
            assert recal_methods._roc_fixed_point(src, tgt, DEFAULT_SETTINGS) is point
        assert not point[1].flags.writeable
        assert recal_methods._roc_fixed_point(src, tgt, DEFAULT_SETTINGS) is not point
        scenario = scenario_from_dict(ZERO_END_MASS_SCENARIO)
        with pytest.raises(DomainError, match="^roc_qmm: initial class-0 CDF"):
            run_methods(replace(scenario, methods=(MethodId.ROC_QMM, MethodId.TWO_PARAM_QMM)))
        assert recal_methods._ROC_FIXED_POINTS.get() is None

    def test_roc_error_falls_back_to_the_cold_start(self, monkeypatch, example_scenario):
        """Where roc's alternation raises, two_param_qmm starts from the
        target features' own CDF with a cold first solve and does not raise
        roc's error: the bits of a run that drops both roc-derived starts,
        and the cold alternation's path, 5 outer steps of [4, 5, 3, 2, 1]
        probes to its fit."""
        src, tgt = example_scenario.source, example_scenario.target
        driver = recal_methods.fixed_point_f0
        warm_starts = []

        def cold(name, target, settings, fit, start=None):
            return driver(name, target, settings, fit)

        def cold_first_solve(*args, warm_start=None, **kwargs):
            warm_starts.append(warm_start)
            return solve_qmm_2d(*args, warm_start=warm_starts[-1] if warm_starts[1:] else None,
                                **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(recal_methods, "fixed_point_f0", cold)
            patch.setattr(recal_methods, "solve_qmm_2d", cold_first_solve)
            reference = _result_bits(two_param_qmm(src, tgt))
        assert warm_starts[0] is not None

        def failing(*args):
            raise DomainError("roc_qmm: class-0 CDF refresh has values outside (0, 1)")

        probes = []

        def recording_solve(*args, **kwargs):
            a, b, values, diag = solve_qmm_2d(*args, **kwargs)
            probes.append(diag.iterations)
            return a, b, values, diag

        monkeypatch.setattr(recal_methods, "_roc_fixed_point", failing)
        monkeypatch.setattr(recal_methods, "solve_qmm_2d", recording_solve)
        result = two_param_qmm(src, tgt)
        assert _result_bits(result) == reference
        assert probes == [4, 5, 3, 2, 1] and result.diagnostics.iterations == 5
        assert abs(result.params["a"] - -1.2148383685297424) <= 1e-12
        assert abs(result.params["b"] - 3.669801043332755) <= 1e-12
        only = replace(example_scenario, methods=(MethodId.TWO_PARAM_QMM,))
        assert _result_bits(run_methods(only)[0]) == reference
        with pytest.raises(DomainError, match="^roc_qmm: class-0 CDF refresh"):
            roc_qmm(src, tgt)


class TestQmmNearQOne:
    """Dividing the class-0 masses p (1 - v) by 1 - pbar lost their digits as
    pbar neared 1: from q = 0.99999 on both QMMs raised "class-0 mass sums to
    0.99999999999870...". Where pbar > 1/2 the refresh divides by their own
    sum, so both run on the worked example up to q = 1 - 1e-6."""

    @staticmethod
    def _at(example_scenario, q):
        return example_scenario.source, TargetSpec(example_scenario.target.feature_dist, q)

    @pytest.mark.parametrize("q", [0.99999, 1.0 - 1e-6], ids=["q_0.99999", "q_1-1e-6"])
    def test_both_qmms_converge(self, example_scenario, q):
        src, tgt = self._at(example_scenario, q)
        roc, two = roc_qmm(src, tgt), two_param_qmm(src, tgt)
        assert roc.diagnostics.converged and two.diagnostics.converged
        # roc_qmm reports its mean; its class-1 share is within 2% of 1 - q
        assert abs((1.0 - roc.achieved_mean) / (1.0 - q) - 1.0) <= 0.02
        assert abs(two.achieved_mean - q) <= DEFAULT_SETTINGS.tol_mean
        assert abs(two.implied_auc - src.implied_auc) <= DEFAULT_SETTINGS.tol_auc

    def test_two_param_qmm_stops_at_max_iter_at_one_minus_1e8(self, example_scenario):
        """roc_qmm converges; two_param_qmm runs out of evaluations and says so.
        Near q = 1 whether it does follows the last bits of the target pmf:
        at 1 - 1e-9 it stopped at max_iter until the Vasicek rule's last bits
        changed, and now converges in 8 evaluations."""
        src, tgt = self._at(example_scenario, 1.0 - 1e-8)
        assert roc_qmm(src, tgt).diagnostics.converged
        diag = two_param_qmm(src, tgt).diagnostics
        assert not diag.converged and diag.iterations == DEFAULT_SETTINGS.max_iter


class TestSaturatedBinomialTail:
    """The saturated binomial geometry: Platt and two_param_qmm cannot match
    the source AUC and say so; roc_qmm converges on it."""

    @pytest.fixture()
    def scenario(self):
        return scenario_from_dict(SATURATED_BINOMIAL_SCENARIO)

    def test_two_param_qmm_inner_infeasibility_names_the_method(self, scenario):
        with pytest.raises(InfeasibleError, match=r"^two_param_qmm: inner \(a, b\) solve") as err:
            two_param_qmm(scenario.source, scenario.target)
        low, high = err.value.attainable_auc_range
        assert low <= high < scenario.source.implied_auc

    def test_platt_reports_the_attainable_auc_range(self, scenario):
        """The source posterior rounds to 1 at the top of the support. Platt
        regresses on the raw values, so it runs its solve there and reports
        the AUC range its probed slopes attain, which ends below the source
        AUC 0.99968248."""
        with pytest.raises(InfeasibleError, match=r"^platt: target AUC") as err:
            run_method(MethodId.PLATT, scenario.source, scenario.target)
        low, high = err.value.attainable_auc_range
        assert abs(low - 0.5000000003) <= 1e-10
        assert abs(high - 0.99951294) <= 1e-8
        assert high < scenario.source.implied_auc

    def test_roc_qmm_converges_past_rejected_newton_iterates(self, monkeypatch, scenario):
        """c is about 4.83, so the link rounds about 97 of the 257 posteriors
        to exactly 1; the class-0 masses from expit(-eta) stay positive there,
        where 1 - v gave 0 and a refresh error. Far from the fixed point the
        Newton iterates step back, and the steps take the plain iterate until
        the iterates are usable; the run converges in fewer evaluations than
        the 49 that repairing the step-backs took, and the 70 plain steps."""
        proposals, accepted = [], 0
        newton_iterate = recal_methods._newton_iterate

        def counting(z, *rest):
            nonlocal accepted
            accepted += any(z is proposal for proposal in proposals)
            proposals.append(newton_iterate(z, *rest))
            return proposals[-1]

        monkeypatch.setattr(recal_methods, "_newton_iterate", counting)
        result = roc_qmm(scenario.source, scenario.target)
        diag = result.diagnostics
        assert diag.converged and diag.residual_fixed_point <= 1e-10
        assert sum(z is None for z in proposals) >= 20
        assert accepted >= 3
        assert diag.iterations < 49
        assert abs(result.achieved_mean - 0.0157489) <= 1e-6
        assert abs(result.implied_auc - 0.9990087) <= 1e-6
        assert np.all(np.diff(result.posterior.values) >= 0.0)


def _captured_fit(monkeypatch, method, src, tgt):
    """The fit and the start that ``method`` hands to fixed_point_f0 on
    (src, tgt), under its own name: two_param_qmm runs roc_qmm's alternation
    first, for its start."""
    captured = {}
    driver = recal_methods.fixed_point_f0

    def capturing(name, target, settings, fit, start=None):
        captured.setdefault(name, (fit, start))
        return driver(name, target, settings, fit, start)

    with monkeypatch.context() as patch:
        patch.setattr(recal_methods, "fixed_point_f0", capturing)
        method(src, tgt)
    return captured[method.__name__]


def _first_state(fit, tgt, method="roc_qmm", z=None):
    """(z, fit, class-0 masses, F, G(z), phi(G(z))) at the start z of the
    alternation, by default the target features' own probit, in the
    argument order of _newton_iterate."""
    if z is None:
        z = recal_methods._class0_cdf("initial", tgt.feature_dist.probs)[1]
    fitted = fit(z)
    f0, refreshed, d0 = recal_methods._refreshed_f0(
        method, tgt.feature_dist, fitted[2], fitted[4]
    )
    return z, fitted, d0, f0, refreshed, recal_methods._cdf_residual(z, refreshed)[1]


class TestNewtonStep:
    """The Newton iterate of the class-0 fixed point and its safeguards."""

    @pytest.mark.parametrize("method", [roc_qmm, two_param_qmm], ids=lambda m: m.__name__)
    @pytest.mark.parametrize("case", ["example", "tail"])
    def test_step_solves_the_finite_difference_newton_system(
        self, monkeypatch, example_scenario, method, case
    ):
        """z + d with (I - J) d = G(z) - z, J the central-difference Jacobian
        of the method's own map at its starting z, below and above the
        F = 1/2 split."""
        if case == "example":
            src, tgt = example_scenario.source, example_scenario.target
        else:
            src, tgt = saturated_tail_scenario(65)
        fit, start = _captured_fit(monkeypatch, method, src, tgt)
        z, fitted, d0, f0, refreshed, phi = _first_state(fit, tgt, method.__name__, start)
        step = recal_methods._newton_iterate(z, fitted, d0, f0, refreshed, phi) - z

        def g_of(point):
            values = fit(point)
            return recal_methods._refreshed_f0("m", tgt.feature_dist, values[2], values[4])[1]

        jacobian = np.empty((z.size, z.size))
        for j in range(z.size):
            h = np.zeros(z.size)
            h[j] = 1e-5
            jacobian[:, j] = (g_of(z + h) - g_of(z - h)) / 2e-5
        expected = np.linalg.solve(np.eye(z.size) - jacobian, refreshed - z)
        np.testing.assert_allclose(step, expected, rtol=0, atol=1e-6 * np.abs(expected).max())

    def test_sided_solve_matches_a_dense_solve(self):
        """Rows below the split solve I + K M diag(g), rows from it on
        I - K M' diag(g), for every split including none."""
        rng = np.random.default_rng(5)
        n = 9
        k, g = rng.uniform(0.5, 3.0, n), rng.uniform(0.0, 0.4, n)
        rhs = rng.normal(size=(3, n))
        lower = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
        for upper in (0, 1, 4, n - 1, n):
            dense = np.eye(n)
            dense[:upper, :upper] += (k[:, None] * lower * g)[:upper, :upper]
            dense[upper:, upper:] -= (k[:, None] * lower.T * g)[upper:, upper:]
            y = rhs.copy()
            assert recal_methods._sided_solve(k, g, y, upper)
            np.testing.assert_allclose(y, np.linalg.solve(dense, rhs.T).T, rtol=1e-12, atol=1e-12)

    def _example_state(self, monkeypatch, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        fit, _ = _captured_fit(monkeypatch, roc_qmm, src, tgt)
        return _first_state(fit, tgt)

    @pytest.mark.parametrize("phi_end", [0.0, 5e-324])
    def test_overflowing_density_weight_gives_the_plain_step(
        self, monkeypatch, example_scenario, phi_end
    ):
        """1 / phi(G(z)) overflows past |G(z)| ~ 37.6: no Newton iterate."""
        z, fitted, d0, f0, refreshed, phi = self._example_state(monkeypatch, example_scenario)
        phi = phi.copy()
        phi[-1] = phi_end
        assert recal_methods._newton_iterate(z, fitted, d0, f0, refreshed, phi) is None

    def test_underflowing_cumprod_gives_the_plain_step(self):
        """a_i = 1/2 over 2,000 points, or a_i = 0 at x_i = 1."""
        rhs = np.ones((2, 2000))
        assert not recal_methods._sided_solve(np.ones(2000), np.full(2000, 2.0 / 3.0), rhs, 2000)
        assert not recal_methods._sided_solve(np.ones(3), np.full(3, 2.0), rhs[:, :3], 3)

    @pytest.mark.parametrize(
        "matrix",
        [[[0.0]], [[np.inf]], [[1.0, 2.0], [2.0, 4.0]], [[1.0, np.nan], [0.0, 1.0]]],
        ids=["zero", "inf", "rank_one", "nan"],
    )
    def test_singular_small_system_gives_the_plain_step(self, matrix):
        assert recal_methods._closed_form_solve(matrix, [1.0] * len(matrix)) is None

    def test_closed_form_solve(self):
        a, b = [[2.0, 1.0], [1.0, 3.0]], [1.0, 2.0]
        np.testing.assert_allclose(recal_methods._closed_form_solve(a, b), np.linalg.solve(a, b))
        assert recal_methods._closed_form_solve([[4.0]], [2.0]) == [0.5]

    def test_singular_moment_jacobian_gives_no_rows(self):
        """At slope 0 the curve is constant and its AUC does not move with
        (alpha, beta), so there are no refit rows and the step is plain, as
        on the uninformative source of
        test_uninformative_source_constant_transform."""
        tgt = TargetSpec(DiscreteScoreDist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]), 0.07)
        values = np.full(3, 0.07)
        z = np.array([-1.0, 0.0, 1.0])
        assert recal_methods._refit_rows(tgt, z, values, 1.0 - values) is None

    def test_non_finite_iterate_gives_the_plain_step(self, monkeypatch, example_scenario):
        z, fitted, d0, f0, refreshed, phi = self._example_state(monkeypatch, example_scenario)
        refreshed = refreshed.copy()
        refreshed[3] = np.nan
        assert recal_methods._newton_iterate(z, fitted, d0, f0, refreshed, phi) is None

    def test_iterate_that_steps_back_gives_the_plain_step(self, monkeypatch, example_scenario):
        """At slope 0 the Newton iterate is G(z) itself; one that falls
        between two points gives no Newton iterate, while the same G(z) in
        order gives one."""
        z, fitted, d0, f0, refreshed, phi = self._example_state(monkeypatch, example_scenario)
        fitted = (0.0, *fitted[1:])
        z_new = recal_methods._newton_iterate(z, fitted, d0, f0, refreshed, phi)
        assert z_new.tobytes() == ((refreshed - z) + z).tobytes()
        refreshed = refreshed.copy()
        refreshed[[5, 6]] = refreshed[[6, 5]]
        assert np.any(np.diff((refreshed - z) + z) < 0.0)
        assert recal_methods._newton_iterate(z, fitted, d0, f0, refreshed, phi) is None

    @staticmethod
    def _plain(fit):
        """The same map with no derivative: every step is plain."""
        return lambda z: (*fit(z)[:5], None)

    def test_newton_iterate_raising_goes_back_to_the_plain_iterate(
        self, monkeypatch, example_scenario
    ):
        """A fit that raises a RecalError at every Newton iterate: a step
        evaluates G there, rejects it and takes the plain iterate, and the
        next step is plain, so the run has the plain run's bits at 3
        evaluations every 2 steps."""
        src, tgt = example_scenario.source, example_scenario.target
        fit, _ = _captured_fit(monkeypatch, roc_qmm, src, tgt)
        plain = recal_methods.fixed_point_f0("m", tgt, DEFAULT_SETTINGS, self._plain(fit))
        refreshed = []

        def failing(z):
            if refreshed and not any(np.array_equal(z, r) for r in refreshed):
                raise DomainError("m: not at a plain iterate")
            out = fit(z)
            refreshed.append(
                recal_methods._refreshed_f0("m", tgt.feature_dist, out[2], out[4])[1]
            )
            return out

        z, diag, _ = recal_methods.fixed_point_f0("m", tgt, DEFAULT_SETTINGS, failing)
        steps = plain[1].iterations - 1
        assert diag.converged and diag.iterations == 1 + steps + (steps + 1) // 2
        assert z.tobytes() == plain[0].tobytes()

    def test_newton_iterate_whose_residual_rises_is_rejected(self, monkeypatch, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        fit, _ = _captured_fit(monkeypatch, roc_qmm, src, tgt)
        plain = recal_methods.fixed_point_f0("m", tgt, DEFAULT_SETTINGS, self._plain(fit))
        monkeypatch.setattr(recal_methods, "_newton_iterate", lambda z, *rest: z + 0.5)
        z, diag, _ = recal_methods.fixed_point_f0("m", tgt, DEFAULT_SETTINGS, fit)
        steps = plain[1].iterations - 1
        assert diag.converged and diag.iterations == 1 + steps + (steps + 1) // 2
        assert z.tobytes() == plain[0].tobytes()
        # max_iter counts the rejected evaluations too
        capped = recal_methods.fixed_point_f0("m", tgt, SolverSettings(max_iter=4), fit)[1]
        assert capped.iterations == 4 and not capped.converged

    def test_error_at_a_plain_iterate_names_the_method_and_stage(
        self, monkeypatch, example_scenario
    ):
        src, tgt = example_scenario.source, example_scenario.target
        fit, _ = _captured_fit(monkeypatch, roc_qmm, src, tgt)
        calls = []

        def failing(z):
            calls.append(z)
            if len(calls) > 1:
                raise DomainError("m: class-0 CDF refresh has values outside (0, 1)")
            return fit(z)

        with pytest.raises(DomainError, match=r"^m: class-0 CDF refresh"):
            recal_methods.fixed_point_f0("m", tgt, DEFAULT_SETTINGS, failing)
        assert len(calls) == 3  # the Newton iterate, then the plain one


@pytest.mark.parametrize("method", [roc_qmm, two_param_qmm], ids=lambda m: m.__name__)
@pytest.mark.parametrize("case", ["example", "tail"])
def test_newton_and_plain_steps_reach_the_same_fixed_point(
    monkeypatch, example_scenario, method, case
):
    """fixed_point_f0 drives each method's map twice: with its derivative
    at the defaults, and without it (every step plain) at fixed-point
    tolerance 1e-14. Both land on the same fixed point within the method's
    tight-reference bound, Newton in at most 6 evaluations."""
    if case == "example":
        src, tgt = example_scenario.source, example_scenario.target
    else:
        src, tgt = saturated_tail_scenario()
    newton = method(src, tgt)
    driver = recal_methods.fixed_point_f0

    def plain(name, target, settings, fit, start=None):
        return driver(name, target, settings, lambda z: (*fit(z)[:5], None), start)

    monkeypatch.setattr(recal_methods, "fixed_point_f0", plain)
    reference = method(src, tgt, replace(TIGHT_SETTINGS, tol_mean=1e-9, tol_auc=1e-6))
    assert newton.diagnostics.converged and reference.diagnostics.converged
    assert newton.diagnostics.iterations <= 6 < reference.diagnostics.iterations
    bound = 1e-12 if method is roc_qmm else QMM_2D_BOUNDS[MethodId.TWO_PARAM_QMM]
    np.testing.assert_allclose(
        newton.posterior.values, reference.posterior.values, rtol=0, atol=bound
    )


def _binormal_label_shift_law(n, p=0.1, q=0.3, shift=1.5):
    """Support linspace(-8, 8, n), class-conditionals phi(s) and phi(s - shift),
    source prior p and a target that is their q-mixture, so label shift is
    the truth."""
    s = np.linspace(-8.0, 8.0, n)
    f0, f1 = np.exp(-0.5 * s**2), np.exp(-0.5 * (s - shift) ** 2)
    f0, f1 = f0 / f0.sum(), f1 / f1.sum()
    src_probs = p * f1 + (1.0 - p) * f0
    src = SourceModel(DiscreteScoreDist(s, src_probs), PosteriorCurve(s, p * f1 / src_probs), p)
    return src, TargetSpec(DiscreteScoreDist(s, q * f1 + (1.0 - q) * f0), q)


def test_consistency_oracle_recovers_the_label_shift_law():
    """On a binormal label-shift law every method that holds the truth in
    its family recovers it: fjs and the logistic CSPD to their solver
    tolerance; roc_qmm, whose ROC shape is the binormal one, with an error
    that falls ~16 times as n quadruples; two_param_qmm as measured, then to
    2e-10. Both QMMs take at most 7 outer steps."""
    sizes = (65, 257, 1025, 4097)
    errors = {m: [] for m in (MethodId.ROC_QMM, MethodId.TWO_PARAM_QMM)}
    for n in sizes:
        src, tgt = _binormal_label_shift_law(n)
        truth = label_shift_correct(src, tgt).posterior.values
        weights = tgt.feature_dist.probs
        for method in (MethodId.FJS, MethodId.LOGISTIC_CSPD, *errors):
            result = run_method(method, src, tgt)
            assert result.diagnostics.converged
            error = float(np.dot(weights, np.abs(result.posterior.values - truth)))
            if method in errors:
                errors[method].append(error)
                assert result.diagnostics.iterations <= 7
            else:
                assert error <= DEFAULT_SETTINGS.tol_mean
    roc = errors[MethodId.ROC_QMM]
    assert 2.5e-3 <= roc[0] <= 2.7e-3
    assert all(14.0 <= a / b <= 18.0 for a, b in zip(roc, roc[1:]))
    two = errors[MethodId.TWO_PARAM_QMM]
    assert two[0] <= 1.3e-5 and two[1] <= 5e-8 and max(two[2:]) <= 2e-10
