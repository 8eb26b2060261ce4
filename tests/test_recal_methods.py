import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit, ndtri

from recal import _special, recal_methods
from recal.auc_engine import mid_cdf
from recal import (
    DegenerateClassError,
    DiscreteScoreDist,
    DomainError,
    InfeasibleError,
    MethodId,
    PosteriorCurve,
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
    scenario_from_dict,
    solve_qmm_2d,
    two_param_qmm,
)
from conftest import (
    CELL_TOL,
    REFERENCE_TABLE,
    SATURATED_BINOMIAL_SCENARIO,
    ZERO_END_MASS_SCENARIO,
    logistic_scenario,
    mixture_target,
    random_source,
    random_target,
    saturated_tail_scenario,
)


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


@pytest.mark.parametrize("method", ["roc_qmm", "two_param_qmm"])
@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_degenerate_class0_cdf_refresh_names_method_and_stage(method, fill):
    feature = DiscreteScoreDist([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    with pytest.raises(
        DegenerateClassError,
        match=f"^{method}: class-0 CDF refresh: posterior mean {fill!r} leaves one class empty",
    ):
        recal_methods._refreshed_f0(method, feature, np.full(3, fill))


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
    """The array refresh gives the CDF bits of the validated object route,
    or the error it would meet: a degenerate mean or a class-0 mass off 1.
    Its probit z has the bits of the library's ndtri applied to F where
    F <= 1/2 and to the survival sums above, negated there; it does not
    decrease beyond rounding, and is not finite exactly where a zero
    class-0 mass sits at an end of the support."""
    feature, values = inputs
    try:
        cc = class_conditionals(feature, PosteriorCurve(feature.support, values))
        expected = adjusted_cdf(cc.dist0)
    except (DegenerateClassError, DomainError) as exc:
        with pytest.raises(type(exc), match="^two_param_qmm: class-0 CDF refresh"):
            recal_methods._refreshed_f0("two_param_qmm", feature, values)
        return
    d0 = cc.dist0.probs
    if d0[0] == 0.0 or d0[-1] == 0.0:
        with pytest.raises(
            DomainError, match=r"^two_param_qmm: class-0 CDF refresh has values outside \(0, 1\)"
        ):
            recal_methods._refreshed_f0("two_param_qmm", feature, values)
        return
    f0, z = recal_methods._refreshed_f0("two_param_qmm", feature, values)
    assert f0.dtype == expected.dtype and f0.tobytes() == expected.tobytes()
    upper = int(np.count_nonzero(expected <= 0.5))
    # one call on the whole support, as the library makes it, so that both
    # take the same path of recal._special
    probit = _special.ndtri(np.concatenate((expected[:upper], mid_cdf(d0[upper:][::-1])[::-1])))
    assert z.tobytes() == np.concatenate((probit[:upper], -probit[upper:])).tobytes()
    # ndtri itself steps back by an ulp between some neighbouring floats,
    # and the sums on the two sides of the split round differently
    assert np.all(np.isfinite(z)) and np.all(np.diff(z) >= -1e-12)


def test_two_sided_probit_stays_finite_where_the_cdf_rounds_to_1():
    """Class-0 masses [1, 2e-20, 1e-20] put F at [1/2, 1, 1], where ndtri is
    +inf; z takes the probit of the survival sums [2e-20, 5e-21] instead,
    from the library's ndtri on the array it passes."""
    feature = DiscreteScoreDist([0.0, 1.0, 2.0], [1.0, 2e-20, 1e-20])
    f0, z = recal_methods._refreshed_f0("two_param_qmm", feature, np.full(3, 0.5))
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

    @pytest.mark.parametrize(
        "method", ["label_shift", "fjs", "platt", "logistic_cspd", "normal_cspd"]
    )
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_interior_required(self, end, method):
        """Every method that needs the source posterior strictly inside
        (0, 1) refuses a value of 0 or 1 with the one shared message."""
        src_dist = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        values = [0.0, 0.8] if end == 0.0 else [0.2, 1.0]
        src = SourceModel(src_dist, PosteriorCurve([0.0, 1.0], values), 0.5 * sum(values))
        tgt = TargetSpec(src_dist, 0.3)
        with pytest.raises(
            DomainError,
            match=rf"^{method}: source posterior values must lie strictly inside \(0, 1\)",
        ):
            run_method(MethodId(method), src, tgt)


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
            num = (q / p) * eta
            den = num + (1.0 / rho) * ((1.0 - q) / (1.0 - p)) * (1.0 - eta)
            return float(np.dot(w, num / den)) - q

        grid = np.linspace(lower, upper, 4001)
        signs = np.array([resid(r) for r in grid])
        cells = np.nonzero(np.diff(np.signbit(signs)))[0]
        assert cells.size == 1  # unique root
        result = fjs_recalibrate(src, tgt)
        rho = result.params["rho"]
        assert grid[cells[0]] <= rho <= grid[cells[0] + 1]

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
    def test_default_curve_within_1e9_of_tight_reference(self, example_scenario, seed):
        """The default stop on the CDF change lands within 1e-9 of a run
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
            default.posterior.values, tight.posterior.values, rtol=0, atol=1e-9
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
    MethodId.TWO_PARAM_QMM: 1e-9,
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
        # every outer step after the first is handed the previous one's fit
        assert warm_starts[0] is None and None not in warm_starts[1:]
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
        # a cold solve takes 4 probes at every outer step of the example
        assert probes == [4, 4, 3, 3, 2, 2, 2, 2, 2, 2, 2]


class TestSaturatedBinomialTail:
    """Errors on the saturated binomial geometry name the method and stage."""

    @pytest.fixture()
    def scenario(self):
        return scenario_from_dict(SATURATED_BINOMIAL_SCENARIO)

    def test_two_param_qmm_inner_infeasibility_names_the_method(self, scenario):
        with pytest.raises(InfeasibleError, match=r"^two_param_qmm: inner \(a, b\) solve") as err:
            two_param_qmm(scenario.source, scenario.target)
        low, high = err.value.attainable_auc_range
        assert low <= high < scenario.source.implied_auc

    def test_roc_qmm_refresh_names_the_method_and_stage(self, scenario):
        # c is about 4.83, so the link at step 1 rounds 97 of the 257
        # posteriors to exactly 1, where the class-0 mass is then exactly 0
        with pytest.raises(
            DomainError, match=r"^roc_qmm: class-0 CDF refresh has values outside \(0, 1\)"
        ):
            roc_qmm(scenario.source, scenario.target)
