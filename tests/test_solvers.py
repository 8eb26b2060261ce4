import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.special
from scipy.special import logit

from recal import solvers
from recal import (
    DiscreteScoreDist,
    DomainError,
    InfeasibleError,
    NoRootError,
    PosteriorCurve,
    SolverSettings,
    TargetSpec,
    bisect_root,
    fixed_point_f0,
    implied_auc,
    logistic_cspd_family,
    mean_under,
    normal_cspd_family,
    platt_family,
    rob_logit_family,
    solve_qmm_2d,
    source_implied_auc,
)


class TestBisectRoot:
    def test_linear(self):
        root = bisect_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12)
        assert abs(root - 1.0) <= 1e-9

    def test_exact_endpoint_root(self):
        assert bisect_root(lambda x: x, 0.0, 2.0, 1e-12) == 0.0

    def test_expansion_reaches_distant_root(self):
        root = bisect_root(lambda x: x - 1000.0, 0.0, 1.0, 1e-9)
        assert abs(root - 1000.0) <= 1e-5

    def test_expansion_respects_lo_anchor(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1000.0

        bisect_root(f, 0.0, 1.0, 1e-9, expand_lo=False)
        assert min(calls) >= 0.0

    def test_no_root_error_carries_probed_interval(self):
        with pytest.raises(NoRootError) as err:
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9, max_expansions=5)
        lo, hi = err.value.probed_interval
        assert lo < -1.0 and hi > 1.0

    def test_closed_interval_without_expansion(self):
        with pytest.raises(NoRootError):
            bisect_root(lambda x: x - 5.0, 0.0, 1.0, 1e-9, expand_lo=False, expand_hi=False)

    def test_degenerate_interval(self):
        assert bisect_root(lambda x: 0.0, 2.0, 2.0, 1e-9) == 2.0
        with pytest.raises(NoRootError):
            bisect_root(lambda x: 1.0, 2.0, 2.0, 1e-9)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            bisect_root(lambda x: x, 1.0, 0.0, 1e-9)

    def test_deterministic(self):
        f = lambda x: np.sin(x) - 0.3
        assert bisect_root(f, 0.0, 1.0, 1e-14) == bisect_root(f, 0.0, 1.0, 1e-14)

    def test_residual_tolerance_honoured(self):
        f = lambda x: np.expm1(x) - 0.5
        root = bisect_root(f, 0.0, 1.0, 1e-10)
        assert abs(f(root)) <= 1e-10


def _meets_contract(f, root, tol):
    """|f(root)| <= tol, or a sign change within the stopping width of root."""
    width = 2.0 * tol * max(1.0, abs(root))
    return abs(f(root)) <= tol or f(root - width) <= 0.0 <= f(root + width)


@st.composite
def _mean_equations(draw):
    """A mean equation sum_i w_i link(alpha * x_i + beta) = q in beta, as the
    QMM probe poses it, with shallow and steep (saturating) slopes."""
    family = draw(st.sampled_from([platt_family(), normal_cspd_family()]))
    n = draw(st.integers(1, 12))
    x = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    alpha = draw(st.one_of(st.floats(0.01, 10.0), st.floats(1e3, 1e6)))
    q = draw(st.floats(0.001, 0.999))
    x0 = draw(st.one_of(st.none(), st.floats(-10.0, 10.0)))
    w = w / w.sum()

    def f(beta):
        return float(np.dot(w, family.link(alpha * x + beta))) - q

    def fprime(beta):
        return float(np.dot(w, family.link_pdf(alpha * x + beta)))

    return f, fprime, x0


class TestBisectRootNewton:
    @settings(max_examples=300, deadline=None)
    @given(_mean_equations(), st.sampled_from([1e-9, 1e-12]))
    def test_matches_midpoint_path_within_tol(self, equation, tol):
        f, fprime, x0 = equation
        try:
            reference = bisect_root(f, -2.0, 2.0, tol)
        except NoRootError:
            with pytest.raises(NoRootError):
                bisect_root(f, -2.0, 2.0, tol, fprime=fprime, x0=x0)
            return
        root = bisect_root(f, -2.0, 2.0, tol, fprime=fprime, x0=x0)
        assert _meets_contract(f, reference, tol)
        assert _meets_contract(f, root, tol)
        # both residuals within tol leave a gap of at most 2 tol / slope;
        # a bracket-width stop leaves at most twice the stopping width
        gap = abs(root - reference)
        slope = min(fprime(root), fprime(reference))
        assert gap * slope <= 2.0 * tol or gap <= 4.0 * tol * max(1.0, abs(reference))

    def test_newton_needs_fewer_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.expm1(x) - 0.5

        bisect_root(f, 0.0, 1.0, 1e-12)
        bisected = len(calls)
        calls.clear()
        root = bisect_root(f, 0.0, 1.0, 1e-12, fprime=np.exp)
        assert abs(f(root)) <= 1e-12
        assert len(calls) < bisected / 3


@pytest.mark.parametrize(
    "family",
    [
        platt_family(),
        logistic_cspd_family(),
        normal_cspd_family(),
        rob_logit_family(np.array([0.2, 0.5, 0.8])),
    ],
    ids=lambda fam: fam.name,
)
def test_link_pdf_is_derivative_of_link(family):
    z = np.linspace(-8.0, 8.0, 161)
    h = 1e-5
    central = (family.link(z + h) - family.link(z - h)) / (2.0 * h)
    # rounding error ~ eps / h and truncation error ~ h**2 / 6 are both
    # about 2e-11 here
    np.testing.assert_allclose(family.link_pdf(z), central, rtol=0.0, atol=1e-10)


class TestLinkLookup:
    """Families bind ``solvers.expit``/``solvers.ndtr`` when they are built,
    so a wrapper set at those module attributes sees every link call."""

    EDGES = [np.inf, -np.inf, np.nan, 0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1e-300]

    @pytest.mark.parametrize(
        "build, link",
        [
            (platt_family, "expit"),
            (logistic_cspd_family, "expit"),
            (normal_cspd_family, "ndtr"),
            (lambda: rob_logit_family(np.array([0.2, 0.5, 0.8])), "expit"),
        ],
    )
    def test_family_built_after_patch_binds_replacement(self, monkeypatch, build, link):
        calls = []

        def replacement(z):
            calls.append(np.size(z))
            return getattr(scipy.special, link)(z)

        monkeypatch.setattr(solvers, link, replacement)
        family = build()
        assert family.link is replacement
        family.posterior_values(np.array([0.2, 0.5, 0.8]), 1.5, -0.25)
        assert calls == [3]

    @pytest.mark.parametrize("link", ["expit", "ndtr"])
    def test_links_equal_scipy_bit_for_bit_on_edges(self, link):
        ours, theirs = getattr(solvers, link), getattr(scipy.special, link)
        z = np.array(self.EDGES)
        assert ours(z).tobytes() == theirs(z).tobytes()
        for value in self.EDGES:
            a, b = ours(value), theirs(value)
            assert type(a) is type(b)
            assert np.float64(a).tobytes() == np.float64(b).tobytes()


def _toy_problem(n=5, q=0.08, seed=0):
    rng = np.random.default_rng(seed)
    support = np.arange(n, dtype=float)
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    target = TargetSpec(DiscreteScoreDist(support, probs), q)
    values = np.sort(rng.uniform(0.05, 0.95, n))
    curve = PosteriorCurve(support, values)
    return target, curve


class TestSolveQmm2d:
    def test_identity_solution_when_nothing_shifts(self, example_scenario):
        """With target features equal to the source features and q = p, the
        identity transform already satisfies both matching equations."""
        src = example_scenario.source
        target = TargetSpec(src.feature_dist, src.prior)
        auc = source_implied_auc(src)
        a, b, diag = solve_qmm_2d(logistic_cspd_family(), auc, src.prior, target, src.posterior)
        assert diag.converged
        assert abs(a - 1.0) <= 1e-3
        assert abs(b) <= 1e-2
        values = logistic_cspd_family().posterior_values(src.posterior.values, a, b)
        np.testing.assert_allclose(values, src.posterior.values, atol=1e-4)

    def test_platt_with_half_auc_target_collapses(self):
        """Target AUC 1/2 is met exactly by a constant transform: zero slope
        and intercept at the log-odds of the target prior."""
        target, curve = _toy_problem(q=0.07)
        a, b, diag = solve_qmm_2d(platt_family(), 0.5, 0.07, target, curve)
        assert diag.converged
        assert a == 0.0
        assert abs(b - logit(0.07)) <= 1e-6
        values = platt_family().posterior_values(curve.values, a, b)
        np.testing.assert_allclose(values, 0.07, atol=1e-9)

    def test_example_logistic_cspd_row(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        auc_target = source_implied_auc(src)
        fam = logistic_cspd_family()
        a, b, diag = solve_qmm_2d(fam, auc_target, tgt.prior, tgt, src.posterior)
        assert diag.converged
        values = fam.posterior_values(src.posterior.values, a, b)
        curve = PosteriorCurve(tgt.support, values)
        assert abs(mean_under(tgt.feature_dist, curve) - 0.050) <= 1.5e-3
        assert abs(implied_auc(tgt.feature_dist, curve) - 0.803) <= 1.5e-3

    def test_residual_contracts_hold_when_converged(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            target, curve = _toy_problem(
                n=int(rng.integers(3, 10)), q=float(rng.uniform(0.02, 0.2)), seed=trial
            )
            # a self-consistent reachable AUC target: the curve's own implied
            # AUC under the target features
            auc_target = implied_auc(target.feature_dist, curve)
            a, b, diag = solve_qmm_2d(platt_family(), auc_target, target.prior, target, curve)
            assert diag.converged
            assert diag.residual_mean <= 1e-9
            assert diag.residual_auc <= 1e-6

    def test_infeasible_target_reports_attainable_range(self):
        target, curve = _toy_problem(n=2, q=0.3, seed=3)
        with pytest.raises(InfeasibleError) as err:
            solve_qmm_2d(platt_family(), 0.9999, 0.3, target, curve)
        low, high = err.value.attainable_auc_range
        assert 0.5 <= low <= high < 0.9999

    def test_below_half_target_is_infeasible(self):
        target, curve = _toy_problem(q=0.1)
        with pytest.raises(InfeasibleError):
            solve_qmm_2d(platt_family(), 0.3, 0.1, target, curve)

    def test_bracket_recorded(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        a, b, diag = solve_qmm_2d(
            logistic_cspd_family(), source_implied_auc(src), tgt.prior, tgt, src.posterior
        )
        assert diag.bracket is not None
        lo, hi = diag.bracket
        assert lo <= a <= hi

    def test_deterministic(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        auc = source_implied_auc(src)
        first = solve_qmm_2d(platt_family(), auc, tgt.prior, tgt, src.posterior)
        second = solve_qmm_2d(platt_family(), auc, tgt.prior, tgt, src.posterior)
        assert first[0] == second[0] and first[1] == second[1]

    def test_interior_source_required(self):
        target, _ = _toy_problem()
        bad = PosteriorCurve(target.support, [0.0, 0.2, 0.4, 0.6, 0.8])
        with pytest.raises(DomainError):
            solve_qmm_2d(logistic_cspd_family(), 0.7, 0.1, target, bad)


class TestFixedPointF0:
    def test_identity_converges_immediately(self):
        init = np.array([0.2, 0.5, 0.8])
        out, diag = fixed_point_f0(lambda x: x, init)
        assert diag.converged and diag.iterations == 1
        np.testing.assert_allclose(out, init, atol=0)

    def test_affine_contraction_reaches_closed_form(self):
        out, diag = fixed_point_f0(lambda x: x / 2.0 + 0.25, np.array([0.2, 0.4, 0.6]))
        assert diag.converged
        np.testing.assert_allclose(out, 0.5, atol=1e-9)

    def test_non_convergence_flagged_not_raised(self):
        slow = lambda x: 0.5 + 0.999 * (x - 0.5)
        out, diag = fixed_point_f0(slow, np.array([0.2, 0.4, 0.6]), tol=1e-12, max_iter=5)
        assert not diag.converged
        assert diag.iterations == 5
        assert diag.residual_fixed_point > 1e-12
        assert out.shape == (3,)

    def test_init_validation(self):
        with pytest.raises(DomainError):
            fixed_point_f0(lambda x: x, np.array([0.5, 0.4]))
        with pytest.raises(DomainError):
            fixed_point_f0(lambda x: x, np.array([0.0, 0.5]))
        with pytest.raises(DomainError):
            fixed_point_f0(lambda x: x, np.array([0.2, 1.0]))

    def test_order_preserving_update_keeps_order(self):
        rng = np.random.default_rng(22)
        init = np.sort(rng.uniform(0.05, 0.95, 6))
        out, diag = fixed_point_f0(lambda x: 0.6 * x + 0.2, init)
        assert diag.converged
        assert np.all(np.diff(out) >= 0.0)
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestSolverSettings:
    def test_defaults(self):
        s = SolverSettings()
        assert s.tol_mean == 1e-9
        assert s.tol_auc == 1e-6
        assert s.tol_fixed_point == 1e-10
        assert s.max_iter == 200
