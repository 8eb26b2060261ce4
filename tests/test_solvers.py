import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.special
from scipy.special import logit, ndtri

from recal import _special, recal_methods, solvers
from recal import (
    DiscreteScoreDist,
    DomainError,
    InfeasibleError,
    NoRootError,
    PosteriorCurve,
    RecalError,
    SolverSettings,
    StructuralError,
    TargetSpec,
    bisect_root,
    fixed_point_f0,
    implied_auc,
    implied_auc_values,
    logistic_cspd_family,
    mean_under,
    normal_cspd_family,
    platt_family,
    rob_logit_family,
    solve_qmm_2d,
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

    def test_expansion_cap_is_the_60th_doubling(self):
        """The walk from [0, 2] probes 2**k at its k-th doubling: a root first
        bracketed at the 60th, MAX_EXPANSIONS, is found, one past it is not."""
        assert solvers.MAX_EXPANSIONS == 60
        assert bisect_root(lambda x: x - 0.75 * 2.0**60, 0.0, 2.0, 1e-12) == 0.75 * 2.0**60
        with pytest.raises(NoRootError, match="within 60 expansions$") as err:
            bisect_root(lambda x: x - 1.5 * 2.0**60, 0.0, 2.0, 1e-12)
        assert err.value.probed_interval == (0.0, 2.0**60)

    def test_newton_step_of_half_the_step_before_is_taken(self):
        """In the bracket [0, 0.75], after a step of 0.25, the Newton step
        0.125 from 0.75 is exactly half of it: taken, to the root 0.625,
        rather than the midpoint 0.375. The slopes are chosen, not f's
        derivative."""
        points = {0.0: (-1.0, 1.0), 1.0: (1.0, 4.0), 0.75: (0.5, 4.0), 0.625: (0.0, 4.0)}
        probes = []

        def f(x):
            probes.append(x)
            return points[x][0] if x in points else math.nan

        root = bisect_root(f, -2.0, 2.0, 1e-12, fprime=lambda x: points[x][1], x0=0.0)
        assert root == 0.625 and probes == [0.0, 1.0, 0.75, 0.625]

    def test_no_root_error_carries_probed_interval(self):
        with pytest.raises(NoRootError) as err:
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)
        lo, hi = err.value.probed_interval
        # f > 0 everywhere, so the walk widens below lo only
        assert lo < -1.0 and hi == 1.0

    @pytest.mark.parametrize("edge", [1.0, 1.0000000000000002, 1.3, 1.3000000000000003])
    def test_overshoot_next_to_the_last_finite_probe_raises(self, edge):
        """f is finite only up to ``edge``, so the halving back from each
        overshoot ends on the float just above the last finite probe, where
        the midpoint rounds to one of the two ends (either, by the ends'
        last bits). The search stops there instead of halving forever."""
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            assert calls < 5000
            return -1.0 if x <= edge else np.nan

        with pytest.raises(NoRootError, match="^f is not finite at"):
            bisect_root(f, 0.0, 2.0, 1e-12)

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
    family = draw(st.sampled_from([platt_family([0.5]), normal_cspd_family([0.5])]))
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
        z = alpha * x + beta
        return float(np.dot(w, family.link_pdf(z, family.link(z))))

    return f, fprime, x0


@st.composite
def _walk_problems(draw):
    """A non-decreasing f with (lo, hi, x0) for the derivative-free walk: a
    line, a saturating tanh, a cube root that is steep at its root, or a
    mean equation of the QMM probe."""
    r = draw(st.floats(-1e4, 1e4))
    shape = draw(st.sampled_from(["linear", "tanh", "cbrt", "mean"]))
    if shape == "linear":
        slope = draw(st.floats(1e-3, 1e3))
        f = lambda x: slope * (x - r)
    elif shape == "tanh":
        f = lambda x: float(np.tanh(x - r))
    elif shape == "cbrt":
        f = lambda x: float(np.cbrt(x - r)) + 1e-3 * (x - r)
    else:
        f = draw(_mean_equations())[0]
    lo = draw(st.floats(-50.0, 50.0))
    hi = lo + draw(st.floats(1e-3, 100.0))
    x0 = draw(st.one_of(st.none(), st.floats(lo - 10.0, hi + 10.0)))
    return f, lo, hi, x0


class TestBisectRootWalk:
    @settings(max_examples=200, deadline=None)
    @given(_walk_problems(), st.sampled_from([1e-12, 1e-9, 1e-6]))
    def test_walk_finds_the_root_within_the_permitted_sides(self, problem, tol):
        f, lo, hi, x0 = problem
        first = bisect_root(f, lo, hi, tol, x0=x0)
        assert _meets_contract(f, first, tol)
        second = bisect_root(f, lo, hi, tol, x0=x0)
        assert np.float64(second).tobytes() == np.float64(first).tobytes()


@st.composite
def _far_root_problems(draw):
    """A non-decreasing f with its derivative, (lo, hi, x0) and a root up to
    1e12 widths hi - lo from x0, on either side: a line, a saturating tanh,
    an asinh that is flat far from its root, or a cube root that is steep at
    it. Each is linear or bends away from its tangents toward the root, so
    a Newton step from far away is exact, lands beyond the root or is
    clamped. An exponential searched from its steep side is not: its Newton
    steps stay about one unit long."""
    lo = draw(st.floats(-50.0, 50.0))
    width = draw(st.floats(1e-3, 100.0))
    hi = lo + width
    x0 = draw(st.floats(lo, hi))
    distance = width * 10.0 ** draw(st.floats(0.0, 12.0))
    r = x0 + draw(st.sampled_from([-1.0, 1.0])) * distance
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    shape = draw(st.sampled_from(["linear", "tanh", "asinh", "cbrt"]))
    if shape == "linear":
        f, fprime = (lambda x: s * (x - r)), (lambda x: s)
    elif shape == "tanh":
        f = lambda x: math.tanh(s * (x - r))
        fprime = lambda x: s * (1.0 - math.tanh(s * (x - r)) ** 2)
    elif shape == "asinh":
        f = lambda x: math.asinh(s * (x - r))
        fprime = lambda x: s / math.hypot(1.0, s * (x - r))
    else:
        f = lambda x: float(np.cbrt(x - r)) + 1e-3 * (x - r)
        fprime = lambda x: abs(x - r) ** (-2.0 / 3.0) / 3.0 + 1e-3 if x != r else math.inf
    return f, fprime, lo, hi, x0, distance / width


class TestBisectRootNewton:
    @settings(max_examples=200, deadline=None)
    @given(_far_root_problems(), st.sampled_from([1e-12, 1e-9, 1e-6]))
    def test_far_root_in_logarithmic_evaluations(self, problem, tol):
        """Each clamped step doubles the width, so reaching a root d widths
        away takes O(log2 d) evaluations; the bracket then shrinks to the
        tolerance in O(log2(1 / tol)) more."""
        f, fprime, lo, hi, x0, widths = problem
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        root = bisect_root(counted, lo, hi, tol, fprime=fprime, x0=x0)
        assert _meets_contract(f, root, tol)
        assert calls <= 2.0 * math.log2(2.0 + widths) + math.log2(1.0 / tol) + 10.0

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            _far_root_problems().map(lambda p: p[:5]),
            _mean_equations().map(lambda e: (e[0], e[1], -2.0, 2.0, e[2])),
        ),
        st.sampled_from([1e-12, 1e-9, 1e-6]),
    )
    def test_fprime_follows_f_at_the_same_point(self, problem, tol):
        """The methods' derivatives reuse the link values of the evaluation
        just made, so every fprime(x) must come right after f(x)."""
        f, fprime, lo, hi, x0 = problem
        calls = []

        def logged(name, g):
            def call(x):
                calls.append((name, x))
                return g(x)

            return call

        try:
            bisect_root(logged("f", f), lo, hi, tol, fprime=logged("fprime", fprime), x0=x0)
        except NoRootError:
            pass
        assert calls[0][0] == "f"
        for before, (name, x) in zip(calls, calls[1:]):
            if name == "fprime":
                assert before == ("f", x)

    def test_not_finite_at_the_start_stops_there(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if x == 2.0 else x - 2.5

        with pytest.raises(NoRootError, match="^f is not finite at 2.0$") as err:
            bisect_root(f, 1.0, 3.0, 1e-9)
        assert calls == [2.0] and err.value.probed_interval == (1.0, 3.0)

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
        platt_family(np.array([0.2, 0.5, 0.8])),
        logistic_cspd_family(np.array([0.2, 0.5, 0.8])),
        normal_cspd_family(np.array([0.2, 0.5, 0.8])),
        rob_logit_family(ndtri(np.array([0.2, 0.5, 0.8]))),
    ],
    ids=lambda fam: fam.name,
)
def test_link_pdf_is_derivative_of_link(family):
    z = np.linspace(-8.0, 8.0, 161)
    h = 1e-5
    central = (family.link(z + h) - family.link(z - h)) / (2.0 * h)
    # rounding error ~ eps / h and truncation error ~ h**2 / 6 are both
    # about 2e-11 here
    pdf = family.link_pdf(z, family.link(z))
    np.testing.assert_allclose(pdf, central, rtol=0.0, atol=1e-10)


class TestLinkLookup:
    """Families bind ``solvers.expit``/``solvers.ndtr`` when they are built,
    so a wrapper set at those module attributes sees every link call."""

    EDGES = [np.inf, -np.inf, np.nan, 0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1e-300]
    # numpy's exp rounds expit(-40) one ulp away from scipy's; the dense
    # grid test below bounds it
    BIT_EDGES = {"expit": [z for z in EDGES if z != -40.0], "ndtr": EDGES}

    @pytest.mark.parametrize(
        "build, link",
        [
            (platt_family, "expit"),
            (logistic_cspd_family, "expit"),
            (normal_cspd_family, "ndtr"),
            (lambda f0: rob_logit_family(ndtri(f0)), "expit"),
        ],
    )
    def test_family_built_after_patch_binds_replacement(self, monkeypatch, build, link):
        calls = []

        def replacement(z):
            calls.append(np.size(z))
            return getattr(scipy.special, link)(z)

        monkeypatch.setattr(solvers, link, replacement)
        family = build(np.array([0.2, 0.5, 0.8]))
        assert family.link is replacement
        family.link(1.5 * family.x + -0.25)
        assert calls == [3]

    @pytest.mark.parametrize("link", ["expit", "ndtr"])
    def test_links_equal_scipy_bit_for_bit_on_edges(self, link):
        ours, theirs = getattr(solvers, link), getattr(scipy.special, link)
        edges = self.BIT_EDGES[link]
        z = np.array(edges)
        assert ours(z).tobytes() == theirs(z).tobytes()
        for value in edges:
            a, b = ours(value), theirs(value)
            assert type(a) is type(b)
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    @pytest.mark.parametrize("kind", ["array", "0-d array", "numpy scalar", "float"])
    def test_expit_has_the_bits_and_types_of_the_formula(self, kind):
        """expit gives what 1 / (1 + exp(-z)) gives, for every argument type."""
        values = [np.inf, -np.inf, np.nan, 745.0, -745.0, 0.0, -0.0, 3.5, -40.0]
        make = {"0-d array": np.array, "numpy scalar": np.float64, "float": float}.get(kind)
        for z in [np.array(values)] if make is None else [make(v) for v in values]:
            with np.errstate(over="ignore"):
                expected = 1.0 / (1.0 + np.exp(-z))
            ours = solvers.expit(z)
            assert type(ours) is type(expected)
            assert np.asarray(ours).tobytes() == np.asarray(expected).tobytes()

    def test_expit_leaves_its_argument_and_accepts_a_read_only_array(self):
        z = np.linspace(-50.0, 50.0, 101)
        kept = z.tobytes()
        solvers.expit(z)
        assert z.tobytes() == kept
        z.setflags(write=False)
        assert solvers.expit(z).tobytes() == solvers.expit(z.copy()).tobytes()

    def test_expit_saturates_with_scipy_and_is_within_ulps_elsewhere(self):
        z = np.concatenate((np.linspace(-750.0, 750.0, 300_001), self.EDGES[3:]))
        ours, theirs = solvers.expit(z), scipy.special.expit(z)
        # exact 0s and 1s fall at the same z
        np.testing.assert_array_equal(ours == 0.0, theirs == 0.0)
        np.testing.assert_array_equal(ours == 1.0, theirs == 1.0)
        # each of 1 / (1 + exp(-z)) and scipy's formula is within ~2 eps of
        # the logistic; subnormal results carry an absolute error of a few
        # units of the smallest subnormal (measured worst: 2.3 eps, 2 units)
        eps, unit = np.finfo(float).eps, np.nextafter(0.0, 1.0)
        assert np.all(np.abs(ours - theirs) <= 8.0 * eps * theirs + 4.0 * unit)


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
        auc = src.implied_auc
        a, b, values, diag = solve_qmm_2d(
            logistic_cspd_family(src.posterior.values), auc, target
        )
        assert diag.converged
        assert abs(a - 1.0) <= 1e-3
        assert abs(b) <= 1e-2
        np.testing.assert_allclose(values, src.posterior.values, atol=1e-4)

    def test_second_solve_on_a_target_has_the_bits_of_a_fresh_one(self):
        """The target law caches its mid-CDF on the first solve; a second
        solve on the same target gives what a solve on a new target gives."""
        target, curve = _toy_problem(n=200, q=0.12, seed=4)
        family = logistic_cspd_family(curve.values)
        first = solve_qmm_2d(family, 0.71, target)
        fresh_target = TargetSpec(
            DiscreteScoreDist(target.support, target.feature_dist.probs), target.prior
        )
        for again in (solve_qmm_2d(family, 0.71, target), solve_qmm_2d(family, 0.71, fresh_target)):
            assert again[:2] == first[:2] and again[2].tobytes() == first[2].tobytes()
            assert repr(again[3]) == repr(first[3])

    def test_platt_with_half_auc_target_collapses(self):
        """Target AUC 1/2 is met exactly by a constant transform: zero slope
        and intercept at the log-odds of the target prior, also from a warm
        start, which takes no joint Newton steps there."""
        target, curve = _toy_problem(q=0.07)
        for warm_start in (None, (1.0, 0.0)):
            a, b, values, diag = solve_qmm_2d(
                platt_family(curve.values), 0.5, target, warm_start=warm_start
            )
            assert diag.converged and diag.iterations == 1  # the slope-0 probe
            assert a == 0.0 and diag.bracket == (0.0, 0.0)
            assert abs(b - logit(0.07)) <= 1e-6
            np.testing.assert_allclose(values, 0.07, atol=1e-9)

    def test_example_logistic_cspd_row(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        auc_target = src.implied_auc
        fam = logistic_cspd_family(src.posterior.values)
        a, b, values, diag = solve_qmm_2d(fam, auc_target, tgt)
        assert diag.converged
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
            a, b, _, diag = solve_qmm_2d(
                platt_family(curve.values), auc_target, target
            )
            assert diag.converged
            assert diag.residual_mean <= 1e-9
            assert diag.residual_auc <= 1e-6

    def test_infeasible_target_reports_attainable_range(self):
        target, curve = _toy_problem(n=2, q=0.3, seed=3)
        with pytest.raises(InfeasibleError) as err:
            solve_qmm_2d(platt_family(curve.values), 0.9999, target)
        low, high = err.value.attainable_auc_range
        assert 0.5 <= low <= high < 0.9999

    def test_below_half_target_is_infeasible(self):
        target, curve = _toy_problem(q=0.1)
        with pytest.raises(InfeasibleError):
            solve_qmm_2d(platt_family(curve.values), 0.3, target)

    def test_bracket_recorded(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        a, b, _, diag = solve_qmm_2d(
            logistic_cspd_family(src.posterior.values), src.implied_auc, tgt
        )
        assert diag.bracket is not None
        lo, hi = diag.bracket
        assert lo <= a <= hi

    def test_deterministic(self, example_scenario):
        src, tgt = example_scenario.source, example_scenario.target
        auc = src.implied_auc
        first = solve_qmm_2d(platt_family(src.posterior.values), auc, tgt)
        second = solve_qmm_2d(platt_family(src.posterior.values), auc, tgt)
        assert first[0] == second[0] and first[1] == second[1]

    def test_interior_source_required(self):
        """A family whose regressor is not finite everywhere is refused when
        it is built, naming the family."""
        target, _ = _toy_problem()
        bad = PosteriorCurve(target.support, [0.0, 0.2, 0.4, 0.6, 0.8])
        with pytest.raises(DomainError, match="^logistic_cspd: transform regressor"):
            logistic_cspd_family(bad.values)
        with pytest.raises(DomainError, match="^normal_cspd: transform regressor"):
            normal_cspd_family(1.0 - bad.values)
        with pytest.raises(DomainError, match="^rob_logit: transform regressor"):
            rob_logit_family(ndtri(bad.values))
        with pytest.raises(DomainError, match="^platt: transform regressor"):
            platt_family(np.where(bad.values > 0.0, bad.values, np.nan))

    def test_insoluble_mean_at_slope_zero_is_infeasible(self):
        """Target weights summing to 1 - 5e-13 cannot average a constant
        curve up to q = 1 - 1e-15; the solve has no curve to return."""
        w = np.full(5, 0.2)
        w[-1] -= 5e-13
        target = TargetSpec(DiscreteScoreDist(np.arange(5.0), w), 1.0 - 1e-15)
        with pytest.raises(InfeasibleError, match="^platt: mean equation insoluble at slope 0"):
            solve_qmm_2d(platt_family([0.1, 0.2, 0.3, 0.4, 0.5]), 0.5, target)

    def test_regressor_length_mismatch_names_the_family(self):
        target = TargetSpec(DiscreteScoreDist(np.arange(5.0), np.full(5, 0.2)), 0.1)
        with pytest.raises(
            StructuralError, match="^platt: regressor has 3 points, the target support 5$"
        ):
            solve_qmm_2d(platt_family([0.1, 0.2, 0.3]), 0.7, target)

    def test_every_link_call_is_an_intercept_mean_evaluation(self, monkeypatch, example_scenario):
        """The accepted fit's mean residual comes from its probe's intercept
        search, so a cold solve evaluates the link nowhere else. The other
        root-search evaluations are the slope search's, one per probe: the
        first probe is made before that search starts, which then reads it."""
        calls = {"link": 0, "mean": 0}

        def counting_expit(z):
            calls["link"] += 1
            return scipy.special.expit(z)

        def counting_root(f, *args, **kwargs):
            def counted(beta):
                calls["mean"] += 1
                return f(beta)

            return bisect_root(counted, *args, **kwargs)

        monkeypatch.setattr(solvers, "expit", counting_expit)
        monkeypatch.setattr(solvers, "bisect_root", counting_root)
        src, tgt = example_scenario.source, example_scenario.target
        _, _, _, diag = solve_qmm_2d(
            platt_family(src.posterior.values), src.implied_auc, tgt
        )
        assert diag.converged and diag.iterations == 6
        assert calls["link"] == calls["mean"] - diag.iterations == 21


    def test_newton_converged_solve_reports_a_point_bracket(self):
        """Newton steps that reach the AUC from one side see no sign change:
        the bracket is the fitted slope itself."""
        target, curve = _toy_problem(seed=0)
        auc = implied_auc(target.feature_dist, curve)
        a, _, _, diag = solve_qmm_2d(logistic_cspd_family(curve.values), auc, target)
        assert diag.converged and diag.iterations == 3
        assert diag.bracket == (a, a)

    @pytest.mark.parametrize("power", [-60, 60])
    def test_slope_search_probes_up_to_the_slope_limit(self, monkeypatch, power):
        """The slope search probes the last log slope t inside the range,
        exp(t) in [2**-60, 2**60], and reads the next float t, past it, as an
        unhealthy end without probing it."""
        inside = lambda t: 1.0 / solvers.SLOPE_LIMIT <= math.exp(t) <= solvers.SLOPE_LIMIT
        outward = math.copysign(math.inf, power)
        t = power * math.log(2.0)
        while not inside(t):
            t = math.nextafter(t, -outward)
        while inside(math.nextafter(t, outward)):
            t = math.nextafter(t, outward)
        past = math.nextafter(t, outward)
        slopes = []
        intercept_root = solvers.intercept_root

        def recording_intercept_root(family, alpha, *args):
            slopes.append(alpha)
            return intercept_root(family, alpha, *args)

        def edges_first(f, *args, **kwargs):
            if f.__name__ == "residual":  # the slope search, not an intercept solve
                f(t)
                assert math.isnan(f(past))
            return bisect_root(f, *args, **kwargs)

        monkeypatch.setattr(solvers, "intercept_root", recording_intercept_root)
        monkeypatch.setattr(solvers, "bisect_root", edges_first)
        target, curve = _toy_problem()
        solve_qmm_2d(platt_family(curve.values), implied_auc(target.feature_dist, curve), target)
        assert math.exp(t) in slopes and math.exp(past) not in slopes


@st.composite
def _explicit_problems(draw):
    """A solve_qmm_2d problem on an explicit support of 2 to 300 points:
    posteriors spread up to logit +-35 (so values at or next to 0 and 1), q
    near 0, inside or near 1, and a target AUC that may be unattainable."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, n) ** draw(st.sampled_from([1.0, 4.0])) + 1e-9
    w /= w.sum()
    spread = draw(st.sampled_from([1.0, 5.0, 20.0, 35.0]))
    values = np.sort(scipy.special.expit(rng.uniform(-spread, spread, n)))
    q = draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 0.999), st.floats(0.999, 1 - 1e-9)))
    build = draw(
        st.sampled_from([platt_family, logistic_cspd_family, normal_cspd_family, rob_logit_family])
    )
    settings_ = draw(st.sampled_from([SolverSettings(), WARM_SETTINGS]))
    target = TargetSpec(DiscreteScoreDist(np.arange(n, dtype=float), w), q)
    regressor = ndtri(np.cumsum(w) - w / 2.0) if build is rob_logit_family else values
    return build, regressor, draw(st.floats(0.5, 0.9999)), q, target, settings_


class TestSolveQmm2dExplicitProblems:
    @settings(max_examples=200, deadline=None)
    @given(_explicit_problems())
    def test_meets_the_residual_contract_or_names_the_family(self, problem):
        """Every solve returns a fit inside its bracket whose converged flag
        is honest, or raises a RecalError that names the family."""
        build, regressor, auc, q, target, settings_ = problem
        try:
            family = build(regressor)
            a, b, values, diag = solve_qmm_2d(family, auc, target, settings_)
        except RecalError as exc:
            assert str(exc).startswith(build.__name__.removesuffix("_family") + ": ")
            return
        lo, hi = diag.bracket
        assert lo <= a <= hi
        assert diag.converged == (
            diag.residual_mean <= settings_.tol_mean and diag.residual_auc <= settings_.tol_auc
        )
        assert values.tobytes() == family.link(a * family.x + b).tobytes()
        if diag.implied_auc is not None:
            assert diag.implied_auc == implied_auc_values(target.feature_dist.probs, values)


class TestFixedPointF0:
    """The class-0 CDF alternation of roc_qmm and two_param_qmm: start from
    the target law, fit, refresh the CDF and its probit, stop on the change
    over the CDF and the last two fits' (alpha, beta)."""

    FEATURE = DiscreteScoreDist([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4])
    CURVE = np.array([0.05, 0.1, 0.2, 0.4])
    TARGET = TargetSpec(FEATURE, 0.3)
    SETTINGS = SolverSettings(tol_fixed_point=1e-12)

    def fixed(self, z):
        """A fit that returns the same (alpha, beta) and curve at every z,
        with no Newton step."""
        return 1.0, 0.5, self.CURVE, None, 1.0 - self.CURVE, None

    def test_identity_converges_immediately(self):
        """A fit that ignores z refreshes the same CDF at every step, so the
        first measured change, at step 2, is exactly 0."""
        zs = []

        def recording(z):
            zs.append(z)
            return self.fixed(z)

        out, diag, fitted = fixed_point_f0("m", self.TARGET, self.SETTINGS, recording)
        assert diag.converged and diag.iterations == 2
        assert diag.residual_fixed_point == 0.0
        # step 1 fits the two-sided probit of the target law's adjusted CDF
        # [0.05, 0.2, 0.45, 0.8]: -ndtri of the survival sum 0.2 above 1/2,
        # from the library's ndtri on the array it passes
        p = self.FEATURE.probs
        f = np.cumsum(p) - p / 2
        probit = _special.ndtri(np.append(f[:3], p[3] / 2))
        np.testing.assert_array_equal(zs[0], np.append(probit[:3], -probit[3]))
        refreshed = recal_methods._refreshed_f0("m", self.FEATURE, self.CURVE, 1.0 - self.CURVE)[1]
        np.testing.assert_array_equal(zs[1], refreshed)
        np.testing.assert_array_equal(out, refreshed)
        assert fitted[:2] == (1.0, 0.5) and fitted[2] is self.CURVE

    def test_single_step_measures_no_change(self):
        one_step = SolverSettings(tol_fixed_point=1e-12, max_iter=1)
        _, diag, _ = fixed_point_f0("m", self.TARGET, one_step, self.fixed)
        assert diag.iterations == 1 and not diag.converged
        assert diag.residual_fixed_point is None

    def test_non_convergence_flagged_not_raised(self):
        steps = []

        def drifting(z):  # alpha moves by 1 every step
            steps.append(z)
            return float(len(steps)), 0.5, self.CURVE, None, 1.0 - self.CURVE, None

        five_steps = SolverSettings(tol_fixed_point=1e-12, max_iter=5)
        out, diag, fitted = fixed_point_f0("m", self.TARGET, five_steps, drifting)
        assert not diag.converged
        assert diag.iterations == len(steps) == 5
        assert diag.residual_fixed_point == 1.0
        assert fitted[0] == 5.0 and out.shape == (4,)

    def test_init_validation(self):
        """max_iter below 1 and a target law with a zero mass at an end of
        the support are refused with the method named."""
        with pytest.raises(DomainError, match="^m: max_iter must be at least 1$"):
            no_steps = SolverSettings(tol_fixed_point=1e-12, max_iter=0)
            fixed_point_f0("m", self.TARGET, no_steps, self.fixed)
        initial = r"^m: initial class-0 CDF has values outside \(0, 1\)"
        for probs in ([0.0, 0.2, 0.4, 0.4], [0.2, 0.4, 0.4, 0.0]):
            with pytest.raises(DomainError, match=initial):
                target = TargetSpec(DiscreteScoreDist(self.FEATURE.support, probs), 0.3)
                fixed_point_f0("m", target, self.SETTINGS, self.fixed)


class TestSolverSettings:
    def test_defaults(self):
        s = SolverSettings()
        assert s.tol_mean == 1e-9
        assert s.tol_auc == 1e-6
        assert s.tol_fixed_point == 1e-10
        assert s.max_iter == 200


# tolerances of two_param_qmm's inner solves, which are the warm-started ones
WARM_SETTINGS = SolverSettings(tol_mean=1e-12, tol_auc=1e-11)


@st.composite
def _qmm_problems(draw):
    """A small solve_qmm_2d problem for any family: random target weights,
    a family built on increasing interior source values, q and a target AUC
    that may lie outside the attainable range."""
    n = draw(st.integers(2, 8))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    gaps = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1)))
    w, values = w / w.sum(), 0.03 + 0.94 * gaps[:-1] / gaps[-1]
    support = np.arange(n, dtype=float)
    build = draw(
        st.sampled_from(
            [platt_family, logistic_cspd_family, normal_cspd_family, rob_logit_family]
        )
    )
    if build is rob_logit_family:
        family = rob_logit_family(ndtri(np.cumsum(w) - w / 2.0))  # an adjusted CDF
    else:
        family = build(values)
    q = draw(st.floats(0.02, 0.5))
    auc_target = draw(st.floats(0.5, 0.999))
    target = TargetSpec(DiscreteScoreDist(support, w), q)
    return family, auc_target, q, target


def _warm_starts():
    """(kind, u, v): near the cold solution (u, v are a relative slope and an
    absolute intercept offset), far from it (u, v are alpha and beta) or at
    slope 0 (v is beta)."""
    return st.one_of(
        st.tuples(st.just("near"), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
        st.tuples(st.just("far"), st.floats(-3.0, 3.0), st.floats(-20.0, 20.0)),
        st.tuples(st.just("zero"), st.just(0.0), st.floats(-20.0, 20.0)),
    )


def _fitted(family, x, w, q, alpha):
    """(auc, beta, mean slope in beta, d beta / d alpha) at a fixed slope,
    from an independent bisection of the mean equation."""
    beta = bisect_root(
        lambda b: float(np.dot(w, family.link(alpha * x + b))) - q, -40.0, 40.0, 1e-15
    )
    z = alpha * x + beta
    pdf = family.link_pdf(z, family.link(z))
    mean_slope = float(np.dot(w, pdf))
    auc = implied_auc(
        DiscreteScoreDist(np.arange(x.size, dtype=float), w),
        PosteriorCurve(np.arange(x.size, dtype=float), family.link(alpha * x + beta)),
    )
    return auc, beta, mean_slope, -float(np.dot(w, x * pdf)) / mean_slope


def _near_flat_normal_cspd_problem():
    """A normal-CSPD draw whose cold fit has slope ~1.5e-11, next to the kink
    of the implied AUC at slope 0."""
    w = np.array([
        0.061925495887760036, 0.014997581035316884, 0.11804547653604257,
        0.12385099177552007, 0.18577648766328012, 0.12385099177552007,
        0.12385099177552007, 0.24770198355104014,
    ])
    values = np.array([
        0.19745669651926415, 0.22438440651231165, 0.3320952464845016,
        0.5475169264288817, 0.6058368758915136, 0.6664242233758705,
        0.8759554667592714, 0.9567385967384139,
    ])
    support = np.arange(8, dtype=float)
    q = 0.220703125
    target = TargetSpec(DiscreteScoreDist(support, w), q)
    return normal_cspd_family(values), 0.5, q, target


class TestSolveQmm2dWarmStart:
    @settings(max_examples=150, deadline=None)
    @given(_qmm_problems(), _warm_starts())
    @example(_near_flat_normal_cspd_problem(), ("far", 2.5, 0.0))
    def test_warm_solve_meets_the_cold_contract(self, problem, start):
        family, auc_target, q, target = problem
        kind, u, v = start

        def warm_solve(a_cold, b_cold):
            warm = {
                "near": (a_cold * np.exp(u), b_cold + v),
                "far": (10.0**u, v),
                "zero": (0.0, v),
            }[kind]
            return solve_qmm_2d(family, auc_target, target, WARM_SETTINGS, warm_start=warm)

        # the regressor is fixed when the family is built
        assert not family.x.flags.writeable
        try:
            a_cold, b_cold, values_cold, cold = solve_qmm_2d(
                family, auc_target, target, WARM_SETTINGS
            )
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                warm_solve(1.0, 0.0)
            return
        a, b, values, diag = warm_solve(a_cold, b_cold)
        # each returned curve holds the bits of the link at the fit
        assert values_cold.tobytes() == family.link(a_cold * family.x + b_cold).tobytes()
        assert values.tobytes() == family.link(a * family.x + b).tobytes()
        lo, hi = diag.bracket
        assert lo <= a <= hi
        if not cold.converged:
            return
        assert diag.converged
        assert diag.residual_mean <= WARM_SETTINGS.tol_mean
        assert diag.residual_auc <= WARM_SETTINGS.tol_auc
        # both AUC residuals within tol_auc bound the slope gap through the
        # AUC's derivative in the slope; the intercept follows the slope along
        # the mean equation, up to both mean residuals
        x, w = family.x, target.feature_dist.probs
        _, _, mean_slope, dbeta = _fitted(family, x, w, q, a_cold)
        gap = abs(a - a_cold)
        if gap > 0.0:
            # a forward step, floored so that it stays above the rounding
            # noise of the intercept solve at a slope near 0
            h = 1e-6 * max(a_cold, 1e-3)
            auc_slope = (
                _fitted(family, x, w, q, a_cold + h)[0] - _fitted(family, x, w, q, a_cold)[0]
            ) / h
            assert gap * abs(auc_slope) <= 4.0 * WARM_SETTINGS.tol_auc + 1e-12 * gap
        assert abs(b - b_cold) <= (
            2.0 * abs(dbeta) * gap + 4.0 * WARM_SETTINGS.tol_mean / mean_slope
        )

    def test_settled_alternation_needs_few_probes(self, example_scenario):
        """A warm start at the cold solution finds it again at its first
        probe, with no sign change seen; a cold solve takes more."""
        src, tgt = example_scenario.source, example_scenario.target
        w = tgt.feature_dist.probs
        fam = rob_logit_family(ndtri(np.cumsum(w) - w / 2))
        auc = src.implied_auc
        a, b, _, cold = solve_qmm_2d(fam, auc, tgt, WARM_SETTINGS)
        a_warm, _, _, warm = solve_qmm_2d(
            fam, auc, tgt, WARM_SETTINGS, warm_start=(a, b)
        )
        assert warm.converged and cold.converged
        assert warm.iterations == 1 and cold.iterations == 4
        assert a_warm == pytest.approx(a, rel=1e-15) and warm.bracket == (a_warm, a_warm)
        assert cold.bracket == pytest.approx((1.272211272545272, 1.2811122386400855), rel=1e-12)

    @pytest.mark.parametrize(
        "alpha0",
        [
            0.0, 1e10, 2.0**61,
            pytest.param(2.0**60, id="2**60"),
            pytest.param(math.nextafter(2.0**60, math.inf), id="past_2**60"),
            pytest.param(2.0**-60, id="2**-60"),
            pytest.param(math.nextafter(2.0**-60, 0.0), id="past_2**-60"),
        ],
    )
    def test_unusable_warm_slope_starts_the_slope_search_cold(self, alpha0):
        """Slope 0, a slope whose mean equation the intercept cannot pin, the
        slopes 2**60 and 2**-60 at the ends of the search range, where the
        link saturates or is flat and the Jacobian is singular, and a slope
        past either end all restart the slope search at 1."""
        target, curve = _toy_problem()
        auc = implied_auc(target.feature_dist, curve)
        a_cold, b_cold, _, cold = solve_qmm_2d(platt_family(curve.values), auc, target)
        a, b, _, diag = solve_qmm_2d(
            platt_family(curve.values), auc, target, warm_start=(alpha0, b_cold)
        )
        assert diag.converged and diag.bracket == cold.bracket
        # only a warm slope inside the range, ends included, costs more: one
        # joint Newton point, with no Jacobian to step on, before the cold solve
        extra = 1 if alpha0 in (1e10, 2.0**60, 2.0**-60) else 0
        assert diag.iterations - cold.iterations == extra
        assert abs(a - a_cold) <= 1e-9 * a_cold and abs(b - b_cold) <= 1e-9 * abs(b_cold)

    @pytest.mark.parametrize(
        "warm_start",
        [(np.nan, 0.0), (-1.0, 0.0), (1.0, np.inf), (np.inf, 0.0)],
    )
    def test_malformed_warm_start_rejected(self, warm_start):
        target, curve = _toy_problem()
        with pytest.raises(DomainError, match="^solve_qmm_2d: warm_start"):
            solve_qmm_2d(platt_family(curve.values), 0.7, target, warm_start=warm_start)

    def test_link_values_at_the_intercept_root_are_reused(self, monkeypatch, example_scenario):
        """Each probe's link values come from the intercept search's last
        evaluation whenever the search returns that point: the solve makes
        fewer link calls than mean evaluations plus one per probe."""
        link_calls, mean_evals = [0], [0]

        def counting_expit(z):
            link_calls[0] += 1
            return scipy.special.expit(z)

        def counting_root(f, *args, **kwargs):
            def counted(beta):
                mean_evals[0] += 1
                return f(beta)

            return bisect_root(counted, *args, **kwargs)

        monkeypatch.setattr(solvers, "expit", counting_expit)
        monkeypatch.setattr(solvers, "bisect_root", counting_root)
        src, tgt = example_scenario.source, example_scenario.target
        a, b, _, diag = solve_qmm_2d(
            platt_family(src.posterior.values), src.implied_auc, tgt
        )
        assert diag.converged
        # the final mean check of the solve is one more link call
        assert link_calls[0] < mean_evals[0] + diag.iterations + 1
