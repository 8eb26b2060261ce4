from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recal import auc_engine
from recal import (
    ClassConditionals,
    DegenerateClassError,
    DiscreteScoreDist,
    PosteriorCurve,
    adjusted_cdf,
    class_conditionals,
    implied_auc,
    mann_whitney_auc,
    mean_under,
    merged_value_dist,
)
from recal.auc_engine import (
    _merge_by_value, implied_auc_gradient, implied_auc_values, mid_cdf,
)
from conftest import random_dist, random_increasing_values, random_values


def enumerate_auc(probs1, probs0, support):
    """Brute-force win/tie enumeration over all support pairs, plain loops."""
    total = 0.0
    for i in range(len(support)):
        for j in range(len(support)):
            if support[i] > support[j]:
                total += probs1[i] * probs0[j]
            elif support[i] == support[j]:
                total += 0.5 * probs1[i] * probs0[j]
    return total


class TestClassConditionals:
    def test_uninformative_posterior_keeps_distribution(self):
        rng = np.random.default_rng(1)
        d = random_dist(rng, 5)
        curve = PosteriorCurve(d.support, np.full(5, 0.5))
        cc = class_conditionals(d, curve)
        np.testing.assert_allclose(cc.dist1.probs, d.probs, atol=1e-15)
        np.testing.assert_allclose(cc.dist0.probs, d.probs, atol=1e-15)
        assert abs(cc.prior - 0.5) <= 1e-15

    def test_two_point_direct_substitution(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 1.0], [0.2, 0.8])
        cc = class_conditionals(d, curve)
        np.testing.assert_allclose(cc.dist1.probs, [0.2, 0.8], atol=1e-15)
        np.testing.assert_allclose(cc.dist0.probs, [0.8, 0.2], atol=1e-15)
        assert abs(cc.prior - 0.5) <= 1e-15

    def test_example_source_decomposition(self, example_scenario):
        src = example_scenario.source
        cc = class_conditionals(src.feature_dist, src.posterior)
        assert abs(cc.prior - 0.01) <= 1e-12
        np.testing.assert_allclose(
            cc.reconstruct(), src.feature_dist.probs, atol=1e-12
        )

    def test_reconstruction_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            d = random_dist(rng, n)
            curve = PosteriorCurve(d.support, random_values(rng, n))
            cc = class_conditionals(d, curve)
            np.testing.assert_allclose(cc.reconstruct(), d.probs, atol=1e-12)

    def test_degenerate_posterior_rejected(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DegenerateClassError):
            class_conditionals(d, PosteriorCurve([0.0, 1.0], [0.0, 0.0]))
        with pytest.raises(DegenerateClassError):
            class_conditionals(d, PosteriorCurve([0.0, 1.0], [1.0, 1.0]))


class TestMannWhitneyAuc:
    def test_identical_conditionals_give_half(self):
        rng = np.random.default_rng(3)
        d = random_dist(rng, 7)
        cc = ClassConditionals(d, d, 0.3)
        assert abs(mann_whitney_auc(cc) - 0.5) <= 1e-15

    def test_two_point_enumeration(self):
        d1 = DiscreteScoreDist([0.0, 1.0], [0.2, 0.8])
        d0 = DiscreteScoreDist([0.0, 1.0], [0.8, 0.2])
        cc = ClassConditionals(d1, d0, 0.5)
        assert abs(mann_whitney_auc(cc) - 0.8) <= 1e-15
        oracle = enumerate_auc([0.2, 0.8], [0.8, 0.2], [0.0, 1.0])
        assert abs(mann_whitney_auc(cc) - oracle) <= 1e-15

    def test_perfect_separation(self):
        d1 = DiscreteScoreDist([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
        d0 = DiscreteScoreDist([0.0, 1.0, 2.0], [0.6, 0.4, 0.0])
        cc = ClassConditionals(d1, d0, 0.5)
        assert mann_whitney_auc(cc) == 1.0

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            d = random_dist(rng, n)
            curve = PosteriorCurve(d.support, random_values(rng, n))
            cc = class_conditionals(d, curve)
            oracle = enumerate_auc(
                cc.dist1.probs.tolist(), cc.dist0.probs.tolist(), cc.dist1.support.tolist()
            )
            assert abs(mann_whitney_auc(cc) - oracle) <= 1e-13


class TestImpliedAuc:
    def test_single_point_is_uninformative(self):
        d = DiscreteScoreDist([5.0], [1.0])
        for eta in (0.1, 0.37, 0.9):
            assert abs(implied_auc(d, PosteriorCurve([5.0], [eta])) - 0.5) <= 1e-15

    def test_two_point_value(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 1.0], [0.2, 0.8])
        cc = class_conditionals(d, curve)
        assert abs(implied_auc(d, curve) - mann_whitney_auc(cc)) <= 1e-15
        assert abs(implied_auc(d, curve) - 0.8) <= 1e-15

    def test_example_source_auc(self, example_scenario):
        src = example_scenario.source
        assert abs(implied_auc(src.feature_dist, src.posterior) - 0.802) <= 1.5e-3

    def test_matches_mann_whitney_for_increasing_curves(self):
        """With the curve increasing in the score, ranking by score equals
        ranking by posterior, so both routes compute the same number."""
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(400):
            n = int(rng.integers(1, 9))
            d = random_dist(rng, n)
            curve = PosteriorCurve(d.support, random_increasing_values(rng, n))
            direct = implied_auc(d, curve)
            via_mw = mann_whitney_auc(class_conditionals(d, curve))
            worst = max(worst, abs(direct - via_mw))
        assert worst <= 1e-12

    def test_non_monotone_curves_equal_value_distribution_route(self):
        """For arbitrary curves the score is the posterior value itself:
        sort and merge values first, then decompose and rank."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            d = random_dist(rng, n)
            curve = PosteriorCurve(d.support, random_values(rng, n))
            vd = merged_value_dist(d, curve)
            identity = PosteriorCurve(vd.support, vd.support)
            via_mw = mann_whitney_auc(class_conditionals(vd, identity))
            assert abs(implied_auc(d, curve) - via_mw) <= 1e-12

    def test_tied_values_are_merged(self):
        d = DiscreteScoreDist([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        curve = PosteriorCurve([0.0, 1.0, 2.0], [0.3, 0.3, 0.7])
        merged = merged_value_dist(d, curve)
        assert merged.n == 2
        np.testing.assert_allclose(merged.probs, [0.5, 0.5], atol=1e-15)
        d2 = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve2 = PosteriorCurve([0.0, 1.0], [0.3, 0.7])
        assert abs(implied_auc(d, curve) - implied_auc(d2, curve2)) <= 1e-15

    def test_zero_probability_atoms_do_not_move_the_auc(self):
        d = DiscreteScoreDist([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        curve = PosteriorCurve([0.0, 1.0, 2.0], [0.2, 0.9, 0.8])
        d2 = DiscreteScoreDist([0.0, 2.0], [0.5, 0.5])
        curve2 = PosteriorCurve([0.0, 2.0], [0.2, 0.8])
        assert abs(implied_auc(d, curve) - implied_auc(d2, curve2)) <= 1e-15

    def test_rank_statistic_under_increasing_score_transforms(self):
        """Relabelling the score axis strictly monotonically, at fixed class
        conditionals, must not move the AUC."""
        rng = np.random.default_rng(7)
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s**3):
            for _ in range(50):
                n = int(rng.integers(2, 9))
                d = random_dist(rng, n)
                curve = PosteriorCurve(d.support, random_values(rng, n))
                cc = class_conditionals(d, curve)
                new_support = transform(cc.dist1.support / (n + 1.0))
                moved = ClassConditionals(
                    DiscreteScoreDist(new_support, cc.dist1.probs),
                    DiscreteScoreDist(new_support, cc.dist0.probs),
                    cc.prior,
                )
                assert abs(mann_whitney_auc(moved) - mann_whitney_auc(cc)) <= 1e-15

    def test_degenerate_mean_rejected(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DegenerateClassError):
            implied_auc(d, PosteriorCurve([0.0, 1.0], [0.0, 0.0]))


@st.composite
def _increasing_curves(draw):
    """Target weights and strictly increasing values inside (0.02, 0.98),
    consecutive values at least 2e-4 apart."""
    n = draw(st.integers(1, 40))
    gaps = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1)))
    probs = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return probs / probs.sum(), 0.02 + 0.96 * gaps[:-1] / gaps[-1]


def _central_difference(probs, values, direction, h=1e-6):
    return (
        implied_auc_values(probs, values + h * direction)
        - implied_auc_values(probs, values - h * direction)
    ) / (2.0 * h)


def _gradient(probs, values):
    """implied_auc_gradient with the mid-CDF that a solve passes it."""
    return implied_auc_gradient(probs, values, mid_cdf(probs))


class TestImpliedAucGradient:
    @settings(max_examples=200, deadline=None)
    @given(_increasing_curves())
    def test_matches_a_central_difference(self, curve):
        probs, values = curve
        grad = _gradient(probs, values)
        for k, unit in enumerate(np.eye(values.size)):
            # truncation ~ h**2 and rounding ~ eps / h are both below 1e-9
            assert abs(grad[k] - _central_difference(probs, values, unit)) <= 1e-8

    def test_unsorted_and_tied_values(self):
        """A permutation permutes the gradient; tied values share the
        derivative of moving them together, by mass."""
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        values = np.array([0.1, 0.3, 0.3, 0.5])
        grad = _gradient(probs, values)
        together = np.array([0.0, 1.0, 1.0, 0.0])
        assert abs(grad @ together - _central_difference(probs, values, together)) <= 1e-8
        assert grad[2] / grad[1] == pytest.approx(1.5, rel=1e-12)
        order = np.array([3, 0, 2, 1])
        assert np.array_equal(_gradient(probs[order], values[order]), grad[order])

    def test_degenerate_mean_rejected(self):
        with pytest.raises(DegenerateClassError):
            probs = np.array([0.5, 0.5])
            implied_auc_gradient(probs, np.array([0.0, 0.0]), mid_cdf(probs))


class TestAdjustedCdf:
    def test_single_point(self):
        assert abs(adjusted_cdf(DiscreteScoreDist([0.0], [1.0]))[0] - 0.5) <= 1e-15

    def test_two_point_half_split(self):
        values = adjusted_cdf(DiscreteScoreDist([0.0, 1.0], [0.5, 0.5]))
        np.testing.assert_allclose(values, [0.25, 0.75], atol=1e-15)

    def test_strictly_increasing_and_interior(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = random_dist(rng, n)
            values = adjusted_cdf(d)
            assert np.all(values > 0.0) and np.all(values < 1.0)
            if n > 1:
                assert np.all(np.diff(values) > 0.0)

    def test_max_value_keeps_probit_finite(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(9)
        for _ in range(50):
            d = random_dist(rng, int(rng.integers(1, 10)))
            assert np.all(np.isfinite(ndtri(adjusted_cdf(d))))


def test_mean_under_consistency_with_conditional_prior():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = random_dist(rng, n)
        curve = PosteriorCurve(d.support, random_values(rng, n))
        cc = class_conditionals(d, curve)
        assert abs(cc.prior - mean_under(d, curve)) <= 1e-15


def reference_merge(values, probs):
    """Sort and merge every input, summing tied mass with ``np.add.at``."""
    distinct, inverse = np.unique(values, return_inverse=True)
    merged = np.zeros(distinct.size)
    np.add.at(merged, inverse, probs)
    return distinct, merged


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# posterior-like values, signed zeros and exact 1 included
unit_values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
masses = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1.0))


@st.composite
def merge_inputs(draw):
    """(values, probs) that are strictly increasing, sorted with ties, or
    unsorted; probs normalised, with zero (also -0.0) masses; one point or
    more; all-0 or all-1 values make the mean degenerate."""
    kind = draw(st.sampled_from(["increasing", "ties", "unsorted", "degenerate"]))
    raw = draw(st.lists(unit_values, min_size=1, max_size=30))
    if kind == "increasing":
        values = np.unique(raw)
    elif kind == "ties":
        values = np.sort(raw + raw[: draw(st.integers(1, len(raw)))])
    elif kind == "unsorted":
        values = np.array(draw(st.permutations(raw)))
    else:
        values = np.full(len(raw), draw(st.sampled_from([0.0, -0.0, 1.0])))
    weights = np.array(draw(st.lists(masses, min_size=values.size, max_size=values.size)))
    if not weights.sum() > 0.0:
        weights[draw(st.integers(0, values.size - 1))] = 1.0
    return values, weights / weights.sum()


class TestMergeByValue:
    @settings(max_examples=300, deadline=None)
    @given(merge_inputs())
    def test_matches_sort_and_scatter_reference_bit_for_bit(self, inputs):
        values, probs = inputs
        got_v, got_p = _merge_by_value(values, probs)
        ref_v, ref_p = reference_merge(values, probs)
        assert same_bits(got_v, ref_v) and same_bits(got_p, ref_p)

        with mock.patch.object(auc_engine, "_merge_by_value", reference_merge):
            try:
                expected = implied_auc_values(probs, values)
            except DegenerateClassError:
                expected = DegenerateClassError
        if expected is DegenerateClassError:
            with pytest.raises(DegenerateClassError):
                implied_auc_values(probs, values)
        else:
            assert same_bits(implied_auc_values(probs, values), expected)

        d = DiscreteScoreDist(np.arange(values.size, dtype=float), probs)
        merged = merged_value_dist(d, PosteriorCurve(d.support, values))
        assert same_bits(merged.support, ref_v) and same_bits(merged.probs, ref_p)

    def test_strictly_increasing_input_is_not_sorted(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique reached")

        monkeypatch.setattr(np, "unique", no_sort)
        d = DiscreteScoreDist([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        curve = PosteriorCurve(d.support, [-0.0, 0.3, 0.7])
        values, probs = _merge_by_value(curve.values, d.probs)
        assert values is curve.values and same_bits(probs, d.probs)
        implied_auc_values(d.probs, curve.values)
        merged_value_dist(d, curve)
        # the guard is live: input with a tie does reach np.unique
        with pytest.raises(AssertionError, match="np.unique reached"):
            _merge_by_value(np.array([0.3, 0.3, 0.7]), d.probs)


@st.composite
def _logistic_curves(draw):
    """(probs, values): logistic values of logits in [-4, 4] shifted by up to
    +-33, strictly increasing, unsorted, or rounded so that some tie (the
    merge path); masses k / 2**m, some of them 0, that sum to exactly 1, so
    the exact AUC is at least 1/2 even where 1 - pbar is a few ulps."""
    n = draw(st.integers(1, 40))
    logits = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["increasing", "unsorted", "ties"]))
    if kind == "increasing":
        logits = np.sort(logits)
    elif kind == "ties":
        logits = np.sort(np.round(logits))
    logits = logits + draw(st.floats(-33.0, 33.0))
    counts = draw(st.lists(st.just(0) | st.integers(1, 2**20), min_size=n, max_size=n))
    total = 1 << sum(counts).bit_length()
    counts[draw(st.integers(0, n - 1))] += total - sum(counts)
    return np.array(counts) / total, 1.0 / (1.0 + np.exp(-logits))


def exact_implied_auc(probs, values) -> tuple[Fraction, Fraction]:
    """(AUC, pbar) of the float inputs in rational arithmetic: equal values
    merged, N = sum_i h_i (B_i + m_i / 2) over ascending values with
    h = p v, m = p (1 - v) and B the exclusive prefix sum of m, and
    AUC = N / (pbar (1 - pbar))."""
    merged = {}
    for v, p in zip(values.tolist(), probs.tolist()):
        merged[v] = merged.get(v, Fraction(0)) + Fraction(p)
    pbar = num = below = Fraction(0)
    for v, p in sorted(merged.items()):
        hit, miss = p * Fraction(v), p * (1 - Fraction(v))
        pbar += hit
        num += hit * (below + miss / 2)
        below += miss
    return num / (pbar * (1 - pbar)), pbar


class TestImpliedAucValues:
    @settings(max_examples=300, deadline=None)
    @given(_logistic_curves())
    def test_cached_mid_cdf_keeps_the_bits_and_meets_the_exact_value(self, curve):
        probs, values = curve
        eps = np.finfo(float).eps
        try:
            auc = implied_auc_values(probs, values)
        except DegenerateClassError:  # only where the mean rounds to 1
            exact_mean = sum(Fraction(p) * Fraction(v) for p, v in zip(probs, values))
            assert 1 - exact_mean <= values.size * eps
            return
        cached = mid_cdf(probs)
        assert same_bits(implied_auc_values(probs, values, cached), auc)
        grad = _gradient(probs, values)
        assert same_bits(implied_auc_gradient(probs, values, cached), grad)

        exact, pbar = exact_implied_auc(probs, values)
        bound = values.size * eps / float(min(pbar, 1 - pbar))
        assert abs(Fraction(auc) - exact) <= bound * exact
