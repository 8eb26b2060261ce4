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
from recal.auc_engine import _merge_by_value, implied_auc_values
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
