import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from recal import (
    DiscreteScoreDist,
    DomainError,
    PosteriorCurve,
    SourceModel,
    StructuralError,
    TargetSpec,
    binomial_dist,
    mean_under,
    vasicek_mixture_dist,
)
from recal.auc_engine import mid_cdf
from recal.dist_core import MAX_QUAD_NODES, MAX_TRIALS, _binomial_pmf
from conftest import random_dist, random_values

# refused counts, none of which may size an array: one past the bound, a
# 400-digit JSON integer, infinity and NaN
OVERSIZED_IDS = ["bound_plus_1", "400_digits", "inf", "nan"]
OVERSIZED = [MAX_TRIALS + 1, 10**400, np.inf, np.nan]
TRIALS_BOUND = rf"trials must be an integer in \[1, {MAX_TRIALS}\]"


class TestDiscreteScoreDist:
    def test_valid_construction(self):
        d = DiscreteScoreDist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert d.n == 3
        np.testing.assert_allclose(d.probs.sum(), 1.0, atol=1e-15)

    def test_randomized_constructions_satisfy_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = random_dist(rng, n)
            assert np.all(d.probs >= 0)
            assert abs(float(d.probs.sum()) - 1.0) <= 1e-12
            if n > 1:
                assert np.all(np.diff(d.support) > 0)

    def test_rejects_duplicate_support(self):
        with pytest.raises(StructuralError):
            DiscreteScoreDist([0.0, 0.0, 1.0], [0.2, 0.3, 0.5])

    def test_rejects_decreasing_support(self):
        with pytest.raises(StructuralError):
            DiscreteScoreDist([1.0, 0.0], [0.5, 0.5])

    def test_rejects_negative_probs(self):
        with pytest.raises(DomainError):
            DiscreteScoreDist([0.0, 1.0], [-0.1, 1.1])

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(DomainError):
            DiscreteScoreDist([0.0, 1.0], [0.4, 0.4])

    def test_rejects_probs_whose_sum_overflows(self):
        """Two masses of 1e308 sum past the float range: the same
        DomainError, and no overflow warning."""
        with pytest.raises(DomainError, match="^probs must sum to 1 within"):
            DiscreteScoreDist([0.0, 1.0], [1e308, 1e308])

    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            DiscreteScoreDist([], [])

    def test_rejects_two_dimensional_support(self):
        with pytest.raises(StructuralError, match="support must be one-dimensional"):
            DiscreteScoreDist([[0.0, 1.0]], [0.5, 0.5])

    def test_rejects_lengths_that_differ(self):
        with pytest.raises(StructuralError, match="support and probs must have the same length"):
            DiscreteScoreDist([0.0, 1.0, 2.0], [0.5, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DiscreteScoreDist([0.0, np.inf], [0.5, 0.5])

    def test_arrays_immutable(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_mid_cdf_is_cached_read_only_and_has_the_bits_of_mid_cdf(self):
        d = random_dist(np.random.default_rng(11), 300)
        f = d.mid_cdf
        assert f is d.mid_cdf
        assert f.tobytes() == mid_cdf(d.probs).tobytes()
        with pytest.raises(ValueError):
            f[0] = 0.0


class TestPosteriorCurve:
    def test_range_enforced(self):
        with pytest.raises(DomainError):
            PosteriorCurve([0.0, 1.0], [0.5, 1.2])
        with pytest.raises(DomainError):
            PosteriorCurve([0.0, 1.0], [-0.1, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            PosteriorCurve([0.0, 1.0, 2.0], [0.5, 0.5])


class TestSourceModel:
    def test_prior_must_match_posterior_mean(self):
        dist = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 1.0], [0.2, 0.8])
        SourceModel(dist, curve, 0.5)  # exact match passes
        with pytest.raises(DomainError):
            SourceModel(dist, curve, 0.51)

    def test_support_mismatch(self):
        dist = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 2.0], [0.2, 0.8])
        with pytest.raises(StructuralError):
            SourceModel(dist, curve, 0.5)


class TestTargetSpec:
    def test_prior_range(self):
        dist = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DomainError):
                TargetSpec(dist, bad)


class TestBinomialDist:
    def test_single_trial_symmetric(self):
        d = binomial_dist(1, 0.5)
        np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-15)

    def test_zero_count_closed_form(self):
        d = binomial_dist(16, 0.4)
        np.testing.assert_allclose(d.probs[0], 0.6**16, rtol=1e-14)

    @pytest.mark.parametrize("trials", [1, 5, 11, 16])
    @pytest.mark.parametrize("p", [0.55, 0.4, 0.3, 0.07, 0.93])
    def test_matches_bernoulli_convolution(self, trials, p):
        """Oracle: pmf of a sum of independent Bernoulli draws obtained by
        repeated convolution of the single-trial pmf."""
        oracle = np.array([1.0])
        for _ in range(trials):
            oracle = np.convolve(oracle, [1.0 - p, p])
        d = binomial_dist(trials, p)
        np.testing.assert_allclose(d.probs, oracle, atol=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, np.nan, np.inf])
    def test_rejects_bad_success_prob(self, bad):
        with pytest.raises(DomainError):
            binomial_dist(4, bad)

    def test_rejects_bad_trials(self):
        with pytest.raises(DomainError):
            binomial_dist(0, 0.5)

    @pytest.mark.parametrize("trials", OVERSIZED, ids=OVERSIZED_IDS)
    def test_rejects_trials_above_bound(self, trials):
        with pytest.raises(DomainError, match=TRIALS_BOUND):
            binomial_dist(trials, 0.5)

    def test_large_trial_count_stays_finite(self):
        # a float binomial coefficient overflows above ~1,030 trials
        d = binomial_dist(2000, 0.05)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12
        assert abs(float(np.dot(d.support, d.probs)) - 2000 * 0.05) <= 1e-9


class TestVasicekMixtureDist:
    def test_near_zero_correlation_collapses_to_binomial(self):
        mixed = vasicek_mixture_dist(16, 0.3, 1e-12)
        plain = binomial_dist(16, 0.3)
        np.testing.assert_allclose(mixed.probs, plain.probs, atol=1e-8)

    def test_mean_of_induced_success_probability(self):
        """Oracle: adaptive quadrature of the mixing law over the normal
        factor, independent of the Gauss-Hermite path."""

        def success_prob(z):
            return ndtr((ndtri(0.3) - np.sqrt(0.3) * z) / np.sqrt(1.0 - 0.3))

        def normal_pdf(z):
            return np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)

        oracle_mean, err = quad(lambda z: success_prob(z) * normal_pdf(z), -12, 12, limit=200)
        assert err < 1e-8  # oracle resolution far below the 1e-6 assertion
        d = vasicek_mixture_dist(16, 0.3, 0.3, quad_nodes=128)
        pmf_mean = float(np.dot(d.support, d.probs)) / 16.0
        assert abs(pmf_mean - oracle_mean) <= 1e-6
        assert abs(pmf_mean - 0.3) <= 1e-6

    def test_heavier_tails_than_plain_binomial(self):
        mixed = vasicek_mixture_dist(16, 0.3, 0.3)
        plain = binomial_dist(16, 0.3)
        assert mixed.probs[0] > plain.probs[0]
        assert mixed.probs[-1] > plain.probs[-1]

    def test_invariant_under_node_doubling(self):
        a = vasicek_mixture_dist(16, 0.3, 0.3, quad_nodes=128)
        b = vasicek_mixture_dist(16, 0.3, 0.3, quad_nodes=256)
        assert float(np.max(np.abs(a.probs - b.probs))) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_rejects_degenerate_correlation(self, bad):
        with pytest.raises(DomainError):
            vasicek_mixture_dist(16, 0.3, bad)

    def test_rejects_few_nodes(self):
        with pytest.raises(DomainError):
            vasicek_mixture_dist(16, 0.3, 0.3, quad_nodes=8)

    @pytest.mark.parametrize("trials", OVERSIZED, ids=OVERSIZED_IDS)
    def test_rejects_trials_above_bound(self, trials):
        with pytest.raises(DomainError, match=TRIALS_BOUND):
            vasicek_mixture_dist(trials, 0.3, 0.3)

    @pytest.mark.parametrize(
        "nodes", [MAX_QUAD_NODES + 1, 10**400, np.inf, np.nan], ids=OVERSIZED_IDS
    )
    def test_rejects_quad_nodes_above_bound(self, nodes):
        with pytest.raises(
            DomainError, match=rf"quad_nodes must be an integer in \[16, {MAX_QUAD_NODES}\]"
        ):
            vasicek_mixture_dist(16, 0.3, 0.3, quad_nodes=nodes)

    def test_pmf_normalized(self):
        d = vasicek_mixture_dist(16, 0.3, 0.3)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12

    def test_nodes_at_probability_0_and_1_give_degenerate_rows(self):
        """At a high correlation the outer nodes' success probabilities
        round to exactly 0 and 1 (67 and 111 of 256 nodes at correlation
        0.9); their binomial rows put all mass on k = 0 and k = trials, with
        no RuntimeWarning from log(0)."""
        rows = _binomial_pmf(4, np.array([[0.0], [1.0]]))
        assert rows.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]]
        d = vasicek_mixture_dist(16, 0.3, 0.9, quad_nodes=MAX_QUAD_NODES)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("nodes", [128, MAX_QUAD_NODES])
    def test_quadrature_that_misses_the_mean_is_refused(self, nodes):
        """At correlation 0.99 the mixing law is close to a step in the
        normal factor, and even 256 nodes miss its mean 0.3 (by 1e-4)."""
        with pytest.raises(
            DomainError,
            match=rf"^{nodes} quadrature nodes give mean 0\.29.*, not the requested 0\.3; "
            rf"raise quad_nodes \(at most {MAX_QUAD_NODES}\) or lower the correlation$",
        ):
            vasicek_mixture_dist(16, 0.3, 0.99, quad_nodes=nodes)

    def test_large_trial_count_stays_finite(self):
        # a float binomial coefficient overflows above ~1,030 trials
        d = vasicek_mixture_dist(2000, 0.05, 0.3)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12
        assert abs(float(np.dot(d.support, d.probs)) / 2000 - 0.05) <= 1e-8

    @pytest.mark.parametrize("mean", [0.02, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("correlation", [0.05, 0.3, 0.8])
    def test_mixture_preserves_mean_across_parameters(self, mean, correlation):
        # the one-factor law has the requested mean by construction, so the
        # pmf mean must equal trials * mean up to quadrature error
        d = vasicek_mixture_dist(12, mean, correlation)
        pmf_mean = float(np.dot(d.support, d.probs)) / 12.0
        assert abs(pmf_mean - mean) <= 1e-8


class TestMeanUnder:
    def test_constant_curve(self):
        rng = np.random.default_rng(3)
        d = random_dist(rng, 6)
        curve = PosteriorCurve(d.support, np.full(6, 0.37))
        assert abs(mean_under(d, curve) - 0.37) <= 1e-14

    def test_two_point_average(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 1.0], [0.2, 0.8])
        assert abs(mean_under(d, curve) - 0.5) <= 1e-15

    def test_example_source_mean(self, example_scenario):
        value = mean_under(example_scenario.source.feature_dist, example_scenario.source.posterior)
        assert abs(value - 0.010) <= 1e-12

    def test_mismatched_support(self):
        d = DiscreteScoreDist([0.0, 1.0], [0.5, 0.5])
        curve = PosteriorCurve([0.0, 2.0], [0.2, 0.8])
        with pytest.raises(StructuralError):
            mean_under(d, curve)


def test_random_curves_stay_in_range():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        values = random_values(rng, n)
        curve = PosteriorCurve(np.arange(n, dtype=float), values)
        assert np.all(curve.values >= 0) and np.all(curve.values <= 1)
