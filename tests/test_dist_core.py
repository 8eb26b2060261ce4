import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
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
from recal import _special as sp
from recal.auc_engine import mid_cdf
from recal.dist_core import (
    MAX_TRIALS,
    VASICEK_QUAD_NODES,
    _binomial_mixture,
    _gauss_hermite,
)
from conftest import fresh, random_dist, random_values

# refused counts, none of which may size an array: one past the bound, a
# 400-digit JSON integer, infinity and NaN
OVERSIZED_IDS = ["bound_plus_1", "400_digits", "inf", "nan"]
OVERSIZED = [MAX_TRIALS + 1, 10**400, np.inf, np.nan]
TRIALS_BOUND = rf"trials must be an integer in \[1, {MAX_TRIALS}\]"


def full_support_pmf(trials, success_prob):
    """The binomial pmf over all of k = 0..trials by the log-space formula the
    generators used before they evaluated windows only."""
    k = np.arange(trials + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, trials + 2)), float, trials + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(k == 0, 0.0, k * np.log(success_prob))
        log_q = np.where(k == trials, 0.0, (trials - k) * np.log1p(-success_prob))
    return np.exp(log_fact[-1] - log_fact - log_fact[::-1] + log_p + log_q)


def vasicek_at(trials, mean, correlation, nodes):
    """The Vasicek mixture's renormalized pmf and the mean of V that a
    ``nodes``-node rule gives, computed step by step from the private
    helpers, as ``vasicek_mixture_dist`` does at one node count."""
    x, w = _gauss_hermite(nodes)
    z, w = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    shifted = (sp.normal_ppf(mean) - np.sqrt(correlation) * z) / np.sqrt(1.0 - correlation)
    succ = sp.elementwise(sp.normal_cdf, shifted)
    pmf = _binomial_mixture(trials, succ, w)
    return pmf / pmf.sum(), float(np.dot(w, succ))


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

    @pytest.mark.parametrize("trials", [1, 16, 1100, 20_000, MAX_TRIALS])
    @pytest.mark.parametrize("p", [1e-300, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53])
    def test_keeps_the_bits_of_the_full_support_formula(self, trials, p):
        """Evaluating only the window drops nothing but exact zeros, and
        subnormal tail masses survive (1e-300 at 65,536 trials has one at
        k = 1)."""
        pmf = full_support_pmf(trials, p)
        assert binomial_dist(trials, p).probs.tobytes() == (pmf / pmf.sum()).tobytes()

    def test_large_trial_count_stays_finite(self):
        # a float binomial coefficient overflows above ~1,030 trials
        d = binomial_dist(2000, 0.05)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12
        assert abs(float(np.dot(d.support, d.probs)) - 2000 * 0.05) <= 1e-9


class TestGaussHermite:
    """The rule against numpy.polynomial.hermite.hermgauss, an oracle used
    in tests only, at every node count from 16 to the largest that a
    Vasicek target tries."""

    NODE_COUNTS = range(16, VASICEK_QUAD_NODES[-1] + 1)

    def test_matches_hermgauss(self):
        for n in self.NODE_COUNTS:
            x, w = _gauss_hermite(n)
            ox, ow = hermgauss(n)
            assert np.max(np.abs(x - ox)) <= 2 * np.spacing(np.max(np.abs(ox))), n
            assert np.max(np.abs(w / ow - 1.0)) <= 1e-12, n

    def test_is_exactly_symmetric(self):
        for n in self.NODE_COUNTS:
            x, w = _gauss_hermite(n)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
            assert np.all(np.diff(x) > 0) and np.all(w > 0), n

    def test_weights_sum_to_sqrt_pi(self):
        for n in self.NODE_COUNTS:
            _, w = _gauss_hermite(n)
            assert abs(float(w.sum()) - math.sqrt(math.pi)) <= 4 * np.spacing(math.sqrt(math.pi))

    def test_integrates_the_even_moments(self):
        """sum w x^(2j) = Gamma(j + 1/2), exact for a rule of n >= j + 1 nodes."""
        for n in self.NODE_COUNTS:
            x, w = _gauss_hermite(n)
            for j in range(6):
                assert abs(float(np.sum(w * x ** (2 * j))) / math.gamma(j + 0.5) - 1.0) <= 1e-14


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
        d = vasicek_mixture_dist(16, 0.3, 0.3)
        pmf_mean = float(np.dot(d.support, d.probs)) / 16.0
        assert abs(pmf_mean - oracle_mean) <= 1e-6
        assert abs(pmf_mean - 0.3) <= 1e-6

    def test_heavier_tails_than_plain_binomial(self):
        mixed = vasicek_mixture_dist(16, 0.3, 0.3)
        plain = binomial_dist(16, 0.3)
        assert mixed.probs[0] > plain.probs[0]
        assert mixed.probs[-1] > plain.probs[-1]

    def test_invariant_under_node_doubling(self):
        a, _ = vasicek_at(16, 0.3, 0.3, 128)
        b, _ = vasicek_at(16, 0.3, 0.3, 256)
        assert float(np.max(np.abs(a - b))) <= 1e-10

    def test_first_rung_keeps_the_128_node_bits(self):
        """Where 128 nodes meet the mean, the pmf is the 128-node one, bit
        for bit: the worked example's target did not move."""
        pmf, achieved = vasicek_at(16, 0.3, 0.3, 128)
        assert abs(achieved - 0.3) <= 1e-8
        assert vasicek_mixture_dist(16, 0.3, 0.3).probs.tobytes() == pmf.tobytes()

    @pytest.mark.parametrize("correlation", [0.95, 0.97])
    def test_second_rung_where_128_nodes_miss_the_mean(self, correlation):
        """128 nodes miss the mean 0.3 by 6.9e-8 at correlation 0.95 and by
        1.1e-5 at 0.97, 256 nodes by 9.8e-14 and 3.4e-9: the pmf is the
        256-node one."""
        _, miss_128 = vasicek_at(16, 0.3, correlation, 128)
        pmf, achieved = vasicek_at(16, 0.3, correlation, 256)
        assert abs(miss_128 - 0.3) > 1e-8 >= abs(achieved - 0.3)
        assert vasicek_mixture_dist(16, 0.3, correlation).probs.tobytes() == pmf.tobytes()

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_rejects_degenerate_correlation(self, bad):
        with pytest.raises(DomainError):
            vasicek_mixture_dist(16, 0.3, bad)

    def test_takes_no_node_count(self):
        """The quadrature size follows from the mean miss alone."""
        parameters = list(inspect.signature(vasicek_mixture_dist).parameters)
        assert parameters == ["trials", "mean", "correlation"]

    @pytest.mark.parametrize("trials", OVERSIZED, ids=OVERSIZED_IDS)
    def test_rejects_trials_above_bound(self, trials):
        with pytest.raises(DomainError, match=TRIALS_BOUND):
            vasicek_mixture_dist(trials, 0.3, 0.3)

    def test_pmf_normalized(self):
        d = vasicek_mixture_dist(16, 0.3, 0.3)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12

    def test_nodes_at_probability_0_and_1_give_degenerate_rows(self):
        """At a high correlation the outer nodes' success probabilities
        round to exactly 0 and 1 (91 and 117 of 256 nodes at correlation
        0.96); their binomial rows put all mass on k = 0 and k = trials, with
        no RuntimeWarning from log(0)."""
        rows = [_binomial_mixture(4, np.array([s]), np.ones(1)).tolist() for s in (0.0, 1.0)]
        assert rows == [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]]
        mixed = _binomial_mixture(4, np.array([0.0, 1.0]), np.array([0.25, 0.75]))
        assert mixed.tolist() == [0.25, 0.0, 0.0, 0.0, 0.75]
        d = vasicek_mixture_dist(16, 0.3, 0.96)
        assert d.probs.tobytes() == vasicek_at(16, 0.3, 0.96, 256)[0].tobytes()
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12

    def test_windowed_mixture_has_the_bits_of_the_dense_one(self):
        """The rows of the full-support formula added in node order: the
        windows drop only exact zeros, and chunks do not change the order.
        The rows include degenerate ones, subnormal tails and, at 20,000
        trials, more pairs than one chunk."""
        rng = np.random.default_rng(5)
        succ = np.concatenate([[0.0, 1e-300, 1e-9, 0.5, 1.0 - 1e-12, 1.0], rng.random(34)])
        weights = rng.random(succ.size)
        for trials in (16, 1100, 20_000):
            dense = np.zeros(trials + 1)
            for s, w in zip(succ, weights):
                dense += w * full_support_pmf(trials, s)
            assert _binomial_mixture(trials, succ, weights).tobytes() == dense.tobytes()

    def test_large_mixture_peaks_in_bounded_memory(self):
        """The largest mixture holds no nodes x support matrix: at
        correlation 0.96, which takes 256 nodes, its tracemalloc peak stays
        under 20 MB (~6 MB; the matrix and its log-space temporaries peaked
        at ~539 MB)."""
        tracemalloc.start()
        try:
            d = vasicek_mixture_dist(MAX_TRIALS, 0.3, 0.96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert abs(float(np.dot(d.support, d.probs)) / MAX_TRIALS - 0.3) <= 1e-8

    def test_large_mixture_bits_do_not_follow_the_blas_thread_count(self):
        """No BLAS call sums the rows, so one OpenBLAS thread and two give the
        same pmf bytes of the 256 nodes that correlation 0.96 takes, as does
        this process."""
        code = (
            "import hashlib\n"
            "from recal import vasicek_mixture_dist\n"
            f"d = vasicek_mixture_dist({MAX_TRIALS}, 0.3, 0.96)\n"
            "print(hashlib.sha256(d.probs.tobytes()).hexdigest())\n"
        )
        one, two = (fresh(code, OPENBLAS_NUM_THREADS=str(n)) for n in (1, 2))
        here = vasicek_mixture_dist(MAX_TRIALS, 0.3, 0.96)
        assert one == two == hashlib.sha256(here.probs.tobytes()).hexdigest() + "\n"

    @pytest.mark.parametrize("correlation", [0.98, 0.99])
    def test_quadrature_that_misses_the_mean_is_refused(self, correlation):
        """Near correlation 1 the mixing law is close to a step in the
        normal factor, and even 256 nodes miss its mean 0.3 (by 6.1e-7 at
        0.98, by 1.1e-4 at 0.99)."""
        with pytest.raises(
            DomainError,
            match=r"^256 quadrature nodes give mean 0\.29.*, not the requested 0\.3; "
            r"lower the correlation$",
        ):
            vasicek_mixture_dist(16, 0.3, correlation)

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
