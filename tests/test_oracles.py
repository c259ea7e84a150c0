"""Oracle self-tests: the validators must get the easy cases exactly right
and report honest Monte Carlo accounting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from randmark.bounds import chernoff_gamma, poisson_binomial_cdf

import oracles


class TestExactBinomialTail:
    def test_reference_integer_sum(self):
        # sum of C(32, j) for j = 0..5: 1+32+496+4960+35960+201376 = 242825
        coeffs = [math.comb(32, j) for j in range(6)]
        assert sum(coeffs) == 242825
        result = oracles.exact_binomial_tail(32, 5, 0.5)
        assert result.method == "exact-integer"
        assert result.value == float(Fraction(242825, 2**32))

    def test_full_support_is_exactly_one(self):
        for n, r in ((8, 0.37), (32, 0.5), (64, 0.91)):
            assert oracles.exact_binomial_tail(n, n, r).value == 1.0

    def test_zero_match_probability(self):
        assert oracles.exact_binomial_tail(12, 0, 0.0).value == 0.0
        assert oracles.exact_binomial_tail(12, 12, 0.0).value == 1.0

    def test_beyond_cap_matches_exact_convolution(self):
        # the incomplete-beta route shares no code with stats' log-domain sum
        for n in (65, 96, 128):
            for r in (0.0, 0.05, 0.3, 0.5, 0.8, 0.95, 1.0):
                for tau in sorted({0, 1, n // 4, n // 2, 3 * n // 4, n - 1, n}):
                    result = oracles.exact_binomial_tail(n, tau, r)
                    assert result.method == "incomplete-beta"
                    exact = oracles._integer_tail(n, tau, r)
                    assert result.value == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_agrees_with_closed_form_route(self):
        from randmark.stats import fpr_binomial

        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 64))
            tau = int(rng.integers(0, n + 1))
            r = float(rng.random())
            assert oracles.exact_binomial_tail(n, tau, r).value == pytest.approx(
                fpr_binomial(r, n, tau), rel=1e-12, abs=1e-300
            )


class TestBruteForce:
    def test_two_variable_hand_case(self):
        result = oracles.brute_force_poisson_binomial([0.2, 0.7], 2, "below")
        assert result.method == "exact-enumeration"
        assert result.value == pytest.approx(0.86, rel=1e-12)

    def test_certain_successes_have_empty_lower_tail(self):
        for d in (0, 1, 3):
            assert oracles.brute_force_poisson_binomial([1.0] * 3, d, "below").value == 0.0

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError, match="refused"):
            oracles.brute_force_poisson_binomial([0.5] * 21, 3, "below")

    def test_agrees_with_convolution(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            probs = rng.random(n)
            d = int(rng.integers(0, n + 1))
            for tail in ("below", "above"):
                exact = oracles.brute_force_poisson_binomial(probs, d, tail).value
                assert abs(poisson_binomial_cdf(probs, d, tail) - exact) <= 1e-12


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
def test_probability_out_of_range_rejected(bad):
    with pytest.raises(ValueError, match="probabilities"):
        oracles.brute_force_poisson_binomial([bad, 0.5], 1, "below")
    with pytest.raises(ValueError, match="probabilities"):
        oracles.monte_carlo_bernoulli_sum([bad, 0.5], 1, 10_000, seed=0)


class TestMonteCarlo:
    def test_certain_successes_never_below(self):
        result = oracles.monte_carlo_bernoulli_sum([1.0] * 5, 3, 10_000, seed=2)
        assert result.value == 0.0
        assert result.method == "monte-carlo"
        assert result.standard_error is not None

    def test_matches_exact_tail_within_four_se(self):
        result = oracles.monte_carlo_bernoulli_sum([0.5] * 10, 2, 1_000_000, seed=3)
        truth = 11 / 1024
        se = math.sqrt(truth * (1 - truth) / 1_000_000)
        assert abs(result.value - truth) <= 4 * se
        assert result.value <= chernoff_gamma(0.5, 2, 10)

    def test_deterministic_under_seed(self):
        a = oracles.monte_carlo_bernoulli_sum([0.3, 0.9, 0.5], 2, 20_000, seed=4)
        b = oracles.monte_carlo_bernoulli_sum([0.3, 0.9, 0.5], 2, 20_000, seed=4)
        assert a.value == b.value

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            oracles.monte_carlo_bernoulli_sum([0.5], 1, 100, seed=5)


class TestCoverageSimulation:
    def test_nominal_dominance_at_half(self):
        result = oracles.coverage_simulation(0.5, 60, 0.5, 5_000, seed=6)
        assert result.value <= 0.5 + 3 * result.standard_error

    def test_tight_level_rarely_misses(self):
        result = oracles.coverage_simulation(0.8, 200, 1e-6, 10_000, seed=7)
        assert result.value == 0.0

    def test_upper_side_coverage(self):
        result = oracles.coverage_simulation(0.6, 150, 0.05, 20_000, seed=8, side="upper")
        assert result.value <= 0.05 + 3 * result.standard_error

    def test_deterministic_under_seed(self):
        a = oracles.coverage_simulation(0.7, 100, 0.05, 2_000, seed=9)
        b = oracles.coverage_simulation(0.7, 100, 0.05, 2_000, seed=9)
        assert a.value == b.value

    @pytest.mark.parametrize("reps", [0, 999])
    def test_too_few_replications_rejected(self, reps):
        with pytest.raises(ValueError, match="10\\^3 replications"):
            oracles.coverage_simulation(0.5, 10, 0.1, reps, seed=0)


class TestLemmaSimulation:
    def test_loose_delta_dominance(self):
        probs = [0.85] * 20
        result = oracles.lemma_validity_simulation(probs, 0.5, 12, 5_000, seed=10)
        assert result.violation_rate <= 0.5 + 3 * result.standard_error

    def test_replication_accounting_is_complete(self):
        # mean barely above the threshold ratio: many replications fall in
        # the inapplicable region and must be counted there
        probs = [0.55] * 20
        result = oracles.lemma_validity_simulation(probs, 0.2, 10, 5_000, seed=11)
        assert result.inapplicable > 0
        assert result.applicable + result.inapplicable == result.reps
        assert result.violations <= result.applicable

    def test_requires_applicable_configuration(self):
        with pytest.raises(ValueError):
            oracles.lemma_validity_simulation([0.5] * 10, 0.05, 8, 5_000, seed=12)

    @pytest.mark.parametrize("reps", [0, 1, 999])
    def test_too_few_replications_rejected(self, reps):
        # zero replications would divide by zero in the violation rate
        with pytest.raises(ValueError, match="10\\^3 replications"):
            oracles.lemma_validity_simulation([0.9] * 3, 0.1, 1, reps, seed=12)

    def test_small_count_configuration(self):
        # 15 summands with mean 0.9 against threshold 10: the concentration
        # margin is wide, so most replications fall in the inapplicable
        # bucket, and none of the applicable ones may violate the bound
        rng = np.random.default_rng(14)
        probs = rng.uniform(0.85, 0.95, 15)
        probs = probs + (0.9 - probs.mean())
        result = oracles.lemma_validity_simulation(probs, 0.05, 10, 10_000, seed=15)
        assert result.violation_rate <= 0.05 + 3 * result.standard_error + 1e-12
        assert result.applicable + result.inapplicable == result.reps

    def test_deterministic_under_seed(self):
        probs = [0.9] * 15
        a = oracles.lemma_validity_simulation(probs, 0.05, 10, 3_000, seed=13)
        b = oracles.lemma_validity_simulation(probs, 0.05, 10, 3_000, seed=13)
        assert a.violation_rate == b.violation_rate


class TestOracleResult:
    def test_standard_error_only_for_monte_carlo(self):
        with pytest.raises(ValueError):
            oracles.OracleResult(value=1.0, method="exact-integer", standard_error=0.1)
        with pytest.raises(ValueError):
            oracles.OracleResult(value=1.0, method="monte-carlo")
