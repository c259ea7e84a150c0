"""Guarantee-machinery tests: exact one-sided intervals, Poisson-binomial
tails, and the Chernoff/Hoeffding closed forms."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randmark
from randmark import bounds, harness
from randmark.harness import ExperimentConfig
from randmark.oracles import brute_force_poisson_binomial, coverage_simulation
from randmark.stats import fpr_binomial

DATA = Path(__file__).parent / "data"


def _limit(matches: int, trials: int, level: float, side: str) -> float:
    """One Clopper-Pearson limit of collision_estimate, for one count."""
    lower, upper = bounds.collision_estimate([matches], trials, level)
    return float({"lower": lower, "upper": upper}[side][0])


class TestOneSidedBound:
    def test_zero_matches_lower_is_zero(self):
        assert _limit(0, 50, 0.05, "lower") == 0.0

    def test_all_matches_upper_is_one(self):
        assert _limit(50, 50, 0.05, "upper") == 1.0

    def test_all_success_lower_closed_form(self):
        # with every trial a success the lower limit is level^(1/M)
        for m_trials, level in ((100, 0.001), (20, 0.05), (7, 0.5)):
            got = _limit(m_trials, m_trials, level, "lower")
            assert got == pytest.approx(level ** (1 / m_trials), rel=1e-9)
        assert _limit(100, 100, 0.001, "lower") == pytest.approx(
            0.93325, abs=5e-6
        )

    def test_lower_below_upper(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            trials = int(rng.integers(5, 300))
            matches = int(rng.integers(0, trials + 1))
            level = float(rng.uniform(0.001, 0.2))
            lo = _limit(matches, trials, level, "lower")
            hi = _limit(matches, trials, level, "upper")
            assert 0.0 <= lo <= hi <= 1.0

    def test_degenerate_level_fatal(self):
        with pytest.raises(ValueError):
            _limit(3, 10, 0.0, "lower")
        with pytest.raises(ValueError):
            _limit(3, 10, 1.0, "upper")

    def test_quick_coverage(self):
        result = coverage_simulation(0.8, 200, 0.05, 20_000, seed=1, side="lower")
        assert result.value <= 0.05 + 3 * result.standard_error

    def test_equals_beta_quantile(self):
        from scipy.stats import beta

        for trials in (64, 2048, 69_632, 108_800):
            for matches in (1, 2, trials // 3, trials // 2, trials - 1):
                for level in (1e-4, 0.01, 0.5):
                    lower = beta.ppf(level, matches, trials - matches + 1)
                    upper = beta.ppf(1.0 - level, matches + 1, trials - matches)
                    assert _limit(matches, trials, level, "lower") == lower
                    assert _limit(matches, trials, level, "upper") == upper


def _fresh_interpreter(code: str) -> str:
    """Standard output of code run in a new interpreter on this checkout."""
    src = str(Path(randmark.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.special takes more than half of a cold `import randmark`, and
    # scipy.stats about a second more: neither may load with the package
    for module in ("randmark", "randmark.cli"):
        code = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        assert _fresh_interpreter(code) == "[]", module


@pytest.mark.parametrize("call", [
    "randmark.bounds.collision_estimate([1, 3], 4, 0.01)",
    "randmark.oracles.exact_binomial_tail(100, 10, 0.9)",
], ids=["collision-estimate", "binomial-tail-beyond-cap"])
def test_first_bound_loads_scipy_special(call):
    code = (
        "import sys, randmark.oracles; before = 'scipy.special' in sys.modules; "
        f"{call}; print(before, 'scipy.special' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False True"


class TestCollisionEstimate:
    def test_equals_scalar_bound_elementwise(self):
        # every trial count the desk runs produce, edge and random counts
        rng = np.random.default_rng(4)
        for trials in (64, 2048, 69_632, 108_800):
            matches = np.concatenate([
                [0, 1, 2, trials // 2, trials - 1, trials],
                rng.integers(0, trials + 1, size=40),
            ])
            for level in (1e-4, 0.01 / 100, 0.5):
                # one batch call equals the same counts called one at a time
                lower, upper = bounds.collision_estimate(matches, trials, level)
                for m, lo, hi in zip(matches.tolist(), lower.tolist(), upper.tolist()):
                    one_lower, one_upper = bounds.collision_estimate([m], trials, level)
                    assert (lo, hi) == (one_lower[0], one_upper[0])

    def test_per_trigger_trial_counts(self):
        lower, upper = bounds.collision_estimate([0, 5, 64], [10, 2048, 64], 0.01)
        assert lower[0] == 0.0 and upper[2] == 1.0
        assert lower[1] == _limit(5, 2048, 0.01, "lower")
        assert upper[0] == _limit(0, 10, 0.01, "upper")

    @pytest.mark.parametrize("matches, trials, level", [
        ([3, 11], 10, 0.01), ([-1, 2], 10, 0.01), ([3, 4], 10, 0.0), ([3, 4], 10, 1.0),
    ], ids=["above-trials", "negative", "level-zero", "level-one"])
    def test_out_of_range_rejected(self, matches, trials, level):
        with pytest.raises(ValueError):
            bounds.collision_estimate(matches, trials, level)


class TestPerImageDetectionProb:
    """The bridge: fpr_binomial(r, n, tau) as a trigger's detection
    probability when every bit matches independently with probability r."""

    def test_certain_bits_detect(self):
        assert fpr_binomial(1.0, 32, 0) == 1.0

    def test_hopeless_bits_never_detect(self):
        assert fpr_binomial(0.0, 32, 5) == 0.0

    def test_same_kernel_as_fpr(self):
        assert fpr_binomial(0.5, 32, 5) == pytest.approx(242825 / 2**32, rel=1e-12)

    def test_monotone_in_r_bound(self):
        # a lower per-bit limit gives a lower detection probability and an
        # upper limit an upper one only because this holds
        grid = np.linspace(0.0, 1.0, 21)
        values = [fpr_binomial(r, 16, 3) for r in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestPoissonBinomial:
    def test_two_coin_example(self):
        assert bounds.poisson_binomial_cdf([0.5, 0.5], 1, "below") == pytest.approx(0.25)

    def test_heterogeneous_hand_enumeration(self):
        # distribution over counts: (0.24, 0.62, 0.14)
        assert bounds.poisson_binomial_cdf([0.2, 0.7], 2, "below") == pytest.approx(0.86)
        assert bounds.poisson_binomial_cdf([0.2, 0.7], 0, "above") == pytest.approx(0.76)

    def test_binomial_special_case(self):
        # all probs 0.9, N=10: P(S < 8) = P(Bin(10, 0.9) <= 7)
        got = bounds.poisson_binomial_cdf([0.9] * 10, 8, "below")
        assert got == pytest.approx(0.0702, abs=5e-5)

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            probs = rng.random(n)
            d = int(rng.integers(0, n + 1))
            tail = "below" if rng.random() < 0.5 else "above"
            exact = brute_force_poisson_binomial(probs, d, tail).value
            assert abs(bounds.poisson_binomial_cdf(probs, d, tail) - exact) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
    def test_probability_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="probabilities"):
            bounds.poisson_binomial_cdf([bad, 0.5], 1, "below")

    def test_tails_are_strict(self):
        # S = 2 surely: the strict tails exclude the threshold itself
        assert bounds.poisson_binomial_cdf([1.0, 1.0], 2, "below") == 0.0
        assert bounds.poisson_binomial_cdf([1.0, 1.0], 2, "above") == 0.0
        assert bounds.poisson_binomial_cdf([1.0, 1.0], 1, "above") == pytest.approx(1.0)


class TestDetectionRateBounds:
    def test_perfect_copies_never_fall_below(self):
        p_omega, p_xi = bounds.detection_rate_bounds([1.0] * 10, [0.0] * 10, 32, 5, 8, 3)
        assert p_omega == 0.0

    def test_hopeless_impostors_never_exceed(self):
        _, p_xi = bounds.detection_rate_bounds([1.0] * 10, [0.0] * 10, 32, 5, 8, 3)
        assert p_xi == 0.0

    def test_limits_pass_through_the_bridge(self):
        lower = np.linspace(0.80, 0.95, 10)
        upper = np.linspace(0.40, 0.60, 10)
        p_omega, p_xi = bounds.detection_rate_bounds(lower, upper, 32, 5, 8, 3)
        assert p_omega == bounds.poisson_binomial_cdf(
            [fpr_binomial(float(r), 32, 5) for r in lower], 8, "below"
        )
        assert p_xi == bounds.poisson_binomial_cdf(
            [fpr_binomial(float(r), 32, 5) for r in upper], 3, "above"
        )

    @pytest.mark.parametrize("lower, upper", [
        ([0.9] * 10, [0.1] * 9), ([], []), ([[0.9] * 10], [[0.1] * 10]), ([0.9] * 10, [1.5] * 10),
    ], ids=["different-triggers", "empty", "not-1d", "out-of-range"])
    def test_malformed_limits_rejected(self, lower, upper):
        with pytest.raises(ValueError):
            bounds.detection_rate_bounds(lower, upper, 32, 5, 8, 3)

    def test_thresholds_checked_against_trigger_count(self):
        with pytest.raises(ValueError, match="r_bar"):
            bounds.detection_rate_bounds([0.9] * 10, [0.1] * 10, 32, 5, 11, 3)

    def test_reference_order_fixture(self):
        # constant per-bit profiles at message length 32, tau 5, N = 1000,
        # thresholds 750/600: the resulting deviation bounds land at the
        # documented orders (~1e-6 and ~1e-4)
        p_omega, p_xi = bounds.detection_rate_bounds(
            np.full(1000, 0.8777), np.full(1000, 0.8313), 32, 5, 750, 600
        )
        assert 1e-8 < p_omega < 1e-4
        assert 1e-6 < p_xi < 1e-2


class TestHoeffdingEpsilon:
    def test_delta_one_gives_zero(self):
        assert bounds.hoeffding_epsilon(1.0, 500) == 0.0

    def test_reference_value(self):
        assert bounds.hoeffding_epsilon(0.01, 1000) == pytest.approx(0.047985, abs=1e-6)

    def test_quadrupling_count_halves_margin(self):
        eps_n = bounds.hoeffding_epsilon(0.05, 250)
        eps_4n = bounds.hoeffding_epsilon(0.05, 1000)
        assert eps_4n == pytest.approx(eps_n / 2, rel=1e-12)


class TestChernoffGamma:
    def test_boundary_is_exactly_one(self):
        for d, n in ((2, 10), (1, 3), (7, 9), (375, 1000)):
            assert bounds.chernoff_gamma(d / n, d, n) == 1.0

    def test_hand_value(self):
        got = bounds.chernoff_gamma(0.5, 2, 10)
        assert got == pytest.approx(2.5**2 * 0.625**8, rel=1e-12)
        assert got == pytest.approx(0.145519, abs=1e-6)

    def test_dominates_exact_binomial_tail(self):
        exact = bounds.poisson_binomial_cdf([0.5] * 10, 2, "below")
        assert exact == pytest.approx(11 / 1024, rel=1e-10)
        assert exact <= bounds.chernoff_gamma(0.5, 2, 10)

    def test_strictly_decreasing_beyond_boundary(self):
        assert bounds.chernoff_gamma(0.6, 2, 10) < bounds.chernoff_gamma(0.5, 2, 10)
        grid = np.linspace(0.21, 0.99, 40)
        values = [bounds.chernoff_gamma(p, 2, 10) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_error_below_boundary(self):
        with pytest.raises(ValueError, match="invalid"):
            bounds.chernoff_gamma(0.15, 2, 10)

    def test_validity_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            probs = rng.uniform(0.2, 0.99, n)
            mean_p = float(probs.mean())
            d_max = int(math.ceil(n * mean_p)) - 1
            if d_max < 1:
                continue
            d = int(rng.integers(1, d_max + 1))
            if d / n == mean_p:
                continue
            exact = bounds.poisson_binomial_cdf(probs, d, "below")
            assert exact <= bounds.chernoff_gamma(mean_p, d, n) + 1e-12


class TestLemmaBounds:
    def test_delta_one_reduces_to_plug_in(self):
        result = bounds.lemma_bounds(0.9, 0.3, 1.0, 70, 50, 100)
        assert result.epsilon == 0.0
        assert result.h_minus == pytest.approx(bounds.chernoff_gamma(0.9, 70, 100), rel=1e-12)
        assert result.h_plus == pytest.approx(
            math.exp(bounds._gamma_log(0.3, 50, 100)), rel=1e-12
        )

    def test_reference_configuration(self):
        result = bounds.lemma_bounds(0.95, 0.5, 0.01, 750, 600, 1000)
        assert result.epsilon == pytest.approx(0.047985, abs=1e-6)
        expected = bounds.chernoff_gamma(0.95 - result.epsilon, 750, 1000)
        assert result.h_minus == pytest.approx(expected, rel=1e-12)
        assert 0.0 < result.h_minus < 1.0
        # the closed form must dominate the exact tail at the plug-in mean
        exact = bounds.poisson_binomial_cdf([0.95 - result.epsilon] * 1000, 750, "below")
        assert result.h_minus >= exact

    def test_upper_side_symmetric_form(self):
        result = bounds.lemma_bounds(0.95, 0.5, 0.01, 750, 600, 1000)
        q_eff = 0.5 + result.epsilon
        # upper tail via the flipped sum: same closed form at (q_eff, 600)
        flipped = math.exp(bounds._gamma_log(1.0 - q_eff, 1000 - 600, 1000))
        assert result.h_plus == pytest.approx(flipped, rel=1e-10)
        exact = bounds.poisson_binomial_cdf([q_eff] * 1000, 600, "above")
        assert result.h_plus >= exact

    def test_inapplicable_sides_reported_not_silent(self):
        # p_hat - eps falls below r_bar / N, q_hat + eps above r_under / N
        result = bounds.lemma_bounds(0.76, 0.58, 0.01, 750, 600, 1000)
        assert result.h_minus is None
        assert "not above" in result.minus_reason
        assert result.h_plus is None
        assert "not below" in result.plus_reason
        # the applicable side still yields a number when only one side fails
        partial = bounds.lemma_bounds(0.95, 0.58, 0.01, 750, 600, 1000)
        assert partial.h_minus is not None and partial.h_plus is None

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            bounds.lemma_bounds(0.9, 0.1, 0.05, 50, 70, 100)


class TestBoundReport:
    def test_json_schema(self):
        report = bounds.build_bound_report(
            (np.full(10, 95), np.full(10, 100)), (np.full(10, 40), 100),
            n=8, tau=2, r_bar=8, r_under=3, alpha=0.01, delta=0.05, p_hat=0.95, q_hat=0.2,
        )
        payload = json.loads(report.to_json())
        for key in ("alpha", "delta", "N", "n", "tau", "R_bar", "R_under", "l", "u",
                    "p_omega", "p_xi", "h_minus", "h_plus", "epsilon"):
            assert key in payload
        assert len(payload["l"]) == 10 and len(payload["u"]) == 10
        # alpha split over the 10 triggers: every limit at 0.001
        assert payload["l"][0] == _limit(95, 100, 0.001, "lower")
        assert payload["u"][0] == _limit(40, 100, 0.001, "upper")
        assert 0.0 <= payload["p_omega"] <= 1.0
        assert 0.0 <= payload["p_xi"] <= 1.0

    def test_populations_over_different_triggers_rejected(self):
        with pytest.raises(ValueError, match="same"):
            bounds.build_bound_report(
                (np.full(10, 95), 100), (np.full(9, 40), 100),
                n=8, tau=2, r_bar=8, r_under=3, alpha=0.01, delta=0.05, p_hat=0.95, q_hat=0.2,
            )

    def test_estimates_file_report_matches_golden_bytes(self):
        # rows out of trigger_id order, trial counts from 64 to 108,800, and
        # 0-of and all-of-trials counts in both populations; the expected
        # bytes are the report the per-trigger-object implementation wrote
        config = ExperimentConfig(trigger_count=12, r_bar=9, r_under=4)
        report = harness.bound_report_from_estimates(config, DATA / "estimates_unordered.json")
        assert report.to_json() == (DATA / "bound_report_unordered.json").read_text()
