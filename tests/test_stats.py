"""Decision-statistic tests: distances, variances, the exact binomial
false-positive kernel, threshold calibration, and the covariance statistic."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from randmark import nnengine as ne
from randmark import stats
from randmark.harness import verify_suspect

from conftest import decode_one_trigger


def _distances(hard_bits, message_bits) -> np.ndarray:
    """(1, K) distance array of one trigger from explicit (K, n) hard bits."""
    hard = np.asarray(hard_bits, dtype=np.int8)
    return (hard != np.asarray(message_bits, dtype=np.int8)[None, :]).sum(axis=1)[None, :]


def _report(rho, tau: int) -> stats.VerificationReport:
    """A report over the given per-trigger rho values at threshold tau."""
    return stats.VerificationReport(
        suspect_id="x", n=8, tau=tau, k_draws=4, seed=0, rho=rho, variance=[None] * len(rho)
    )


# The per-trigger formulas the array statistics replaced, kept as reference.
def _loop_rho(distances):
    return [float(d.mean()) for d in distances]


def _loop_var(distances):
    return [float(d.var(ddof=1)) if d.size >= 2 else None for d in distances]


def _loop_cov(distances_f, distances_g):
    out = []
    for d_f, d_g in zip(distances_f, distances_g):
        if d_f.size < 2:
            out.append(None)
            continue
        x, y = d_f.astype(np.float64), d_g.astype(np.float64)
        out.append(float((x.var(ddof=1) + y.var(ddof=1) - (x - y).var(ddof=1)) / 2.0))
    return out


def _decoded_distances(decoded_bits, message_bits) -> np.ndarray:
    """decode_triggers' distances over 3 draws for one trigger carrying
    message_bits, through a decoder that reads decoded_bits from any
    embedding (zero weights, saturated sigmoid biases)."""
    bias = np.where(np.asarray(decoded_bits) == 1, 40.0, -40.0)
    decoder = ne.MlpNetwork([ne.Layer(np.zeros((2, len(bias))), bias, "sigmoid")])
    return decode_one_trigger(decoder, message_bits, 3)


class TestHamming:
    def test_identical_messages(self):
        assert np.array_equal(_decoded_distances([1, 0, 1, 1], [1, 0, 1, 1]), [0, 0, 0])

    def test_hand_count(self):
        assert np.array_equal(_decoded_distances([1, 0, 1, 0], [0, 0, 1, 1]), [2, 2, 2])

    def test_complement_gives_n(self):
        bits = np.random.default_rng(0).integers(0, 2, 16)
        assert np.array_equal(_decoded_distances(bits, 1 - bits), [16, 16, 16])


class TestMeanVar:
    def test_all_zero_distances(self):
        distances = _distances(np.zeros((4, 3), dtype=int), [0, 0, 0])
        assert stats.mean_distance(distances) == [0.0]
        assert stats.var_distance(distances) == [0.0]

    def test_two_draw_example(self):
        # distances (2, 4): mean 3, unbiased variance 2
        hard = np.array([[1, 1, 0, 0, 0], [1, 1, 1, 1, 0]])
        distances = _distances(hard, [0, 0, 0, 0, 0])
        assert stats.mean_distance(distances) == [3.0]
        assert stats.var_distance(distances) == [2.0]

    def test_matches_recomputation_from_hard_bits(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k, n = int(rng.integers(2, 9)), int(rng.integers(1, 12))
            hard = rng.integers(0, 2, (k, n))
            message = rng.integers(0, 2, n)
            distances = _distances(hard, message)
            recomputed = (hard != message[None, :]).sum(axis=1)
            assert stats.mean_distance(distances) == [pytest.approx(recomputed.mean())]
            expected_var = recomputed.var(ddof=1)
            assert stats.var_distance(distances) == [pytest.approx(expected_var, abs=1e-12)]

    def test_two_pass_formula_agreement(self):
        rng = np.random.default_rng(2)
        hard = rng.integers(0, 2, (50, 8))
        distances = _distances(hard, rng.integers(0, 2, 8))
        d = distances[0].astype(float)
        mean = d.sum() / d.size
        two_pass = ((d - mean) ** 2).sum() / (d.size - 1)
        assert abs(stats.var_distance(distances)[0] - two_pass) < 1e-12

    def test_single_draw_has_no_variance(self):
        distances = np.array([[3], [0], [5]])
        assert stats.mean_distance(distances) == [3.0, 0.0, 5.0]
        assert stats.var_distance(distances) == [None, None, None]

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="K >= 1"):
            stats.mean_distance(np.zeros((3, 0), dtype=np.int64))

    @pytest.mark.parametrize("shape", [(4,), (3, 0), (2, 3, 4)], ids=["1-D", "no draws", "3-D"])
    @pytest.mark.parametrize("statistic", [stats.mean_distance, stats.var_distance])
    def test_array_not_n_by_k_rejected(self, statistic, shape):
        expected = f"need an (N, K) distance array with K >= 1, got {shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            statistic(np.zeros(shape, dtype=np.int64))


class TestArrayStatisticsMatchLoops:
    """rho, variance and covariance over (N, K) arrays are the bytes the
    per-trigger formulas give, row by row."""

    N_BITS = 32

    def _rows(self, rng, k_draws):
        rows = rng.integers(0, self.N_BITS + 1, (40, k_draws))
        rows[0] = 0
        rows[1] = self.N_BITS
        rows[2] = rng.integers(0, 2, k_draws)  # near the bottom of the range
        return rows

    @pytest.mark.parametrize("k_draws", [1, 2, 3, 64, 65, 200])
    def test_rho_and_variance(self, k_draws):
        rng = np.random.default_rng(k_draws)
        distances = self._rows(rng, k_draws)
        assert repr(stats.mean_distance(distances)) == repr(_loop_rho(distances))
        assert repr(stats.var_distance(distances)) == repr(_loop_var(distances))

    @pytest.mark.parametrize("k_draws", [1, 2, 3, 64, 65, 200])
    def test_covariance(self, k_draws):
        rng = np.random.default_rng(100 + k_draws)
        x, y = self._rows(rng, k_draws), self._rows(rng, k_draws)
        y[3] = self.N_BITS - x[3]  # anticorrelated row
        y[4] = x[4]  # identical row
        for a, b in ((x, y), (y, x), (x, x)):
            assert repr(stats.covariance_delta(a, b)) == repr(_loop_cov(a, b))

    def test_report_equals_loop_formulas(self, mini_run):
        for k_draws in (1, 2, 64, 65):
            report, distances = verify_suspect(
                mini_run.bundle.watermarked_f, mini_run.bundle, mini_run.triggers,
                1, k_draws, 79, "self",
            )
            assert repr(report.rho) == repr(_loop_rho(distances))
            assert repr(report.variance) == repr(_loop_var(distances))


class TestDecision:
    def test_zero_rho_zero_tau(self):
        assert stats.detection_rate([0.0], 0) == 1.0
        assert _report([0.0], tau=0).decisions == [True]

    def test_above_threshold(self):
        assert stats.detection_rate([5.2], 5) == 0.0
        assert _report([5.2], tau=5).decisions == [False]

    def test_boundary_inclusive(self):
        # rho == tau detects
        assert stats.detection_rate([5.0], 5) == 1.0
        assert _report([4.0, 5.0, 5.2, 6.0], tau=5).decisions == [True, True, False, False]

    def test_detection_rate_all_pass(self):
        assert stats.detection_rate([0.0, 0.0, 0.0], 0) == 1.0

    def test_detection_rate_two_thirds(self):
        assert stats.detection_rate([0.0, 3.0, 10.0], 5) == pytest.approx(2 / 3)

    def test_detection_rate_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        rhos = rng.uniform(0, 32, 50)
        rates = [stats.detection_rate(rhos, tau) for tau in range(33)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_detection_rate_permutation_invariant(self):
        rng = np.random.default_rng(5)
        rhos = list(rng.uniform(0, 10, 20))
        shuffled = rhos[::-1]
        for tau in (0, 3, 7):
            assert stats.detection_rate(rhos, tau) == stats.detection_rate(shuffled, tau)

    def test_empty_rho_list_fatal(self):
        with pytest.raises(ValueError):
            stats.detection_rate([], 3)


class TestFprBinomial:
    def test_full_support_is_one(self):
        for r in (0.0, 0.3, 0.5, 0.97, 1.0):
            for n in (1, 8, 32, 64):
                assert stats.fpr_binomial(r, n, n) == 1.0

    def test_certain_match_gives_one(self):
        assert stats.fpr_binomial(1.0, 32, 0) == 1.0

    def test_exact_reference_value(self):
        expected = float(Fraction(242825, 2**32))
        got = stats.fpr_binomial(0.5, 32, 5)
        assert abs(got - expected) / expected < 1e-12

    def test_monotone_in_tau(self):
        values = [stats.fpr_binomial(0.6, 24, tau) for tau in range(25)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_r(self):
        # higher per-bit match probability concentrates mass at few
        # mismatches, so the tau-tail can only grow
        rs = np.linspace(0.05, 0.95, 10)
        values = [stats.fpr_binomial(r, 20, 4) for r in rs]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_log_domain_path_beyond_cap(self):
        # n = 100 exceeds the exact-integer cap; compare with scipy
        from scipy.stats import binom

        got = stats.fpr_binomial(0.7, 100, 25)
        expected = float(binom.cdf(25, 100, 0.3))
        assert got == pytest.approx(expected, rel=1e-10)


class TestSelectThreshold:
    def test_reference_calibration(self):
        assert stats.select_threshold(0.5, 32, 1e-4) == 5
        assert stats.fpr_binomial(0.5, 32, 5) < 1e-4 <= stats.fpr_binomial(0.5, 32, 6)

    def test_epsilon_one_gives_n_minus_one(self):
        assert stats.select_threshold(0.5, 32, 1.0) == 31

    def test_infeasible_returns_none(self):
        # even tau = 0 has mass (1-r)^0 r^n? always > 0 for r > 0
        tiny = stats.fpr_binomial(0.9, 16, 0) / 10
        assert stats.select_threshold(0.9, 16, tiny) is None

    def test_returned_threshold_is_maximal(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            r = float(rng.uniform(0.3, 0.99))
            n = int(rng.integers(4, 64))
            eps = float(10 ** rng.uniform(-8, -0.3))
            tau = stats.select_threshold(r, n, eps)
            if tau is None:
                assert stats.fpr_binomial(r, n, 0) >= eps
            else:
                assert stats.fpr_binomial(r, n, tau) < eps
                assert tau == n - 1 or stats.fpr_binomial(r, n, tau + 1) >= eps


class TestMonteCarloCalibration:
    def test_simulated_messages_match_fpr(self):
        # 10^6 messages with iid per-bit match probability, drawn bit by bit
        r, n, tau = 0.5, 32, 5
        rng = np.random.default_rng(7)
        hits = 0
        total = 1_000_000
        chunk = 100_000
        for _ in range(total // chunk):
            mismatches = (rng.random((chunk, n)) < (1.0 - r)).sum(axis=1)
            hits += int((mismatches <= tau).sum())
        empirical = hits / total
        expected = stats.fpr_binomial(r, n, tau)
        se = math.sqrt(expected * (1 - expected) / total)
        assert abs(empirical - expected) <= 4 * se


class TestCovarianceDelta:
    def test_self_pair_equals_variance(self):
        rng = np.random.default_rng(8)
        distances = _distances(rng.integers(0, 2, (10, 6)), rng.integers(0, 2, 6))
        assert stats.covariance_delta(distances, distances) == [
            pytest.approx(stats.var_distance(distances)[0], abs=1e-12)
        ]

    def test_hand_anticorrelated_example(self):
        # X = (1,2,3), Y = (3,2,1) -> covariance -1
        message = [0, 0, 0]
        x_hard = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
        y_hard = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
        a = _distances(x_hard, message)
        b = _distances(y_hard, message)
        assert stats.covariance_delta(a, b) == [pytest.approx(-1.0, abs=1e-12)]

    def test_polarization_equals_direct_covariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k, n = int(rng.integers(2, 12)), int(rng.integers(2, 10))
            message = rng.integers(0, 2, n)
            a = _distances(rng.integers(0, 2, (k, n)), message)
            b = _distances(rng.integers(0, 2, (k, n)), message)
            x = a[0].astype(float)
            y = b[0].astype(float)
            direct = ((x - x.mean()) * (y - y.mean())).sum() / (k - 1)
            assert abs(stats.covariance_delta(a, b)[0] - direct) < 1e-12

    def test_single_draw_gives_none(self):
        a = np.array([[1], [2]])
        assert stats.covariance_delta(a, a) == [None, None]

    def test_message_mismatch_fatal(self):
        # the arrays must cover the same triggers (and draws)
        a = np.zeros((3, 4), dtype=np.int64)
        for b in (np.zeros((2, 4), dtype=np.int64), np.zeros((3, 5), dtype=np.int64)):
            with pytest.raises(ValueError, match="same triggers"):
                stats.covariance_delta(a, b)

    def test_directional_dependent_positive_independents_near_zero(self, desk_run):
        distances = desk_run.covariance_distances  # the covariance stage's draws
        reference = distances["watermarked"]
        dep = np.mean(stats.covariance_delta(reference, distances["prune20"]))
        indep_means = [
            np.mean(stats.covariance_delta(reference, distances[name]))
            for name in desk_run.independent_ids
        ]
        assert dep > 0.0
        assert dep > max(np.abs(indep_means))


class TestVerificationReport:
    def test_detection_rate_matches_indicator_mean(self):
        report = stats.VerificationReport(
            suspect_id="x", n=8, tau=2, k_draws=4, seed=0,
            rho=[0.0, 1.0, 3.0, 2.0], variance=[0.0, 0.1, 0.2, 0.3],
        )
        assert report.detection_rate == pytest.approx(3 / 4)


class TestSweep:
    def test_rows_cover_all_taus(self):
        rows = stats.sweep_rows("model", "watermarked", [0.0, 2.0, 6.0], 8)
        assert len(rows) == 9
        assert rows[0] == ("model", "watermarked", 0, pytest.approx(1 / 3))
        assert rows[-1] == ("model", "watermarked", 8, 1.0)

