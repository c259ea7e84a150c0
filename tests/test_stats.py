"""Decision-statistic tests: distances, variances, the exact binomial
false-positive kernel, threshold calibration, and the covariance statistic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from randmark import stats
from randmark import watermark as wm
from randmark.attacks import prune_attack
from randmark.harness import verify_suspect

from conftest import make_batch


class TestHamming:
    def test_identical_messages(self):
        m = wm.BitMessage([1, 0, 1, 1])
        assert stats.hamming_distance(m, m) == 0

    def test_hand_count(self):
        a = wm.BitMessage([1, 0, 1, 0])
        b = wm.BitMessage([0, 0, 1, 1])
        assert stats.hamming_distance(a, b) == 2

    def test_complement_gives_n(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 16)
        assert stats.hamming_distance(wm.BitMessage(bits), wm.BitMessage(1 - bits)) == 16

    def test_length_mismatch_fatal(self):
        with pytest.raises(ValueError):
            stats.hamming_distance(wm.BitMessage([1]), wm.BitMessage([1, 0]))


class TestMeanVar:
    def test_all_zero_distances(self):
        batch = make_batch(np.zeros((4, 3), dtype=int), [0, 0, 0])
        assert stats.mean_distance(batch) == 0.0
        assert stats.var_distance(batch) == 0.0

    def test_two_draw_example(self):
        # distances (2, 4): mean 3, unbiased variance 2
        hard = np.array([[1, 1, 0, 0, 0], [1, 1, 1, 1, 0]])
        batch = make_batch(hard, [0, 0, 0, 0, 0])
        assert stats.mean_distance(batch) == 3.0
        assert stats.var_distance(batch) == 2.0

    def test_matches_recomputation_from_hard_bits(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k, n = int(rng.integers(2, 9)), int(rng.integers(1, 12))
            hard = rng.integers(0, 2, (k, n))
            message = rng.integers(0, 2, n)
            batch = make_batch(hard, message)
            recomputed = (hard != message[None, :]).sum(axis=1)
            assert stats.mean_distance(batch) == pytest.approx(recomputed.mean())
            expected_var = recomputed.var(ddof=1)
            assert stats.var_distance(batch) == pytest.approx(expected_var, abs=1e-12)

    def test_two_pass_formula_agreement(self):
        rng = np.random.default_rng(2)
        hard = rng.integers(0, 2, (50, 8))
        batch = make_batch(hard, rng.integers(0, 2, 8))
        d = batch.distances.astype(float)
        mean = d.sum() / d.size
        two_pass = ((d - mean) ** 2).sum() / (d.size - 1)
        assert abs(stats.var_distance(batch) - two_pass) < 1e-12


class TestCrossModelVariance:
    def test_self_pair_is_zero(self):
        rng = np.random.default_rng(3)
        batch = make_batch(rng.integers(0, 2, (6, 5)), rng.integers(0, 2, 5), noise_seed=9)
        assert stats.cross_model_variance(batch, batch) == 0.0

    def test_hand_cross_distances(self):
        # cross distances (0, 2, 4) -> unbiased variance 4
        base = np.zeros((3, 4), dtype=int)
        other = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]])
        a = make_batch(base, [0, 0, 0, 0], noise_seed=5)
        b = make_batch(other, [0, 0, 0, 0], noise_seed=5)
        assert stats.cross_model_variance(a, b) == 4.0

    def test_unpaired_seeds_fatal(self):
        a = make_batch(np.zeros((3, 2), dtype=int), [0, 0], noise_seed=1)
        b = make_batch(np.zeros((3, 2), dtype=int), [0, 0], noise_seed=2)
        with pytest.raises(ValueError, match="paired"):
            stats.cross_model_variance(a, b)

    def test_directional_small_for_pruned_large_for_independent(self, desk_run):
        bundle = desk_run.bundle
        wm_batches = desk_run.batches["watermarked"]
        pruned_batches = desk_run.batches["prune20"]
        indep_batches = desk_run.batches["independent0"]
        v_dep = np.mean([
            stats.cross_model_variance(a, b) for a, b in zip(wm_batches, pruned_batches)
        ])
        v_indep = np.mean([
            stats.cross_model_variance(a, b) for a, b in zip(wm_batches, indep_batches)
        ])
        assert v_dep < v_indep


class TestDecision:
    def test_zero_rho_zero_tau(self):
        assert stats.decide(0.0, 0) is True

    def test_above_threshold(self):
        assert stats.decide(5.2, 5) is False

    def test_boundary_inclusive(self):
        assert stats.decide(5.0, 5) is True

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
        batch = make_batch(rng.integers(0, 2, (10, 6)), rng.integers(0, 2, 6), noise_seed=3)
        assert stats.covariance_delta(batch, batch) == pytest.approx(
            stats.var_distance(batch), abs=1e-12
        )

    def test_hand_anticorrelated_example(self):
        # X = (1,2,3), Y = (3,2,1) -> covariance -1
        message = [0, 0, 0]
        x_hard = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
        y_hard = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
        a = make_batch(x_hard, message, noise_seed=4)
        b = make_batch(y_hard, message, noise_seed=4)
        assert stats.covariance_delta(a, b) == pytest.approx(-1.0, abs=1e-12)

    def test_polarization_equals_direct_covariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k, n = int(rng.integers(2, 12)), int(rng.integers(2, 10))
            message = rng.integers(0, 2, n)
            a = make_batch(rng.integers(0, 2, (k, n)), message, noise_seed=11)
            b = make_batch(rng.integers(0, 2, (k, n)), message, noise_seed=11)
            x = a.distances.astype(float)
            y = b.distances.astype(float)
            direct = ((x - x.mean()) * (y - y.mean())).sum() / (k - 1)
            assert abs(stats.covariance_delta(a, b) - direct) < 1e-12

    def test_message_mismatch_fatal(self):
        a = make_batch(np.zeros((3, 2), dtype=int), [0, 0], noise_seed=1)
        b = make_batch(np.zeros((3, 2), dtype=int), [0, 1], noise_seed=1)
        with pytest.raises(ValueError, match="message"):
            stats.covariance_delta(a, b)

    def test_directional_dependent_positive_independents_near_zero(self, desk_run):
        wm_batches = desk_run.batches["watermarked"]
        dep = np.mean([
            stats.covariance_delta(a, b)
            for a, b in zip(wm_batches, desk_run.batches["prune20"])
        ])
        indep_means = []
        for name in desk_run.independent_ids:
            indep_means.append(np.mean([
                stats.covariance_delta(a, b)
                for a, b in zip(wm_batches, desk_run.batches[name])
            ]))
        assert dep > 0.0
        assert dep > max(np.abs(indep_means))


class TestVerificationReport:
    def test_json_roundtrip(self, mini_run):
        bundle = mini_run.bundle
        report, _ = verify_suspect(
            bundle.watermarked_f, bundle, mini_run.triggers, 1, 8, 77, "self"
        )
        loaded = stats.VerificationReport.from_json(report.to_json())
        assert loaded.rho == report.rho
        assert loaded.detection_rate == report.detection_rate
        assert loaded.decisions == report.decisions

    def test_detection_rate_matches_indicator_mean(self):
        report = stats.VerificationReport(
            suspect_id="x", n=8, tau=2, k_draws=4, seed=0,
            rho=[0.0, 1.0, 3.0, 2.0], variance=[0.0, 0.1, 0.2, 0.3],
        )
        assert report.detection_rate == pytest.approx(3 / 4)

    def test_covariance_included_with_reference(self, mini_run):
        bundle = mini_run.bundle
        pruned = prune_attack(bundle.watermarked_f, 0.2)
        _, ref_batches = verify_suspect(
            bundle.watermarked_f, bundle, mini_run.triggers, 1, 8, 78, "self"
        )
        report, _ = verify_suspect(
            pruned, bundle, mini_run.triggers, 1, 8, 78, "pruned",
            reference_batches=ref_batches,
        )
        assert report.delta is not None and len(report.delta) == len(mini_run.triggers)
        payload = report.to_json()
        assert '"delta"' in payload


class TestSweep:
    def test_rows_cover_all_taus(self):
        rows = stats.sweep_rows("model", "watermarked", [0.0, 2.0, 6.0], 8)
        assert len(rows) == 9
        assert rows[0] == ("model", "watermarked", 0, pytest.approx(1 / 3))
        assert rows[-1] == ("model", "watermarked", 8, 1.0)

    def test_csv_emission(self, tmp_path):
        path = tmp_path / "sweep.csv"
        stats.write_detection_sweep(path, stats.sweep_rows("m", "k", [1.0], 2))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "suspect_id,kind,tau,detection_rate"
        assert len(lines) == 4
