"""Attack-generator tests: fine-tuning, pruning, distillation, independent
models, and population sampling with its functionality filter."""

import builtins
import logging
import os
import signal
import threading
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.synth import gen_synthetic_images

from conftest import MINI, see_cpus, sparsity

DIMS = [MINI["s"], 48, MINI["k"]]


@pytest.fixture(scope="module")
def backbone():
    return atk.make_independent(DIMS, seed=41, pretrain_data_seed=42, epochs=20, n_images=100)


@pytest.fixture(scope="module")
def task():
    return atk.make_blob_task(MINI["s"], n_classes=4, n_samples=512, seed=43)


class TestFinetune:
    def test_zero_epochs_leaves_backbone_unchanged(self, backbone, task):
        net, _ = atk.finetune_attack(backbone, task, epochs=0, lr=1e-3, seed=1)
        assert net.parameters_digest() == backbone.parameters_digest()

    def test_blob_task_is_learnable(self, backbone, task):
        _, accuracy = atk.finetune_attack(backbone, task, epochs=10, lr=1e-3, seed=2)
        assert accuracy >= 0.9

    def test_parameters_drift_for_positive_epochs(self, backbone, task):
        net, _ = atk.finetune_attack(backbone, task, epochs=1, lr=1e-3, seed=3)
        drift = sum(
            float(np.linalg.norm(a.weight - b.weight))
            for a, b in zip(net.layers, backbone.layers)
        )
        assert drift > 0.0

    def test_deterministic_under_seed(self, backbone, task):
        a, _ = atk.finetune_attack(backbone, task, epochs=2, lr=1e-3, seed=4)
        b, _ = atk.finetune_attack(backbone, task, epochs=2, lr=1e-3, seed=4)
        assert a.parameters_digest() == b.parameters_digest()


class TestAttackSpec:
    @pytest.mark.parametrize("lr", [-5.0, 0.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("kind", ["finetune", "distill"])
    def test_learning_rate_must_be_positive_and_finite(self, kind, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            atk.AttackSpec(kind=kind, epochs=3, lr=lr)


def _prune(bundle, fraction):
    return atk.apply_attack(bundle, atk.AttackSpec(kind="prune", fraction=fraction))


class TestPrune:
    def test_exact_sparsity_levels(self, mini_run):
        assert sparsity(_prune(mini_run.bundle, 0.2)) == 0.2
        assert sparsity(_prune(mini_run.bundle, 0.4)) == 0.4

    def test_zero_fraction_is_identity(self, mini_run):
        pruned = _prune(mini_run.bundle, 0.0)
        assert pruned.parameters_digest() == mini_run.bundle.watermarked_f.parameters_digest()


class TestDistill:
    def test_half_width_student_matches_embeddings(self, backbone):
        student, _ = atk.distill_attack(
            backbone, (24,), data_seed=6, epochs=50, n_inputs=5000, seed=7
        )
        held = gen_synthetic_images(256, MINI["s"], 8)
        assert atk.relative_embedding_error(student, backbone, held) < 0.15


class TestMakeIndependent:
    def test_different_seeds_differ(self):
        a = atk.make_independent(DIMS, seed=50, pretrain_data_seed=60, epochs=5, n_images=60)
        b = atk.make_independent(DIMS, seed=51, pretrain_data_seed=60, epochs=5, n_images=60)
        dist = sum(
            float(np.linalg.norm(x.weight - y.weight)) for x, y in zip(a.layers, b.layers)
        )
        assert dist > 0.0

    def test_same_seed_identical_checkpoints(self):
        a = atk.make_independent(DIMS, seed=52, pretrain_data_seed=61, epochs=5, n_images=60)
        b = atk.make_independent(DIMS, seed=52, pretrain_data_seed=61, epochs=5, n_images=60)
        assert ne.checkpoint_bytes(a) == ne.checkpoint_bytes(b)

    def test_pooled_match_rate_near_chance(self, mini_run):
        bundle = mini_run.bundle
        n = mini_run.triggers.n
        n_models = 20
        total_bits = 0
        matching = 0
        for m in range(n_models):
            g = atk.make_independent(
                DIMS, seed=300 + m, pretrain_data_seed=400 + m, epochs=20, n_images=100
            )
            for i in range(len(mini_run.triggers)):
                _, _, distances = wm.extract_messages(
                    g, bundle, mini_run.triggers, i, 16, 500 + i
                )
                total_bits += distances.size * n
                matching += int((distances.size * n) - distances.sum())
        rate = matching / total_bits
        # fluctuation is dominated by the fixed random-message realization
        realization_se = 0.5 / np.sqrt(len(mini_run.triggers) * n)
        assert abs(rate - 0.5) <= 4 * realization_se + 0.02

    def test_no_file_access_during_training(self, monkeypatch):
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        atk.make_independent(DIMS, seed=53, pretrain_data_seed=62, epochs=3, n_images=40)
        assert opened == []


def _fixed_omega_spec(monkeypatch, **spec):
    """Make every omega model of a population come from one attack spec."""
    monkeypatch.setattr(
        atk, "_random_omega_spec", lambda rng, seed: atk.AttackSpec(**spec, seed=seed)
    )


class TestPopulation:
    def test_degenerate_omega_spec_is_exact_copy(self, mini_run, monkeypatch):
        _fixed_omega_spec(monkeypatch, kind="prune", fraction=0.0)
        result = atk.sample_model_population(mini_run.bundle, "omega", 1, seed=70)
        assert len(result.models) == 1
        assert (
            result.models[0].parameters_digest()
            == mini_run.bundle.watermarked_f.parameters_digest()
        )

    def test_reproducible_under_master_seed(self, mini_run):
        a = atk.sample_model_population(mini_run.bundle, "omega", 3, seed=71)
        b = atk.sample_model_population(mini_run.bundle, "omega", 3, seed=71)
        assert [m.parameters_digest() for m in a.models] == [
            m.parameters_digest() for m in b.models
        ]
        assert a.rows == b.rows

    def test_xi_population_is_independent_models(self, mini_run):
        result = atk.sample_model_population(mini_run.bundle, "xi", 2, seed=72)
        assert len(result.models) == 2
        assert all(row["kind"] == "independent" for row in result.rows)

    def test_default_mixture_keeps_watermark_retaining_kinds(self, mini_run):
        result = atk.sample_model_population(mini_run.bundle, "omega", 8, seed=77)
        kinds = {row["kind"] for row in result.rows}
        assert kinds <= {"finetune", "prune"}
        assert len(kinds) == 2

    def test_functionality_filter_excludes_wrecked_models(self, mini_run, monkeypatch, caplog):
        # a huge learning rate destroys the embedding function
        _fixed_omega_spec(monkeypatch, kind="finetune", epochs=3, lr=10.0)
        with caplog.at_level(logging.WARNING):
            result = atk.sample_model_population(mini_run.bundle, "omega", 2, seed=73)
        assert result.excluded == 2
        assert len(result.models) == 0
        assert any("excluded" in rec.message for rec in caplog.records)

    def test_omega_models_stay_functional(self, mini_run):
        result = atk.sample_model_population(mini_run.bundle, "omega", 6, seed=74)
        held = gen_synthetic_images(128, MINI["s"], 75)
        for model in result.models:
            err = atk.relative_embedding_error(model, mini_run.bundle.watermarked_f, held)
            assert err < atk.FUNCTIONALITY_LIMIT

    def test_invalid_kind_rejected(self, mini_run):
        with pytest.raises(ValueError):
            atk.sample_model_population(mini_run.bundle, "sigma", 1, seed=76)


def _train_in_pool(dims, seeds, data_seeds, epochs, n_images):
    """Models trained side by side in an IndependentPool of their own."""
    with atk.IndependentPool(len(seeds)) as pool:
        return [get() for get in pool.submit(dims, seeds, data_seeds, epochs, n_images)]


class TestTrainIndependents:
    SEEDS = [90, 91, 92]
    DATA_SEEDS = [95, 96, 97]

    def test_worker_count_does_not_change_models(self, monkeypatch):
        serial = [
            atk.make_independent(DIMS, seed=s, pretrain_data_seed=d, epochs=3, n_images=40)
            .parameters_digest()
            for s, d in zip(self.SEEDS, self.DATA_SEEDS)
        ]
        real = atk.make_independent
        in_parent = []

        def counted(*args, **kwargs):
            in_parent.append(1)  # workers append to their own copy
            return real(*args, **kwargs)

        monkeypatch.setattr(atk, "make_independent", counted)
        for cpus, trained_in_parent in ((1, 3), (2, 0)):
            see_cpus(monkeypatch, cpus)
            in_parent.clear()
            models = _train_in_pool(DIMS, self.SEEDS, self.DATA_SEEDS, 3, 40)
            assert [m.parameters_digest() for m in models] == serial
            assert len(in_parent) == trained_in_parent

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
    def test_population_releases_each_model_once_taken(self, monkeypatch, cpus):
        # the population holds no model it has handed out: once the consumer
        # drops model i, it is gone before model i + 1 is asked for
        see_cpus(monkeypatch, cpus)
        with atk.IndependentPool(3) as pool:
            models = iter(atk.xi_population(pool, DIMS, 90, 3, epochs=1, n_images=20).models)
            for _ in range(3):
                taken = weakref.ref(next(models))
                assert taken() is None
            assert next(models, None) is None

    def test_threaded_process_trains_in_process(self, monkeypatch):
        # BLAS threads in every worker would oversubscribe the cores, and a
        # fork would copy a process whose BLAS threads are running
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made for a process running BLAS threads")

        see_cpus(monkeypatch, 2)
        monkeypatch.setattr(atk, "_running_threads", lambda: 3)
        monkeypatch.setattr(atk, "ProcessPoolExecutor", no_pool)
        models = _train_in_pool(DIMS, self.SEEDS[:2], self.DATA_SEEDS[:2], 1, 20)
        assert len(models) == 2

    def test_pool_leaves_no_thread_behind(self, monkeypatch):
        # a second pipeline run in the same process finds it single-threaded
        # again, and so gets a pool, only if the first run's pool threads are
        # gone (counted as Python threads: OpenBLAS may stop its own at a fork)
        before = threading.active_count()
        monkeypatch.setattr(atk, "_worker_count", lambda jobs: 2)
        _train_in_pool(DIMS, self.SEEDS[:2], self.DATA_SEEDS[:2], 1, 20)
        assert threading.active_count() == before

    def test_worker_value_error_reaches_parent(self, monkeypatch):
        real = atk.gen_synthetic_images

        def poisoned(count, s, seed):
            images = real(count, s, seed)
            return images * np.nan if seed == self.DATA_SEEDS[1] else images

        monkeypatch.setattr(atk, "gen_synthetic_images", poisoned)
        see_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="non-finite"):
            _train_in_pool(DIMS, self.SEEDS, self.DATA_SEEDS, 2, 20)

    def test_dead_worker_breaks_pool_without_hanging(self, monkeypatch):
        def die(*args, **kwargs):
            os._exit(7)

        def timed_out(signum, frame):
            raise TimeoutError("the pool hung after a worker died")

        monkeypatch.setattr(atk, "make_independent", die)
        see_cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                _train_in_pool(DIMS, self.SEEDS, self.DATA_SEEDS, 2, 20)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
