"""Harness tests: synthetic data, config parsing, the pipeline's outputs
and determinism, manifest completeness, and CLI exit codes."""

import hashlib
import json
import multiprocessing
import shutil
import threading

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import cli
from randmark import harness
from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.attacks import AttackSpec
from randmark.harness import (
    ExperimentConfig,
    build_trigger_set,
    population_distances,
    run_pipeline,
    verify_suspect,
)
from randmark.synth import gen_synthetic_images
from randmark.watermark import load_trigger_set

from conftest import see_cpus


def micro_config(**overrides) -> ExperimentConfig:
    base = dict(
        s=16,
        k=6,
        n=8,
        backbone_hidden=(12,),
        encoder_hidden=(16,),
        decoder_hidden=(12,),
        trigger_count=8,
        k_train=4,
        k_verify=8,
        epochs=80,
        pretrain_epochs=5,
        pretrain_images=40,
        tau=2,
        r_bar=6,
        r_under=3,
        m_models=2,
        independents=1,
        seed=31,
        attacks=[("prune20", AttackSpec(kind="prune", fraction=0.2))],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSyntheticImages:
    def test_deterministic_under_seed(self):
        assert np.array_equal(
            gen_synthetic_images(5, 64, 1), gen_synthetic_images(5, 64, 1)
        )

    def test_distinct_images_full_range(self):
        images = gen_synthetic_images(100, 256, 2)
        assert images.shape == (100, 256)
        assert images.min() >= 0.0 and images.max() <= 1.0
        for i in range(0, 99, 7):
            assert np.linalg.norm(images[i] - images[i + 1]) > 0.0
        # every image spans the full intensity range, none constant
        assert np.all(np.ptp(images, axis=1) > 0.5)

    def test_histogram_covers_intensity_range(self):
        images = gen_synthetic_images(100, 256, 3)
        hist, _ = np.histogram(images.ravel(), bins=10, range=(0.0, 1.0))
        assert np.all(hist > 0)

    def test_non_square_dimension_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gen_synthetic_images(3, 15, 4)


class TestBuildTriggerSet:
    def test_messages_balanced(self):
        images = gen_synthetic_images(100, 256, 5)
        triggers = build_trigger_set(images, 32, 0.1, 6)
        pooled = triggers.messages().mean()
        assert 0.45 <= pooled <= 0.55

    def test_zero_sigma_scale_rejected(self):
        images = gen_synthetic_images(4, 16, 7)
        with pytest.raises(ValueError, match="sigma_scale"):
            build_trigger_set(images, 8, 0.0, 8)

    def test_deterministic_under_seed(self):
        images = gen_synthetic_images(4, 16, 9)
        a = build_trigger_set(images, 8, 0.1, 10)
        b = build_trigger_set(images, 8, 0.1, 10)
        for x, y in zip(a.samples, b.samples):
            assert x.message == y.message and x.sigma == y.sigma


class TestConfigFile:
    def test_parse_sections(self, tmp_path):
        text = """
[dims]
s = 16
k = 6
n = 8
backbone_hidden = 12
encoder_hidden = 16
decoder_hidden = 12

[triggers]
trigger_count = 8
sigma_scale = 0.2

[embed]
lam = 2.0
epochs = 9

[verify]
k_verify = 12
tau = 3

[bounds]
alpha = 0.02
m_models = 4

[run]
seed = 99

[attack.pruneheavy]
kind = prune
fraction = 0.4

[attack.ft1]
kind = finetune
epochs = 1
lr = 0.002
"""
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        config = ExperimentConfig.from_file(path)
        assert (config.s, config.k, config.n) == (16, 6, 8)
        assert config.backbone_hidden == (12,)
        assert config.trigger_count == 8
        assert config.sigma_scale == 0.2
        assert config.lam == 2.0 and config.epochs == 9
        assert config.k_verify == 12 and config.tau == 3
        assert config.alpha == 0.02 and config.m_models == 4
        assert config.seed == 99
        names = [name for name, _ in config.attacks]
        assert names == ["pruneheavy", "ft1"]
        assert config.attacks[0][1].fraction == 0.4
        assert config.attacks[1][1].lr == 0.002

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tau=33)


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = micro_config()
    manifest = run_pipeline(config, out)
    return config, out, manifest


class TestPipeline:
    def test_all_stages_complete(self, micro_run):
        _, out, manifest = micro_run
        assert manifest.failures == {}
        for name in (
            "triggers.rmts",
            "bundle/manifest.txt",
            "embed_log.json",
            "sweep.csv",
            "covariance.csv",
            "bound_report.json",
            "manifest.json",
        ):
            assert (out / name).is_file(), name

    def test_trigger_file_loadable(self, micro_run):
        config, out, _ = micro_run
        triggers = load_trigger_set(out / "triggers.rmts")
        assert len(triggers) == config.trigger_count

    def test_manifest_lists_every_file_with_matching_hash(self, micro_run):
        _, out, manifest = micro_run
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest.files) == on_disk
        for rel, digest in manifest.files.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_sweep_covers_all_suspects_and_taus(self, micro_run):
        config, out, _ = micro_run
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        suspects = {line.split(",")[0] for line in lines}
        assert suspects == {"watermarked", "prune20", "independent0"}
        assert len(lines) == len(suspects) * (config.n + 1)

    def test_verification_reports_emitted(self, micro_run):
        _, out, _ = micro_run
        payload = json.loads((out / "verification" / "watermarked.json").read_text())
        assert payload["detection_rate"] >= 0.5
        assert len(payload["rho"]) == 8

    def test_zero_attack_config_keeps_baselines_only(self, tmp_path):
        config = micro_config(attacks=[], bounds_stage=False, seed=32)
        run_pipeline(config, tmp_path / "run")
        lines = (tmp_path / "run" / "sweep.csv").read_text().strip().splitlines()[1:]
        kinds = {line.split(",")[1] for line in lines}
        assert kinds == {"watermarked", "independent"}

    def test_stage_failure_recorded_and_dependents_skipped(self, tmp_path):
        # a fine-tune attack with an absurd learning rate diverges; the
        # failure lands in the manifest and verification never runs
        config = micro_config(
            seed=34,
            bounds_stage=False,
            attacks=[("ftboom", AttackSpec(kind="finetune", epochs=2, lr=1e308))],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            manifest = run_pipeline(config, tmp_path / "run")
        assert "attacks" in manifest.failures
        assert not (tmp_path / "run" / "verification").exists()
        assert (tmp_path / "run" / "manifest.json").is_file()

    def test_reruns_are_byte_identical(self, tmp_path):
        config_a = micro_config(bounds_stage=False, seed=33)
        config_b = micro_config(bounds_stage=False, seed=33)
        run_pipeline(config_a, tmp_path / "a")
        run_pipeline(config_b, tmp_path / "b")
        files_a = sorted(
            p.relative_to(tmp_path / "a")
            for p in (tmp_path / "a").rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        files_b = sorted(
            p.relative_to(tmp_path / "b")
            for p in (tmp_path / "b").rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestPopulationTraining:
    def test_worker_count_does_not_change_outputs(self, monkeypatch, tmp_path):
        config = micro_config(seed=36, independents=2, m_models=3)
        files = []
        for cpus in (1, 2):
            see_cpus(monkeypatch, cpus)
            manifest = run_pipeline(config, tmp_path / f"cpus{cpus}")
            assert manifest.failures == {}
            files.append(manifest.files)
        assert files[0] == files[1]

    def test_xi_population_follows_pretrain_config(self, tmp_path):
        config = micro_config(seed=37, attacks=[], pretrain_epochs=2)
        run_pipeline(config, tmp_path / "run")
        for index in range(config.m_models):
            model_seed = config.seed + 2000 + index
            expected = atk.make_independent(
                config.backbone_dims,
                seed=model_seed,
                pretrain_data_seed=model_seed + 10_000,
                epochs=2,
                n_images=config.pretrain_images,
            )
            saved = ne.load_checkpoint(tmp_path / "run" / "population" / f"xi{index:03d}.rmk")
            assert saved.parameters_digest() == expected.parameters_digest()

    def test_worker_failure_is_an_attacks_stage_failure(self, monkeypatch, tmp_path):
        config = micro_config(seed=38, independents=2, bounds_stage=False)
        real = atk.gen_synthetic_images

        def poisoned(count, s, seed):
            images = real(count, s, seed)
            return images * np.nan if seed == config.seed + 201 else images

        monkeypatch.setattr(atk, "gen_synthetic_images", poisoned)
        see_cpus(monkeypatch, 2)
        manifest = run_pipeline(config, tmp_path / "run")
        assert "non-finite" in manifest.failures["attacks"]
        assert not (tmp_path / "run" / "verification").exists()


    def test_one_pool_trains_every_independent(self, monkeypatch, tmp_path):
        # the suspects' and the xi population's models go to one pool opened
        # before the first stage; only the source backbone trains in-process
        pools, in_parent = [], []
        real_pool, real_train = atk.ProcessPoolExecutor, atk.make_independent

        def counted_pool(*args, **kwargs):
            pools.append(1)
            return real_pool(*args, **kwargs)

        def counted_train(*args, **kwargs):
            in_parent.append(1)  # workers append to their own copy
            return real_train(*args, **kwargs)

        monkeypatch.setattr(atk, "ProcessPoolExecutor", counted_pool)
        monkeypatch.setattr(atk, "make_independent", counted_train)
        monkeypatch.setattr(harness, "make_independent", counted_train)
        see_cpus(monkeypatch, 2)
        manifest = run_pipeline(micro_config(seed=39, independents=2, m_models=3), tmp_path / "run")
        assert manifest.failures == {}
        assert len(pools) == 1
        assert len(in_parent) == 1

    def test_no_bounds_stage_submits_no_xi_jobs(self, monkeypatch, tmp_path):
        submitted = []
        real_submit = atk.IndependentPool.submit

        def recorded(pool, dims, seeds, *args):
            submitted.append(list(seeds))
            return real_submit(pool, dims, seeds, *args)

        monkeypatch.setattr(atk.IndependentPool, "submit", recorded)
        config = micro_config(seed=40, independents=2, bounds_stage=False)
        assert run_pipeline(config, tmp_path / "run").failures == {}
        assert submitted == [[config.seed + 100, config.seed + 101]]

    def test_xi_worker_failure_is_a_bounds_stage_failure(self, monkeypatch, tmp_path):
        config = micro_config(seed=41, m_models=3)
        real = atk.gen_synthetic_images

        def poisoned(count, s, seed):
            images = real(count, s, seed)
            return images * np.nan if seed == config.seed + 2001 + 10_000 else images

        monkeypatch.setattr(atk, "gen_synthetic_images", poisoned)
        see_cpus(monkeypatch, 2)
        manifest = run_pipeline(config, tmp_path / "run")
        assert set(manifest.failures) == {"bounds"}
        assert "non-finite" in manifest.failures["bounds"]
        for name in (
            "suspects/independent0.rmk",
            "verification/watermarked.json",
            "sweep.csv",
            "covariance.csv",
            "population/omega_manifest.json",
            "population/xi000.rmk",
        ):
            assert name in manifest.files, name
        assert "bound_report.json" not in manifest.files

    @pytest.mark.parametrize("failing", ["embed", "attacks", "bounds"])
    def test_failed_run_leaves_no_worker_or_thread(self, monkeypatch, tmp_path, failing):
        learning_rate = 1e200 if failing == "embed" else 2e-3
        config = micro_config(seed=42, independents=2, m_models=3, learning_rate=learning_rate)
        bad_seed = {"attacks": config.seed + 201, "bounds": config.seed + 2001 + 10_000}
        real = atk.gen_synthetic_images

        def poisoned(count, s, seed):
            images = real(count, s, seed)
            return images * np.nan if seed == bad_seed.get(failing) else images

        monkeypatch.setattr(atk, "gen_synthetic_images", poisoned)
        see_cpus(monkeypatch, 2)
        threads = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            manifest = run_pipeline(config, tmp_path / "run")
        assert set(manifest.failures) == {failing}
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


class TestVerifySuspect:
    def test_report_shape(self, mini_run):
        report, batches = verify_suspect(
            mini_run.bundle.watermarked_f,
            mini_run.bundle,
            mini_run.triggers,
            tau=1,
            k_draws=8,
            seed=44,
            suspect_id="self",
        )
        assert len(report.rho) == len(mini_run.triggers)
        assert len(batches) == len(mini_run.triggers)
        assert report.detection_rate == 1.0

    def test_per_trigger_streams_differ(self, mini_run):
        _, batches = verify_suspect(
            mini_run.bundle.watermarked_f, mini_run.bundle, mini_run.triggers,
            tau=1, k_draws=8, seed=45, suspect_id="self",
        )
        seeds = {b.noise_seed for b in batches}
        assert len(seeds) == len(batches)


def _three_suspects(bundle):
    """A watermarked, a pruned and an independent backbone."""
    pruned = atk.apply_attack(bundle, AttackSpec(kind="prune", fraction=0.3))
    independent = ne.init_network([bundle.s, 48, bundle.k], ["tanh", "identity"], 48)
    return [bundle.watermarked_f, pruned, independent]


def _no_stego_work(*args, **kwargs):
    raise AssertionError("stego batch built for a request that should be rejected")


class TestSharedExtraction:
    # At K = 1 a one-trigger extraction runs a one-row suspect product, a
    # different BLAS kernel, so bit identity is claimed for K >= 2 only.
    @pytest.mark.parametrize("k_draws", [2, 8])
    def test_batches_equal_single_trigger_extraction(self, mini_run, k_draws):
        bundle = mini_run.bundle
        for suspect in _three_suspects(bundle):
            _, batches = verify_suspect(
                suspect, bundle, mini_run.triggers, tau=1, k_draws=k_draws, seed=49,
                suspect_id="s",
            )
            for index, (trigger, batch) in enumerate(zip(mini_run.triggers.samples, batches)):
                single = wm.extract_messages(
                    suspect, bundle.encoder_e, bundle.decoder_d, trigger, k_draws,
                    wm.trigger_stream_seed(49, index), delta_scale=bundle.hyper.delta_scale,
                )
                assert np.array_equal(batch.soft_bits, single.soft_bits)
                assert np.array_equal(batch.hard_bits, single.hard_bits)
                assert np.array_equal(batch.distances, single.distances)
                assert batch.noise_seed == single.noise_seed
                assert batch.message == single.message == trigger.message

    @pytest.mark.parametrize("k_draws", [1, 8])
    def test_population_rows_equal_verify_distances(self, mini_run, k_draws):
        bundle = mini_run.bundle
        models = _three_suspects(bundle)
        dists = population_distances(models, bundle, mini_run.triggers, k_draws, 50)
        assert dists.shape == (len(models), len(mini_run.triggers), k_draws)
        for model, row in zip(models, dists):
            _, batches = verify_suspect(
                model, bundle, mini_run.triggers, tau=1, k_draws=k_draws, seed=50,
                suspect_id="s",
            )
            assert np.array_equal(row, np.stack([b.distances for b in batches]))

    def test_wrong_dimensions_refused_before_stego_work(self, mini_run, monkeypatch):
        bundle = mini_run.bundle
        monkeypatch.setattr(wm, "stego_batch", _no_stego_work)
        for dims in ([bundle.s + 1, 8, bundle.k], [bundle.s, 8, bundle.k + 2]):
            wrong = ne.init_network(dims, ["tanh", "identity"], 51)
            with pytest.raises(wm.VerificationRefused):
                verify_suspect(wrong, bundle, mini_run.triggers, 1, 8, 51, "wrong")
            with pytest.raises(wm.VerificationRefused):
                population_distances([wrong], bundle, mini_run.triggers, 8, 51)

    @pytest.mark.parametrize("tau, k_draws", [(-1, 8), (9, 8), (99, 8), (1, 0), (1, -3)])
    def test_out_of_range_tau_and_k_rejected_before_work(self, mini_run, monkeypatch, tau, k_draws):
        monkeypatch.setattr(wm, "stego_batch", _no_stego_work)
        bundle = mini_run.bundle  # n = 8
        with pytest.raises(ValueError):
            verify_suspect(bundle.watermarked_f, bundle, mini_run.triggers, tau, k_draws, 52, "s")


def _write_micro_cfg(path, trigger_count=8, r_bar=6, r_under=3):
    path.write_text(f"""
[dims]
s = 16
k = 6
n = 8
backbone_hidden = 12
encoder_hidden = 16
decoder_hidden = 12

[triggers]
trigger_count = {trigger_count}

[verify]
k_verify = 4
tau = 2

[bounds]
m_models = 2
r_bar = {r_bar}
r_under = {r_under}

[run]
seed = 31
""")
    return path


class TestCli:
    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify"])  # missing required flags
        assert info.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["definitely-not-a-command"])
        assert info.value.code == 1

    def test_verify_refuses_dimension_mismatch(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        wrong = ne.init_network([17, 6, 6], ["tanh", "identity"], 46)
        suspect_path = tmp_path / "wrong.rmk"
        ne.save_checkpoint(wrong, suspect_path)
        code = cli.main([
            "verify",
            "--suspect", str(suspect_path),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--tau", "2",
            "--K", "4",
        ])
        assert code == cli.EXIT_REFUSED
        assert "refused" in capsys.readouterr().err

    def test_verify_rejects_tau_above_n(self, micro_run, capsys):
        _, out, _ = micro_run  # n = 8
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--tau", "99",
            "--K", "4",
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "tau must lie in [0, 8]" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, line, message", [
        ("k_train", None, "missing key 'k_train'"),
        ("epochs", "epochs=ten", "epochs='ten' is not a finite int"),
        ("lambda", "lambda=nan", "lambda='nan' is not a finite float"),
    ])
    def test_verify_rejects_malformed_bundle_manifest(
        self, micro_run, tmp_path, capsys, key, line, message
    ):
        _, out, _ = micro_run
        bundle = tmp_path / "bundle"
        shutil.copytree(out / "bundle", bundle)
        text = (bundle / "manifest.txt").read_text()
        lines = [kept for kept in text.splitlines() if not kept.startswith(f"{key}=")]
        if line:
            lines.append(line)
        (bundle / "manifest.txt").write_text("\n".join(lines) + "\n")
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(bundle),
            "--triggers", str(out / "triggers.rmts"),
            "--tau", "2",
            "--K", "4",
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "manifest.txt" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["header", "sigma"])
    def test_verify_rejects_truncated_trigger_file(self, micro_run, tmp_path, capsys, where):
        _, out, _ = micro_run
        data = (out / "triggers.rmts").read_bytes()
        s = int.from_bytes(data[10:14], "little")
        cut = 10 if where == "header" else 26 + 8 * s + 4  # inside the first sigma
        triggers = tmp_path / "cut.rmts"
        triggers.write_bytes(data[:cut])
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(triggers),
            "--tau", "2",
            "--K", "4",
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "truncated trigger-set" in err and "Traceback" not in err

    def test_verify_succeeds_on_matching_suspect(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--tau", "2",
            "--K", "4",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["suspect_id"] == "watermarked"

    def test_bounds_inapplicable_exits_three(self, micro_run, tmp_path):
        config, out, _ = micro_run
        # r_bar = N makes the lower-side precondition impossible
        cfg_path = _write_micro_cfg(tmp_path / "na.cfg", r_bar=config.trigger_count)
        code = cli.main([
            "bounds",
            "--config", str(cfg_path),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code == cli.EXIT_BOUND_NA

    def test_bounds_from_population_directories(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        omega_dir = tmp_path / "omega"
        xi_dir = tmp_path / "xi"
        omega_dir.mkdir()
        xi_dir.mkdir()
        (omega_dir / "copy.rmk").write_bytes(
            (out / "suspects" / "watermarked.rmk").read_bytes()
        )
        (xi_dir / "indep.rmk").write_bytes(
            (out / "suspects" / "independent0.rmk").read_bytes()
        )
        cfg = _write_micro_cfg(tmp_path / "micro.cfg")
        code = cli.main([
            "bounds",
            "--config", str(cfg),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--population-omega", str(omega_dir),
            "--population-xi", str(xi_dir),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code in (cli.EXIT_OK, cli.EXIT_BOUND_NA)
        payload = json.loads((tmp_path / "bounds_out" / "bound_report.json").read_text())
        assert len(payload["l"]) == 8

    def test_bounds_refuses_wrong_shape_population_model(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        omega_dir, xi_dir = tmp_path / "omega", tmp_path / "xi"
        omega_dir.mkdir()
        xi_dir.mkdir()
        ne.save_checkpoint(ne.init_network([17, 6, 6], ["tanh", "identity"], 53), omega_dir / "w.rmk")
        (xi_dir / "indep.rmk").write_bytes((out / "suspects" / "independent0.rmk").read_bytes())
        code = cli.main([
            "bounds",
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--population-omega", str(omega_dir),
            "--population-xi", str(xi_dir),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code == cli.EXIT_REFUSED
        assert "verification refused" in capsys.readouterr().err

    def test_bounds_from_estimates_file(self, micro_run, tmp_path):
        _, out, _ = micro_run
        estimates = {
            "p_hat": 1.0,
            "q_hat": 0.125,
            "omega": [
                {"trigger_id": i, "matches": 60, "trials": 64} for i in range(8)
            ],
            "xi": [{"trigger_id": i, "matches": 33, "trials": 64} for i in range(8)],
        }
        path = tmp_path / "estimates.json"
        path.write_text(json.dumps(estimates))
        cfg = _write_micro_cfg(tmp_path / "micro.cfg")
        code = cli.main([
            "bounds",
            "--config", str(cfg),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--estimates", str(path),
            "--out", str(tmp_path / "bounds_est"),
        ])
        assert code in (cli.EXIT_OK, cli.EXIT_BOUND_NA)
        payload = json.loads((tmp_path / "bounds_est" / "bound_report.json").read_text())
        assert payload["p_hat"] == 1.0

    def test_population_follows_pretrain_config(self, micro_run, tmp_path):
        _, out, _ = micro_run
        cfg = _write_micro_cfg(tmp_path / "micro.cfg")
        cfg.write_text(cfg.read_text() + "\n[embed]\npretrain_epochs = 2\npretrain_images = 30\n")
        code = cli.main([
            "population",
            "--config", str(cfg),
            "--bundle", str(out / "bundle"),
            "--kind", "xi",
            "--M", "1",
            "--out", str(tmp_path / "xi"),
        ])
        assert code == cli.EXIT_OK
        expected = atk.make_independent(
            [16, 12, 6], seed=31, pretrain_data_seed=10_031, epochs=2, n_images=30
        )
        saved = ne.load_checkpoint(tmp_path / "xi" / "xi000.rmk")
        assert saved.parameters_digest() == expected.parameters_digest()

    def test_oracle_emits_json(self, capsys):
        code = cli.main([
            "oracle", "binomial-tail", "--n", "32", "--tau", "5", "--r", "0.5"
        ])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["method"] == "exact-integer"
        assert payload["value"] == pytest.approx(242825 / 2**32, rel=1e-12)

    def test_report_summarizes_run(self, micro_run, capsys):
        _, out, _ = micro_run
        code = cli.main(["report", "--run", str(out)])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "watermarked" in text and "bounds" in text
