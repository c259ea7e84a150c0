"""Harness tests: synthetic data, config parsing, the pipeline's outputs
and determinism, manifest completeness, and CLI exit codes."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import shutil
import struct
import threading
from pathlib import Path

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

from conftest import one_trigger, see_cpus


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

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_rejected(self, count):
        with pytest.raises(ValueError, match="count must be positive"):
            gen_synthetic_images(count, 16, 4)

    @pytest.mark.parametrize("count, s, seed", [(1, 4, 0), (7, 9, 3), (400, 256, 2024)])
    def test_bytes_match_per_image_loop(self, count, s, seed):
        expected = _per_image_synthetic_images(count, s, seed)
        images = gen_synthetic_images(count, s, seed)
        assert images.shape == expected.shape and images.dtype == expected.dtype
        assert images.tobytes() == expected.tobytes()


def _per_image_synthetic_images(count, s, seed):
    """Reference for gen_synthetic_images: one image at a time, each
    sinusoid's parameters drawn by four scalar rng.uniform calls."""
    side = math.isqrt(s)
    rng = np.random.default_rng(seed)
    u, v = np.meshgrid(
        np.linspace(0.0, 1.0, side, endpoint=False),
        np.linspace(0.0, 1.0, side, endpoint=False),
        indexing="ij",
    )
    images = np.empty((count, s))
    for i in range(count):
        canvas = np.zeros((side, side))
        for _ in range(4):
            freq = rng.uniform(0.5, 4.0)
            theta = rng.uniform(0.0, math.pi)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            amp = rng.uniform(0.3, 1.0)
            canvas += amp * np.sin(
                2.0 * math.pi * freq * (math.cos(theta) * u + math.sin(theta) * v)
                + phase
            )
        canvas += 0.15 * rng.standard_normal((side, side))
        lo, hi = canvas.min(), canvas.max()
        images[i] = ((canvas - lo) / (hi - lo)).ravel()
    return images


class TestBuildTriggerSet:
    def test_messages_balanced(self):
        images = gen_synthetic_images(100, 256, 5)
        triggers = build_trigger_set(images, 32, 0.1, 6)
        pooled = triggers.messages.mean()
        assert 0.45 <= pooled <= 0.55

    def test_zero_sigma_scale_rejected(self):
        images = gen_synthetic_images(4, 16, 7)
        with pytest.raises(ValueError, match="sigma_scale"):
            build_trigger_set(images, 8, 0.0, 8)

    def test_deterministic_under_seed(self):
        images = gen_synthetic_images(4, 16, 9)
        a = build_trigger_set(images, 8, 0.1, 10)
        b = build_trigger_set(images, 8, 0.1, 10)
        assert np.array_equal(a.messages, b.messages)
        assert np.array_equal(a.sigmas, b.sigmas)


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
r_bar = 6
r_under = 3

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

    @pytest.mark.parametrize("settings, overrides, field", [
        (ExperimentConfig, dict(pretrain_images=0), "pretrain_images"),
        (ExperimentConfig, dict(pretrain_epochs=-1), "pretrain_epochs"),
        (ExperimentConfig, dict(learning_rate=-1.0), "learning_rate"),
        (ExperimentConfig, dict(learning_rate=float("nan")), "learning_rate"),
        (ExperimentConfig, dict(lam=float("nan")), "lambda"),
        (ExperimentConfig, dict(lam=float("inf")), "lambda"),
        (ExperimentConfig, dict(delta_scale=float("inf")), "delta_scale"),
        (ExperimentConfig, dict(delta_scale=float("nan")), "delta_scale"),
        (wm.HyperParams, dict(weight_decay=-1.0), "weight_decay"),
        (wm.HyperParams, dict(weight_decay=float("nan")), "weight_decay"),
    ], ids=["pretrain_images-zero", "pretrain_epochs-negative", "learning_rate-negative",
            "learning_rate-nan", "lam-nan", "lam-inf", "delta_scale-inf", "delta_scale-nan",
            "weight_decay-negative", "weight_decay-nan"])
    def test_training_settings_checked_at_construction(self, settings, overrides, field):
        with pytest.raises(ValueError, match=field):
            settings(**overrides)

    @pytest.mark.parametrize("overrides, field", [
        (dict(backbone_hidden=(0,)), "backbone_hidden"),
        (dict(backbone_hidden=(-4,)), "backbone_hidden"),
        (dict(encoder_hidden=(16, 0)), "encoder_hidden"),
        (dict(decoder_hidden=(0,)), "decoder_hidden"),
    ], ids=["backbone-zero", "backbone-negative", "encoder-second-zero", "decoder-zero"])
    def test_hidden_widths_checked_at_construction(self, overrides, field):
        with pytest.raises(ValueError, match=f"{field} widths must be at least 1"):
            ExperimentConfig(**overrides)

    def test_empty_encoder_hidden_is_legal(self, tmp_path):
        assert ExperimentConfig(encoder_hidden=()).encoder_hidden == ()
        path = tmp_path / "exp.cfg"
        path.write_text("[dims]\nencoder_hidden =\n")
        assert ExperimentConfig.from_file(path).encoder_hidden == ()

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tau=33)

    @pytest.mark.parametrize("overrides, field", [
        (dict(r_bar=101), "r_bar"),
        (dict(r_under=75), "r_under"),
        (dict(r_under=0), "r_under"),
        (dict(alpha=0.0), "alpha"),
        (dict(alpha=1.0), "alpha"),
        (dict(delta=0.0), "delta"),
        (dict(delta=1.5), "delta"),
        (dict(independents=-1), "independents"),
    ], ids=["r_bar-above-N", "r_under-at-r_bar", "r_under-zero", "alpha-zero", "alpha-one",
            "delta-zero", "delta-above-one", "independents-negative"])
    def test_bound_settings_checked_at_construction(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize("text, message", [
        ("[bounds]\nm_model = 10\n", "unknown key 'm_model' in [bounds]"),
        ("[bound]\nm_models = 10\n", "unknown section [bound]"),
        ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
        ("[attack.p]\nkind = prune\nfracton = 0.3\n", "unknown key 'fracton' in [attack.p]"),
        ("[bounds]\nbounds_stage = false\n", "unknown key 'bounds_stage' in [bounds]"),
        ("[run]\nseed = twelve\n", "[run] seed"),
        ("[bounds]\nr_bar = 101\n", "r_bar"),
        ("[attack.p]\nfraction = 0.3\n", "[attack.p] needs a kind"),
        ("[embed]\nlearning_rate = -1\n", "learning_rate must be positive and finite"),
        ("[embed]\npretrain_images = 0\n", "pretrain_images must be positive"),
        ("[attack.f]\nkind = finetune\nlr = -5\n", "lr must be positive and finite"),
        ("[dims]\nbackbone_hidden = 0\n", "backbone_hidden widths must be at least 1"),
        ("[dims]\nbackbone_hidden = -4\n", "backbone_hidden widths must be at least 1"),
        ("[dims]\ndecoder_hidden = 12,0\n", "decoder_hidden widths must be at least 1"),
        ("[dims]\ns = 250\n", "s must be a perfect square"),
        ("[triggers]\nsigma_scale = -1\n", "sigma_scale must be positive and finite"),
        ("[triggers]\nsigma_scale = nan\n", "sigma_scale must be positive and finite"),
        ("[attack.watermarked]\nkind = prune\n", "'watermarked' is another suspect's name"),
        ("[attack.independent4]\nkind = prune\n", "'independent4' is another suspect's name"),
        ("[attack.../../escaped]\nkind = prune\n", "'../../escaped' is not a file stem"),
        ("[attack.i]\nkind = independent\n", "kind must be one of ('finetune', 'prune', 'distill')"),
        ("seed = 3\n", "no section headers"),
        ("[run]\nseed = 1\n[run]\nseed = 2\n", "section 'run' already exists"),
        ("[run]\nseed = -5\n", "seed must not be negative"),
    ], ids=["unknown-key", "unknown-section", "default-section", "unknown-attack-key",
            "bounds-stage-removed", "unparsable-value", "out-of-range", "attack-without-kind",
            "embed-lr-negative", "pretrain-images-zero", "attack-lr-negative",
            "backbone-width-zero", "backbone-width-negative", "decoder-width-zero",
            "s-not-square", "sigma-scale-negative", "sigma-scale-nan",
            "attack-named-watermarked", "attack-named-independent", "attack-name-escapes",
            "attack-kind-independent", "no-section-header", "repeated-section", "seed-negative"])
    def test_bad_config_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_file(path)
        assert str(path) in str(info.value) and message in str(info.value)

    def test_repeated_attack_name_rejected(self):
        spec = AttackSpec(kind="prune", fraction=0.2)
        with pytest.raises(ValueError, match="'p' is another suspect's name"):
            ExperimentConfig(attacks=[("p", spec), ("p", spec)])
        # independent<i> is taken only for the i the run has
        assert ExperimentConfig(independents=0, attacks=[("independent0", spec)])

    def test_every_field_in_exactly_one_section(self):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "attacks"]
        keys = [key for section in harness._SECTIONS.values() for key in section]
        assert sorted(keys) == sorted(fields)

    def test_file_setting_every_field_reads_back_equal(self, tmp_path):
        config = ExperimentConfig(
            s=64, k=7, n=9, backbone_hidden=(11, 13), encoder_hidden=(), decoder_hidden=(5,),
            trigger_count=20, sigma_scale=0.3, lam=1.5, k_train=3, k_verify=10, epochs=4,
            learning_rate=3e-3, delta_scale=0.25, pretrain_epochs=0, pretrain_images=30,
            tau=4, alpha=0.05, delta=0.5, r_bar=12, r_under=6, m_models=3, independents=2,
            seed=17,
            attacks=[("ft-2", AttackSpec(kind="finetune", epochs=2, lr=5e-4)),
                     ("d_1", AttackSpec(kind="distill", epochs=1, lr=0.01, fraction=0.5))],
        )
        assert config != ExperimentConfig()

        def text(value):
            return ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)

        lines = []
        for section, keys in harness._SECTIONS.items():
            lines += [f"[{section}]"] + [f"{key} = {text(getattr(config, key))}" for key in keys]
        for name, spec in config.attacks:
            lines += [f"[attack.{name}]", f"kind = {spec.kind}"]
            lines += [f"{key} = {getattr(spec, key)!r}" for key in ("epochs", "lr", "fraction")]
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert ExperimentConfig.from_file(path) == config

    def test_pipeline_with_bad_config_exits_1_before_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started")

        monkeypatch.setattr(cli, "run_pipeline", no_work)
        path = tmp_path / "exp.cfg"
        path.write_text("[bounds]\nr_bar = 101\n")
        code = cli.main(["pipeline", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and "r_bar" in err and "Traceback" not in err


# The micro run's files that carry its decisions: what was verified, how, and
# what was decided and bounded.
DECISION_FILES = (
    "triggers.rmts", "bundle/manifest.txt", "verification/watermarked.json",
    "verification/prune20.json", "verification/independent0.json", "sweep.csv",
    "covariance.csv", "bound_report.json", "population/omega_manifest.json",
    "population/xi_manifest.json",
)


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

    def test_output_bytes_pinned(self, micro_run):
        # every file of the run, from training through decoding, verification,
        # covariance and bounds: a change to any rounding step or random draw
        # on those paths shows here
        _, _, manifest = micro_run
        assert len(manifest.files) == 22
        files = json.dumps(manifest.files, sort_keys=True).encode()
        assert hashlib.sha256(files).hexdigest() == (
            "c80da44b7eb7c93a3068137232fba195cd124ebc29ff655864b70e61ee639499"
        )

    def test_decision_bytes_pinned(self, micro_run):
        # the files that carry the run's decisions; a BLAS kernel that sums in
        # another order moves the checkpoints' and the embed log's last bits
        # but, at this config, none of these (the same bytes under OpenBLAS's
        # SkylakeX, Haswell and Sandybridge kernels), so this pin holds on any
        _, _, manifest = micro_run
        decisions = {name: manifest.files[name] for name in DECISION_FILES}
        files = json.dumps(decisions, sort_keys=True).encode()
        assert hashlib.sha256(files).hexdigest() == (
            "c5aa85f047cc9523d72aebe6f1e921150a370ceb0f398aedfb6ffe8ca8bd96f5"
        )

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
        config = micro_config(attacks=[], seed=32)
        run_pipeline(config, tmp_path / "run")
        lines = (tmp_path / "run" / "sweep.csv").read_text().strip().splitlines()[1:]
        kinds = {line.split(",")[1] for line in lines}
        assert kinds == {"watermarked", "independent"}

    def test_stage_failure_recorded_and_dependents_skipped(self, tmp_path):
        # a fine-tune attack with an absurd learning rate diverges; the
        # failure lands in the manifest and verification never runs
        config = micro_config(
            seed=34,
            attacks=[("ftboom", AttackSpec(kind="finetune", epochs=2, lr=1e308))],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            manifest = run_pipeline(config, tmp_path / "run")
        assert "attacks" in manifest.failures
        assert not (tmp_path / "run" / "verification").exists()
        assert (tmp_path / "run" / "manifest.json").is_file()

    def test_embed_log_holds_the_epochs_alone(self, micro_run):
        config, out, _ = micro_run
        log = json.loads((out / "embed_log.json").read_text())
        assert set(log) == {"epochs"} and len(log["epochs"]) == config.epochs

    def test_embed_divergence_recorded_in_manifest_failures(self, tmp_path):
        # a diverged embed writes no embed_log.json; the manifest says why
        config = micro_config(seed=43, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            manifest = run_pipeline(config, tmp_path / "run")
        assert set(manifest.failures) == {"embed"}
        assert "non-finite loss at epoch" in manifest.failures["embed"]
        assert set(manifest.stage_seconds) == {"data"}
        assert not (tmp_path / "run" / "embed_log.json").exists()
        written = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert written["failures"] == manifest.failures

    def test_data_stage_failure_recorded_and_later_stages_skipped(self, tmp_path):
        (tmp_path / "run" / "triggers.rmts").mkdir(parents=True)
        manifest = run_pipeline(micro_config(seed=35), tmp_path / "run")
        assert set(manifest.failures) == {"data"}
        assert set(manifest.stage_seconds) == set()
        assert manifest.files == {}
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["failures"] == {
            "data": manifest.failures["data"]
        }

    def test_reruns_are_byte_identical(self, tmp_path):
        config_a = micro_config(seed=33)
        config_b = micro_config(seed=33)
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
        config = micro_config(seed=38, independents=2)
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

    def test_run_submits_independents_then_xi_seeds(self, monkeypatch, tmp_path):
        submitted = []
        real_submit = atk.IndependentPool.submit

        def recorded(pool, dims, seeds, *args):
            submitted.append(list(seeds))
            return real_submit(pool, dims, seeds, *args)

        monkeypatch.setattr(atk.IndependentPool, "submit", recorded)
        config = micro_config(seed=40, independents=2)
        assert run_pipeline(config, tmp_path / "run").failures == {}
        xi = [config.seed + 2000 + index for index in range(config.m_models)]
        assert submitted == [[config.seed + 100, config.seed + 101], xi]

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
        report, distances = verify_suspect(
            mini_run.bundle.watermarked_f,
            mini_run.bundle,
            mini_run.triggers,
            tau=1,
            k_draws=8,
            seed=44,
            suspect_id="self",
        )
        assert len(report.rho) == len(mini_run.triggers)
        assert distances.shape == (len(mini_run.triggers), 8)
        assert (report.n, report.k_draws) == (mini_run.triggers.n, 8)
        assert report.detection_rate == 1.0

    def test_per_trigger_streams_differ(self, mini_run):
        # trigger i's row is decoded with stream seed seed XOR i (checked
        # against extract_messages in TestSharedExtraction)
        n_trig = len(mini_run.triggers)
        seeds = {wm.trigger_stream_seed(45, index) for index in range(n_trig)}
        assert len(seeds) == n_trig


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
            soft, hard, distances = wm.decode_triggers(
                suspect, bundle, mini_run.triggers, k_draws, 49
            )
            _, verified = verify_suspect(
                suspect, bundle, mini_run.triggers, tau=1, k_draws=k_draws, seed=49,
                suspect_id="s",
            )
            assert np.array_equal(verified, distances)
            for index, message in enumerate(mini_run.triggers.messages):
                single = wm.extract_messages(
                    suspect, bundle, mini_run.triggers, index, k_draws,
                    wm.trigger_stream_seed(49, index),
                )
                assert np.array_equal(soft[index], single[0])
                assert np.array_equal(hard[index], single[1])
                assert np.array_equal(distances[index], single[2])
                assert np.array_equal(
                    distances[index], (hard[index] != message).sum(axis=1)
                )

    @pytest.mark.parametrize("k_draws", [1, 8])
    def test_population_rows_equal_verify_distances(self, mini_run, k_draws):
        bundle = mini_run.bundle
        models = _three_suspects(bundle)
        dists = population_distances(models, bundle, mini_run.triggers, k_draws, 50)
        assert dists.shape == (len(models), len(mini_run.triggers), k_draws)
        for model, row in zip(models, dists):
            _, distances = verify_suspect(
                model, bundle, mini_run.triggers, tau=1, k_draws=k_draws, seed=50,
                suspect_id="s",
            )
            assert np.array_equal(row, distances)

    def test_wrong_dimensions_refused_before_stego_work(self, mini_run, monkeypatch):
        bundle = mini_run.bundle
        monkeypatch.setattr(wm, "stego_batch", _no_stego_work)
        for dims in ([bundle.s + 1, 8, bundle.k], [bundle.s, 8, bundle.k + 2]):
            wrong = ne.init_network(dims, ["tanh", "identity"], 51)
            with pytest.raises(wm.VerificationRefused):
                verify_suspect(wrong, bundle, mini_run.triggers, 1, 8, 51, "wrong")
            with pytest.raises(wm.VerificationRefused):
                population_distances([wrong], bundle, mini_run.triggers, 8, 51)

    def test_trigger_set_other_than_bundle_rejected_before_stego_work(self, mini_run, monkeypatch):
        bundle = mini_run.bundle
        monkeypatch.setattr(wm, "stego_batch", _no_stego_work)
        for s, n in ((bundle.s + 1, bundle.n), (bundle.s, bundle.n + 1)):
            with pytest.raises(ValueError, match=f"trigger set has s = {s}, n = {n}"):
                wm.decode_triggers(bundle.watermarked_f, bundle, one_trigger(s, n, 0.1, 54), 4, 54)

    @pytest.mark.parametrize("tau, k_draws", [(-1, 8), (9, 8), (99, 8), (1, 0), (1, -3)])
    def test_out_of_range_tau_and_k_rejected_before_work(self, mini_run, monkeypatch, tau, k_draws):
        monkeypatch.setattr(wm, "stego_batch", _no_stego_work)
        bundle = mini_run.bundle  # n = 8
        with pytest.raises(ValueError):
            verify_suspect(bundle.watermarked_f, bundle, mini_run.triggers, tau, k_draws, 52, "s")


# micro_config() as a config file, for the commands that redo its stages.
MICRO_CFG = """
[dims]
s = 16
k = 6
n = 8
backbone_hidden = 12
encoder_hidden = 16
decoder_hidden = 12

[triggers]
trigger_count = 8

[embed]
k_train = 4
epochs = 80
pretrain_epochs = 5
pretrain_images = 40

[verify]
k_verify = 8
tau = 2

[bounds]
r_bar = 6
r_under = 3
m_models = 2

[run]
seed = 31
independents = 1

[attack.prune20]
kind = prune
fraction = 0.2
"""


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


def _estimates(p_hat=1.0, matches=60, trials=64) -> dict:
    """An estimates payload over 8 triggers whose first omega row holds the
    given matches and trials."""
    omega = [{"trigger_id": i, "matches": 60, "trials": 64} for i in range(8)]
    omega[0] = {"trigger_id": 0, "matches": matches, "trials": trials}
    xi = [{"trigger_id": i, "matches": 33, "trials": 64} for i in range(8)]
    return {"p_hat": p_hat, "q_hat": 0.0, "omega": omega, "xi": xi}


class TestCli:
    def test_micro_cfg_is_micro_config(self, tmp_path):
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG)
        assert ExperimentConfig.from_file(cfg) == micro_config()

    def test_attack_reproduces_run_suspects(self, tmp_path):
        # a run of the micro config with a fine-tune attack added: given that
        # config, `attack --name` rewrites each of the run's suspects byte for byte
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG + "\n[attack.finetune2]\nkind = finetune\nepochs = 2\n")
        run, redo = tmp_path / "run", tmp_path / "redo"
        assert cli.main(["pipeline", "--config", str(cfg), "--seed", "47", "--out", str(run)]) == 0
        redo.mkdir()
        for name in ("prune20", "finetune2"):
            code = cli.main([
                "attack", "--config", str(cfg), "--bundle", str(run / "bundle"),
                "--name", name, "--out", str(redo / f"{name}.rmk"),
            ])
            assert code == cli.EXIT_OK
            expected = (run / "suspects" / f"{name}.rmk").read_bytes()
            assert (redo / f"{name}.rmk").read_bytes() == expected, name

    def test_verify_reproduces_pipeline_report(self, micro_run, tmp_path):
        # `verify --config --seed S` decides at the config's tau and K with the
        # pipeline's verification seed, on every suspect of the run
        config, out, _ = micro_run
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG)
        suspects = sorted((out / "suspects").iterdir())
        assert len(suspects) == 3  # watermarked, prune20 and one independent
        for suspect in suspects:
            code = cli.main([
                "verify", "--config", str(cfg), "--seed", str(config.seed),
                "--suspect", str(suspect),
                "--bundle", str(out / "bundle"),
                "--triggers", str(out / "triggers.rmts"),
                "--out", str(tmp_path / f"{suspect.stem}.json"),
            ])
            assert code == cli.EXIT_OK
            expected = (out / "verification" / f"{suspect.stem}.json").read_bytes()
            assert (tmp_path / f"{suspect.stem}.json").read_bytes() == expected, suspect.name

    def test_population_reproduces_run_population(self, micro_run, tmp_path):
        # `population --seed S` samples the config's M models with run S's
        # omega and xi master seeds
        config, out, _ = micro_run
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG)
        for kind in ("omega", "xi"):
            code = cli.main([
                "population", "--config", str(cfg), "--seed", str(config.seed),
                "--bundle", str(out / "bundle"), "--kind", kind,
                "--out", str(tmp_path / kind),
            ])
            assert code == cli.EXIT_OK
            names = sorted(path.name for path in (out / "population").glob(f"{kind}*"))
            assert len(names) == config.m_models + 1  # the models and a manifest
            assert sorted(path.name for path in (tmp_path / kind).iterdir()) == names
            for name in names:
                written = (tmp_path / kind / name).read_bytes()
                assert written == (out / "population" / name).read_bytes(), name
        # each xi row says how its model was trained
        rows = json.loads((out / "population" / "xi_manifest.json").read_text())["models"]
        assert [
            (row["seed"], row["data_seed"], row["pretrain_epochs"], row["pretrain_images"])
            for row in rows
        ] == [
            (config.seeds.xi + i, config.seeds.xi + i + 10_000, config.pretrain_epochs,
             config.pretrain_images)
            for i in range(config.m_models)
        ]

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
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
        ])
        assert code == cli.EXIT_REFUSED
        assert "refused" in capsys.readouterr().err

    def test_verify_rejects_tau_above_n(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run  # n = 8
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("\ntau = 2\n", "\ntau = 99\n"))
        code = cli.main([
            "verify", "--config", str(cfg),
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "tau must lie in [0, n]" in err and "Traceback" not in err

    def test_verify_rejects_config_n_other_than_triggers(self, micro_run, tmp_path, capsys):
        # the check compute_bound_report makes, so verify decides at the
        # settings its bound was computed at
        _, out, _ = micro_run  # n = 8
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("\nn = 8\n", "\nn = 32\n"))
        code = cli.main([
            "verify", "--config", str(cfg),
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config n = 32" in err and "8-bit messages" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, line, message", [
        ("k_train", None, "missing key 'k_train'"),
        ("weight_decay", None, "missing key 'weight_decay'"),
        (None, "n=99", "repeated key 'n'"),
        (None, "bogus=1", "unknown key 'bogus'"),
        (None, "not a key line", "line 'not a key line' is not key=value"),
        ("epochs", "epochs=ten", "epochs='ten' is not a finite int"),
        ("lambda", "lambda=nan", "lambda='nan' is not a finite float"),
        ("learning_rate", "learning_rate=-1", "learning_rate must be positive and finite"),
        ("s", None, "missing key 's'"),
        ("k", None, "missing key 'k'"),
        ("n", None, "missing key 'n'"),
        ("s", "s=zzz", "s='zzz' is not a finite int"),
        ("s", "s=17", "s=17 does not match the networks' 16"),
        ("k", "k=7", "k=7 does not match the networks' 6"),
        ("n", "n=99", "n=99 does not match the networks' 8"),
    ])
    def test_verify_rejects_malformed_bundle_manifest(
        self, micro_run, tmp_path, capsys, key, line, message
    ):
        _, out, _ = micro_run
        bundle = tmp_path / "bundle"
        shutil.copytree(out / "bundle", bundle)
        text = (bundle / "manifest.txt").read_text()
        lines = [line] if line else []
        lines += [kept for kept in text.splitlines() if not kept.startswith(f"{key}=")]
        (bundle / "manifest.txt").write_text("\n".join(lines) + "\n")
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(bundle),
            "--triggers", str(out / "triggers.rmts"),
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
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
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "truncated trigger-set" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["pixel", "sigma"])
    def test_verify_rejects_non_finite_trigger_file(self, micro_run, tmp_path, capsys, field):
        _, out, _ = micro_run
        data = bytearray((out / "triggers.rmts").read_bytes())
        s = int.from_bytes(data[10:14], "little")
        # the first trigger's first pixel, or its sigma
        offset = 26 if field == "pixel" else 26 + 8 * s
        data[offset : offset + 8] = struct.pack("<d", float("nan" if field == "pixel" else "inf"))
        triggers = tmp_path / "bad.rmts"
        triggers.write_bytes(bytes(data))
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(triggers),
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_gen_data_and_embed_match_pipeline(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "t.rmts")]) == 0
        assert (tmp_path / "t.rmts").read_bytes() == (out / "triggers.rmts").read_bytes()
        assert cli.main(["embed", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        names = ["triggers.rmts", "embed_log.json"] + [
            str(path.relative_to(out)) for path in sorted((out / "bundle").iterdir())
        ]
        assert len(names) == 7
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (out / name).read_bytes(), name
        assert "embedded: bit_accuracy=" in capsys.readouterr().out

    def test_embed_divergence_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("[embed]", "[embed]\nlearning_rate = 1e200"))
        with np.errstate(all="ignore"):
            code = cli.main(["embed", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "bundle").exists()

    def test_attack_divergence_exits_1(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG + "\n[attack.ftboom]\nkind = finetune\nepochs = 3\nlr = 1e200\n")
        with np.errstate(all="ignore"):
            code = cli.main([
                "attack", "--config", str(cfg), "--bundle", str(out / "bundle"),
                "--name", "ftboom", "--out", str(tmp_path / "ft.rmk"),
            ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "fine-tuning diverged" in err and "Traceback" not in err
        assert not (tmp_path / "ft.rmk").exists()

    @pytest.mark.parametrize("kind, lr", [("finetune", "-5"), ("distill", "-1")])
    def test_attack_rejects_non_positive_lr(self, micro_run, tmp_path, capsys, kind, lr):
        _, out, _ = micro_run
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG + f"\n[attack.bad]\nkind = {kind}\nepochs = 3\nlr = {lr}\n")
        code = cli.main([
            "attack", "--config", str(cfg), "--bundle", str(out / "bundle"),
            "--name", "bad", "--out", str(tmp_path / "attacked.rmk"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "lr must be positive and finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "attacked.rmk").exists()

    def test_attack_unknown_name_exits_1_listing_config_names(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        code = cli.main([
            "attack", "--bundle", str(out / "bundle"), "--name", "prune99",
            "--out", str(tmp_path / "attacked.rmk"),
        ])  # the default config's attacks
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "no attack 'prune99'" in err and "prune20, prune40, finetune3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "attacked.rmk").exists()

    def test_verify_succeeds_on_matching_suspect(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        code = cli.main([
            "verify",
            "--suspect", str(out / "suspects" / "watermarked.rmk"),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
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

    @pytest.mark.parametrize("payload, message", [
        ({}, "missing key 'omega'"),
        ({"p_hat": 1.0, "q_hat": 0.0, "omega": [], "xi": []}, "population 'omega' is empty"),
        (
            {"p_hat": 1.0, "q_hat": 0.0, "omega": [{"trigger_id": 0, "trials": 64}], "xi": []},
            "missing key 'matches' in omega row 0",
        ),
        (
            {
                "p_hat": 1.0, "q_hat": 0.0,
                "omega": [{"trigger_id": 0, "matches": 60, "trials": 64}] * 8,
                "xi": [{"trigger_id": 0, "matches": 33, "trials": 64}] * 8,
            },
            "population 'omega' repeats a trigger_id",
        ),
        (
            {
                "p_hat": 1.0, "q_hat": 0.0,
                "omega": [{"trigger_id": i, "matches": 60, "trials": 64} for i in range(8)],
                "xi": [{"trigger_id": i + 1, "matches": 33, "trials": 64} for i in range(8)],
            },
            "omega and xi cover different trigger ids",
        ),
        (
            {
                "p_hat": 1.0, "q_hat": 0.0,
                "omega": [{"trigger_id": 0, "matches": 2**64, "trials": 2**64}],
                "xi": [{"trigger_id": 0, "matches": 1, "trials": 64}],
            },
            "a count in 'omega' exceeds 64 bits",
        ),
        (_estimates(p_hat=True), "'p_hat' has the wrong type bool"),
        (_estimates(p_hat="0.9"), "'p_hat' has the wrong type str"),
        (_estimates(matches=101146.7), "'matches' in omega row 0 has the wrong type float"),
        (_estimates(trials="108800"), "'trials' in omega row 0 has the wrong type str"),
    ], ids=["empty-object", "empty-population", "row-without-matches", "repeated-trigger-id",
            "different-trigger-ids", "count-beyond-64-bits", "p-hat-bool", "p-hat-str",
            "matches-float", "trials-str"])
    def test_malformed_estimates_file_exits_1(self, micro_run, tmp_path, capsys, payload, message):
        _, out, _ = micro_run
        path = tmp_path / "estimates.json"
        path.write_text(json.dumps(payload))
        code = cli.main([
            "bounds",
            "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
            "--bundle", str(out / "bundle"),
            "--triggers", str(out / "triggers.rmts"),
            "--estimates", str(path),
            "--out", str(tmp_path / "bounds_est"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    def test_population_follows_pretrain_config(self, micro_run, tmp_path):
        _, out, _ = micro_run
        cfg = _write_micro_cfg(tmp_path / "micro.cfg")
        cfg.write_text(cfg.read_text() + "\n[embed]\npretrain_epochs = 2\npretrain_images = 30\n")
        code = cli.main([
            "population",
            "--config", str(cfg),
            "--bundle", str(out / "bundle"),
            "--kind", "xi",
            "--out", str(tmp_path / "xi"),
        ])
        assert code == cli.EXIT_OK
        # run seed 31's xi population has master seed 31 + 2000
        expected = atk.make_independent(
            [16, 12, 6], seed=2031, pretrain_data_seed=12_031, epochs=2, n_images=30
        )
        saved = ne.load_checkpoint(tmp_path / "xi" / "xi000.rmk")
        assert saved.parameters_digest() == expected.parameters_digest()
        row = json.loads((tmp_path / "xi" / "xi_manifest.json").read_text())["models"][0]
        assert (row["data_seed"], row["pretrain_epochs"], row["pretrain_images"]) == (12_031, 2, 30)

    def test_bounds_on_run_population_reproduces_report(self, micro_run, tmp_path):
        # each population loads the files its manifest lists, not every *.rmk
        _, out, _ = micro_run
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG)
        code = cli.main([
            "bounds", "--config", str(cfg),
            "--bundle", str(out / "bundle"), "--triggers", str(out / "triggers.rmts"),
            "--population-omega", str(out / "population"),
            "--population-xi", str(out / "population"),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code in (cli.EXIT_OK, cli.EXIT_BOUND_NA)
        written = (tmp_path / "bounds_out" / "bound_report.json").read_bytes()
        assert written == (out / "bound_report.json").read_bytes()

    def test_bounds_rejects_config_n_other_than_triggers(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run  # n = 8
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("\nn = 8\n", "\nn = 32\n"))
        code = cli.main([
            "bounds", "--config", str(cfg),
            "--bundle", str(out / "bundle"), "--triggers", str(out / "triggers.rmts"),
            "--population-omega", str(out / "population"),
            "--population-xi", str(out / "population"),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config n = 32" in err and "8-bit messages" in err and "Traceback" not in err
        assert not (tmp_path / "bounds_out").exists()

    @pytest.mark.parametrize("manifest, message", [
        ("{", "not a population manifest"),
        ('{"models": [{"index": 0}], "excluded": 0}', "not a population manifest"),
        ('{"models": {"file": "omega000.rmk"}}', "not a population manifest"),
        ('{"models": [{"file": "omega009.rmk"}]}', "'omega009.rmk' is not a checkpoint file"),
        ('{"models": [{"file": "../outside.rmk"}]}', "'../outside.rmk' is not a checkpoint file"),
        ('{"models": [{"file": 3}]}', "3 is not a checkpoint file"),
        ('{"models": [], "excluded": 2}', "no checkpoints in"),
    ], ids=["not-json", "row-without-file", "models-not-a-list", "missing-file",
            "file-outside-directory", "file-not-a-name", "no-models"])
    def test_bounds_rejects_bad_population_manifest(
        self, micro_run, tmp_path, capsys, manifest, message
    ):
        _, out, _ = micro_run
        population = tmp_path / "population"
        shutil.copytree(out / "population", population)
        shutil.copy(out / "suspects" / "watermarked.rmk", tmp_path / "outside.rmk")
        (population / "omega_manifest.json").write_text(manifest)
        code = cli.main([
            "bounds", "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
            "--bundle", str(out / "bundle"), "--triggers", str(out / "triggers.rmts"),
            "--population-omega", str(population), "--population-xi", str(population),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "bounds_out").exists()

    def test_oracle_emits_json(self, capsys):
        code = cli.main([
            "oracle", "binomial-tail", "--n", "32", "--tau", "5", "--r", "0.5"
        ])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["method"] == "exact-integer"
        assert payload["value"] == pytest.approx(242825 / 2**32, rel=1e-12)

    @pytest.mark.parametrize("kind", ["poisson-binomial", "mc-bernoulli"])
    @pytest.mark.parametrize("probs", ["nan,0.5", "1.5,0.5", "-0.1,0.5"])
    def test_oracle_rejects_bad_probabilities(self, capsys, kind, probs):
        code = cli.main(["oracle", kind, f"--probs={probs}", "--d", "1"])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "probabilities must lie in [0, 1]" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("probs", ["nan,0.9,0.9", "inf,0.9,0.9", "1.5,0.9,0.9", "-0.1,0.9", ","])
    def test_lemma_sim_rejects_bad_probabilities(self, capsys, probs):
        # checked before r_bar < N * mean(p), which a NaN mean would fail first
        code = cli.main(
            ["oracle", "lemma-sim", f"--probs={probs}", "--delta", "0.1", "--r-bar", "1"]
        )
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "probabilities must lie in [0, 1]" in captured.err
        assert "Traceback" not in captured.err

    def test_lemma_sim_rejects_too_few_replications(self, capsys):
        code = cli.main([
            "oracle", "lemma-sim", "--probs", "0.9,0.9,0.9", "--delta", "0.1",
            "--r-bar", "1", "--reps", "0",
        ])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "10^3 replications" in captured.err
        assert "Traceback" not in captured.err

    def test_bounds_from_estimates_needs_no_bundle(self, tmp_path, capsys):
        data = Path(__file__).resolve().parent / "data"
        cfg = tmp_path / "estimates.cfg"  # the golden report's ExperimentConfig
        cfg.write_text("[triggers]\ntrigger_count = 12\n\n[bounds]\nr_bar = 9\nr_under = 4\n")
        code = cli.main([
            "bounds",
            "--config", str(cfg),
            "--estimates", str(data / "estimates_unordered.json"),
            "--bundle", "/nonexistent",
            "--out", str(tmp_path / "bounds_est"),
        ])
        # the golden report has no h bounds, hence "bound not applicable"
        assert code == cli.EXIT_BOUND_NA
        golden = (data / "bound_report_unordered.json").read_text()
        assert (tmp_path / "bounds_est" / "bound_report.json").read_text() == golden
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["--bundle", "--triggers"])
    @pytest.mark.parametrize("branch", ["population", "training"])
    def test_bounds_without_bundle_or_triggers_exits_1(
        self, micro_run, tmp_path, capsys, missing, branch
    ):
        _, out, _ = micro_run
        given = {"--bundle": str(out / "bundle"), "--triggers": str(out / "triggers.rmts")}
        del given[missing]
        argv = ["bounds", "--config", str(_write_micro_cfg(tmp_path / "micro.cfg"))]
        argv += [item for pair in given.items() for item in pair]
        if branch == "population":
            argv += ["--population-omega", str(tmp_path), "--population-xi", str(tmp_path)]
        argv += ["--out", str(tmp_path / "bounds_run")]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{missing} is required" in err and "Traceback" not in err
        assert not (tmp_path / "bounds_run").exists()

    def test_negative_seed_exits_1_before_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started")

        monkeypatch.setattr(cli, "run_pipeline", no_work)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--seed", "-5", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "seed must not be negative" in err and "Traceback" not in err
        assert not out.exists()

    def test_report_summarizes_run(self, micro_run, capsys):
        _, out, _ = micro_run
        code = cli.main(["report", "--run", str(out)])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "watermarked" in text and "bounds" in text

    def test_report_prints_stage_seconds_in_pipeline_order(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["stage_seconds"]) == sorted(harness.PIPELINE_STAGES)
        manifest["stage_seconds"] = {  # sorted by name, as run_pipeline writes them
            "attacks": 0.25, "bounds": 3.5, "covariance": 0.0004, "data": 0.0123, "embed": 2.0,
            "verify": 1.0,
        }
        (run / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        files = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_OK
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == files
        assert capsys.readouterr().out == (
            f"run {run} (version {manifest['version']})\n"
            "  stage seconds: data=0.012 embed=2.000 attacks=0.250 verify=1.000"
            " covariance=0.000 bounds=3.500\n"
            "  embedding: epochs=80 bit_accuracy=0.789 fidelity=0.0105\n"
            "      independent0: detection_rate=0.375 tau=2 K=8\n"
            "           prune20: detection_rate=0.750 tau=2 K=8\n"
            "       watermarked: detection_rate=0.750 tau=2 K=8\n"
            "  bounds: p_omega=0.867 p_xi=0.734 h_minus=None h_plus=None\n"
        )

    def test_report_without_embed_log_prints_no_embedding_line(
        self, micro_run, tmp_path, capsys
    ):
        _, out, _ = micro_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        (run / "embed_log.json").unlink()
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "embedding" not in text and "watermarked" in text

    def test_report_embedding_line_with_no_epochs(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        (run / "embed_log.json").write_text('{"epochs": []}')
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_OK
        assert "  embedding: epochs=0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("name, text, message", [
        ("manifest.json", "{}", "missing key 'version'"),
        ("manifest.json", "[1]", "not a JSON object but list"),
        ("manifest.json", "{", "Expecting property name"),
        ("manifest.json", '{"version": 1, "failures": {}}', "'version' has the wrong type int"),
        ("manifest.json", '{"version": "0", "failures": []}', "'failures' has the wrong type"),
        ("manifest.json", '{"version": "0", "failures": {}, "stage_seconds": {"embed": "slow"}}',
         "'stage_seconds'['embed'] has the wrong type str"),
        ("verification/watermarked.json", '{"suspect_id": "w"}', "missing key 'detection_rate'"),
        ("verification/watermarked.json",
         '{"suspect_id": "w", "detection_rate": "high", "tau": 2, "K": 4}',
         "'detection_rate' has the wrong type str"),
        ("verification/watermarked.json", "null", "not a JSON object but NoneType"),
        ("bound_report.json", '{"p_omega": 0.5}', "missing key 'p_xi'"),
        ("bound_report.json", '{"p_omega": null, "p_xi": 0.5, "h_minus": null, "h_plus": 1}',
         "'p_omega' has the wrong type NoneType"),
        ("manifest.json", '{"version": "0", "failures": {}, "stage_seconds": {"embed": true}}',
         "'stage_seconds'['embed'] has the wrong type bool"),
        ("bound_report.json", '{"p_omega": true, "p_xi": 0.5, "h_minus": null, "h_plus": 1}',
         "'p_omega' has the wrong type bool"),
        ("embed_log.json", "{", "Expecting property name"),
        ("embed_log.json", "{}", "missing key 'epochs'"),
        ("embed_log.json", '{"epochs": {"0": 1}}', "'epochs' has the wrong type dict"),
        ("embed_log.json", '{"epochs": [{"bit_accuracy": 1.0}]}',
         "missing key 'epochs'[-1]['fidelity']"),
        ("embed_log.json", '{"epochs": [{"bit_accuracy": "1", "fidelity": 0.5}]}',
         "'epochs'[-1]['bit_accuracy'] has the wrong type str"),
        ("embed_log.json", '{"epochs": [{"bit_accuracy": 1.0, "fidelity": false}]}',
         "'epochs'[-1]['fidelity'] has the wrong type bool"),
    ], ids=["manifest-empty", "manifest-list", "manifest-unparsable", "manifest-version-int",
            "manifest-failures-list", "manifest-stage-seconds-str", "verification-missing-key",
            "verification-rate-str", "verification-null", "bounds-missing-key", "bounds-p-null",
            "manifest-stage-seconds-bool", "bounds-p-bool", "embed-log-unparsable",
            "embed-log-empty", "embed-log-epochs-dict", "embed-log-missing-fidelity",
            "embed-log-accuracy-str", "embed-log-fidelity-bool"])
    def test_report_rejects_malformed_run_file(self, micro_run, tmp_path, capsys, name, text,
                                               message):
        _, out, _ = micro_run
        run = tmp_path / "run"
        (run / "verification").mkdir(parents=True)
        for kept in ("manifest.json", "bound_report.json", "verification/watermarked.json"):
            (run / kept).write_text((out / kept).read_text())
        (run / name).write_text(text)
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{run / name}: {message}" in err and "Traceback" not in err
