"""Harness tests: synthetic data, config parsing, the pipeline's outputs
and determinism, manifest completeness, and CLI exit codes."""

import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import re
import resource
import shutil
import struct
import sys
import threading
import types
import weakref
from collections import deque
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
    COVARIANCE_DRAWS,
    ExperimentConfig,
    build_trigger_set,
    population_distances,
    run_pipeline,
    verify_suspect,
)
from randmark.synth import gen_synthetic_images
from randmark.watermark import load_trigger_set

from conftest import MINI, assert_pinned, kernel_check, one_trigger, returned, run_pinned, see_cpus
import oracles
import pinned_checks


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

    @pytest.mark.parametrize("overrides, field", [
        (dict(pretrain_images=0), "pretrain_images"),
        (dict(pretrain_epochs=-1), "pretrain_epochs"),
        (dict(learning_rate=-1.0), "learning_rate"),
        (dict(learning_rate=float("nan")), "learning_rate"),
        (dict(lam=float("nan")), "lambda"),
        (dict(lam=float("inf")), "lambda"),
        (dict(delta_scale=float("inf")), "delta_scale"),
        (dict(delta_scale=float("nan")), "delta_scale"),
    ], ids=["pretrain_images-zero", "pretrain_epochs-negative", "learning_rate-negative",
            "learning_rate-nan", "lam-nan", "lam-inf", "delta_scale-inf", "delta_scale-nan"])
    def test_training_settings_checked_at_construction(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**overrides)

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
        ("[run]\nindependents = 101\n", "independents must lie in [0, 100], got 101"),
        (f"[run]\nindependents = {10**23}\n", "independents must lie in [0, 100]"),
        ("[bounds]\nm_models = 999\n", "m_models must be at most 998, got 999"),
    ], ids=["unknown-key", "unknown-section", "default-section", "unknown-attack-key",
            "bounds-stage-removed", "unparsable-value", "out-of-range", "attack-without-kind",
            "embed-lr-negative", "pretrain-images-zero", "attack-lr-negative",
            "backbone-width-zero", "backbone-width-negative", "decoder-width-zero",
            "s-not-square", "sigma-scale-negative", "sigma-scale-nan",
            "attack-named-watermarked", "attack-named-independent", "attack-name-escapes",
            "attack-kind-independent", "no-section-header", "repeated-section", "seed-negative",
            "independents-101", "independents-10-23", "m-models-999"])
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

    def test_independent_names_read_from_the_attack_name(self):
        spec = AttackSpec(kind="prune", fraction=0.2)
        with pytest.raises(ValueError, match="'independent7' is another suspect's name"):
            ExperimentConfig(independents=8, attacks=[("independent7", spec)])
        assert ExperimentConfig(independents=7, attacks=[("independent7", spec)])
        # independent07 names no suspect file: the pipeline writes independent7
        assert ExperimentConfig(independents=8, attacks=[("independent07", spec)])
        # a number of more digits than independents has is larger
        assert ExperimentConfig(independents=100, attacks=[("independent" + "9" * 30, spec)])
        with pytest.raises(ValueError, match="'independent99' is another suspect's name"):
            ExperimentConfig(independents=100, attacks=[("independent99", spec)])
        assert ExperimentConfig(independents=99, attacks=[("independent99", spec)])

    def test_model_seeds_at_the_count_limits_are_all_distinct(self):
        # the largest counts a config takes still give every model seed,
        # data seed and held-out seed of a run a value of its own
        config = ExperimentConfig(independents=100, m_models=998)
        seeds = config.seeds
        ranges = (
            (config.independents, (seeds.independents, seeds.independent_data)),
            (config.m_models, (seeds.omega, seeds.xi, seeds.xi_data)),
        )
        models = [base + i for count, bases in ranges for base in bases for i in range(count)]
        blob_tasks = [seeds.omega + i + 1 for i in range(config.m_models)]  # a fine-tune's
        used = [*seeds[:6], seeds.omega + atk.HELDOUT_SEED_OFFSET, *models]
        assert seeds.omega + atk.HELDOUT_SEED_OFFSET not in blob_tasks
        assert len(set(used)) == len(used)
        for overrides in (dict(independents=101), dict(m_models=999)):
            with pytest.raises(ValueError, match="must"):
                ExperimentConfig(**overrides)

    def test_config_with_10_23_independents_returns_at_once(self):
        # in a child whose address space is capped: a config that listed every
        # independent's name would fill it, or hang, rather than return
        assert returned(run_pinned("config_with_10_23_independents", timeout=10)) < 1.0

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

    def test_manifest_records_numpy_and_blas_core(self, micro_run):
        _, out, manifest = micro_run
        written = json.loads((out / "manifest.json").read_text())
        assert written["numpy"] == manifest.numpy == np.__version__
        assert written["blas_core"] == manifest.blas_core == ne._blas_core()

    @kernel_check(pinned_checks.blas_core_is_the_kernel_that_runs)
    def test_blas_core_is_the_kernel_that_runs(self, coretype):
        if ne._blas_core() == "unknown":
            pytest.skip("numpy runs on no OpenBLAS that reports its core")

    def test_blas_core_unknown_when_the_library_does_not_say(self, monkeypatch):
        # a library that does not load, or lacks scipy-openblas's functions,
        # gives no BLAS handle: the core reads unknown and every job is serial
        def unloadable(path):
            raise OSError(f"{path}: cannot open shared object file")

        for cdll in (unloadable, lambda path: object()):  # the second has no corename
            monkeypatch.setattr(ne.ctypes, "CDLL", cdll)
            assert ne._scipy_openblas() is None
        monkeypatch.setattr(ne, "_BLAS", None)
        assert ne._blas_core() == "unknown"
        assert ne._worker_count(2) == 1

    def test_output_bytes_pinned(self, micro_run):
        # every file of the run, from training through decoding, verification,
        # covariance and bounds: a change to any rounding step or random draw
        # on those paths shows here
        _, _, manifest = micro_run
        assert len(manifest.files) == 22
        files = json.dumps(manifest.files, sort_keys=True).encode()
        assert_pinned(hashlib.sha256(files).hexdigest(), {
            "SkylakeX": "4c19afae8f02ef5a76fa714afa8dadbe8adae664b1053bfdcd0fb3f28864be75",
            "Haswell": "f8323a7c2999d9a60f24dfd7aaac01d8e05a3f129b5a5c4aeee1fc46fc205410",
            "Sandybridge": "f3e9ef0ffb1a70e9d2e15c34503abd47ba7e1ee02e2d1058d524deffe90edbd9",
        })

    def test_decision_bytes_pinned(self, micro_run):
        # the files that carry the run's decisions; a BLAS kernel that sums in
        # another order moves the checkpoints' and the embed log's last bits
        # but, at this config, none of these (the same bytes under OpenBLAS's
        # SkylakeX, Haswell and Sandybridge kernels), so this pin holds on any
        _, _, manifest = micro_run
        decisions = {name: manifest.files[name] for name in DECISION_FILES}
        files = json.dumps(decisions, sort_keys=True).encode()
        assert hashlib.sha256(files).hexdigest() == (
            "cd3ce623297bbd931c263df9c1f969732720dde28280b0031d49b63dbef88312"
        )

    def test_sweep_covers_all_suspects_and_taus(self, micro_run):
        config, out, _ = micro_run
        header, *lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert header == "suspect_id,kind,tau,detection_rate"
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

    def test_each_suspect_decoded_once(self, monkeypatch, tmp_path):
        # verify decodes every suspect over COVARIANCE_DRAWS draws, of which
        # covariance reads the same distances; only the bound populations
        # decode at k_verify
        draws, decode = [], harness.decode_triggers

        def counted(suspect, bundle, triggers, k_draws, seed):
            draws.append(k_draws)
            return decode(suspect, bundle, triggers, k_draws, seed)

        monkeypatch.setattr(harness, "decode_triggers", counted)
        config = micro_config(seed=35)
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failures == {} and len(manifest.stage_seconds) == 6
        suspects = 1 + len(config.attacks) + config.independents
        assert draws[:suspects] == [COVARIANCE_DRAWS] * suspects
        assert set(draws[suspects:]) == {config.k_verify}

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

    def test_data_stage_failure_recorded_and_later_stages_skipped(self, tmp_path, monkeypatch):
        def full_disk(triggers, path):
            raise OSError(f"{path}: no space left on device")

        monkeypatch.setattr(harness, "save_trigger_set", full_disk)
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

    def test_xi_worker_failure_is_a_bounds_stage_failure(self, monkeypatch, tmp_path, capsys):
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
        # the directory holds the omega population and xi000.rmk but no
        # finished xi population, and reads as none, never as those files
        run = tmp_path / "run"
        with pytest.raises(ValueError, match="no xi_manifest.json"):
            harness.load_population(run / "population", "xi")
        code = cli.main([
            "bounds", "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
            "--bundle", str(run / "bundle"), "--triggers", str(run / "triggers.rmts"),
            "--population-omega", str(run / "population"),
            "--population-xi", str(run / "population"),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "xi_manifest.json" in err and "Traceback" not in err
        assert not (tmp_path / "bounds_out").exists()

    def test_parent_never_receives_a_network(self, monkeypatch, tmp_path):
        # the workers save their models and send back paths, and the omega
        # copies are saved as they are made: the run loads each population
        # model when it decodes it, and has dropped every earlier one by then
        def unpicklable(net):
            raise AssertionError("a network was pickled")

        config = micro_config(seed=48, independents=2, m_models=3)
        suspects = 1 + len(config.attacks) + config.independents
        decoded, decode = [], harness.decode_triggers

        def spy(model, *args):
            alive = [index for index, ref in enumerate(decoded[suspects:]) if ref() is not None]
            assert alive == [], f"population models {alive} alive at decode {len(decoded)}"
            decoded.append(weakref.ref(model))
            return decode(model, *args)

        monkeypatch.setattr(ne.MlpNetwork, "__reduce__", unpicklable)  # the workers' too
        monkeypatch.setattr(harness, "decode_triggers", spy)
        see_cpus(monkeypatch, 2)
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failures == {}
        omega = json.loads((tmp_path / "run" / "population" / "omega_manifest.json").read_text())
        assert len(decoded) == suspects + len(omega["models"]) + config.m_models

    def test_no_suspect_network_alive_in_the_bounds_stage(self, monkeypatch, tmp_path):
        # the bounds stage reads neither the suspects nor their distances, so
        # the run drops them before it: of the networks the run made, gc
        # finds only the bundle's 4 alive when the stage starts
        config = micro_config(seed=50, independents=2, m_models=3)
        before = {id(obj): obj for obj in gc.get_objects() if isinstance(obj, ne.MlpNetwork)}
        found, bounds = [], harness.bounds_stage

        def spy(config, bundle, *args):
            gc.collect()
            made = [obj for obj in gc.get_objects()
                    if isinstance(obj, ne.MlpNetwork) and id(obj) not in before]
            nets = (bundle.frozen_f, bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
            found.append((len(made), all(any(obj is net for net in nets) for obj in made)))
            del made
            return bounds(config, bundle, *args)

        monkeypatch.setattr(harness, "bounds_stage", spy)
        see_cpus(monkeypatch, 2)
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failures == {}
        assert found == [(4, True)]

    @pytest.mark.parametrize("failing", ["data", "embed"])
    def test_failed_run_leaves_no_staged_checkpoint(self, monkeypatch, tmp_path, failing):
        # the independents and xi models that workers saved before the stage
        # that takes them failed or was skipped are removed with their
        # staging directory, before the manifest hashes the run's files
        config = micro_config(seed=49, independents=2, m_models=3,
                              learning_rate=1e200 if failing == "embed" else 2e-3)

        def full_disk(triggers, path):
            raise OSError(f"{path}: no space left on device")

        if failing == "data":
            monkeypatch.setattr(harness, "save_trigger_set", full_disk)
        see_cpus(monkeypatch, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            manifest = run_pipeline(config, tmp_path / "run")
        assert set(manifest.failures) == {failing}
        left = sorted(str(path.relative_to(tmp_path / "run")) for path in
                      (tmp_path / "run").rglob("*"))
        assert left == (["manifest.json"] if failing == "data" else
                        ["manifest.json", "triggers.rmts"])
        assert manifest.files == ({} if failing == "data" else
                                  {"triggers.rmts": manifest.files["triggers.rmts"]})

    def test_manifest_records_peak_rss_outside_files(self, monkeypatch, tmp_path):
        # the process's and its largest child's high-water marks, the latter
        # read once the pool's workers have exited
        see_cpus(monkeypatch, 2)
        manifest = run_pipeline(micro_config(seed=36, independents=2), tmp_path / "run")
        assert manifest.failures == {}
        written = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert written["peak_rss_mb"] == manifest.peak_rss_mb
        assert set(manifest.peak_rss_mb) == {"process", "largest_child"}
        for key, who in (("process", resource.RUSAGE_SELF),
                         ("largest_child", resource.RUSAGE_CHILDREN)):
            assert 0 < manifest.peak_rss_mb[key] <= resource.getrusage(who).ru_maxrss / 1024
        assert not any("rss" in name for name in manifest.files)
        # the process's high-water mark as each stage returned, in stage order
        assert written["stage_peak_rss_mb"] == manifest.stage_peak_rss_mb
        marks = [manifest.stage_peak_rss_mb[name] for name in harness.PIPELINE_STAGES]
        assert 0 < marks[0] and marks == sorted(marks), marks
        assert marks[-1] <= manifest.peak_rss_mb["process"]

    @pytest.mark.parametrize("platform, unit", [("linux", 2**10), ("darwin", 2**20)])
    def test_peak_rss_reads_ru_maxrss_in_the_platforms_unit(self, monkeypatch, platform, unit):
        # getrusage(2): ru_maxrss counts KiB on Linux and bytes on macOS
        marks = {resource.RUSAGE_SELF: 75.5, resource.RUSAGE_CHILDREN: 37.25}
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(
            resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=int(marks[who] * unit))
        )
        assert harness._peak_rss_mb() == {"process": 75.5, "largest_child": 37.25}
        assert harness._maxrss_mb(resource.RUSAGE_SELF) == 75.5

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


def _decoder_outputs(suspect, bundle, stego) -> np.ndarray:
    """The decoder outputs that decode_triggers thresholds: the suspect, then
    the bundle's decoder, over a stego batch."""
    return ne.forward_batch(bundle.decoder_d, ne.forward_batch(suspect, stego)[0])[0]


def _no_stego_work(*args, **kwargs):
    raise AssertionError("stego batch built for a request that should be rejected")


class TestSharedExtraction:
    # At K = 1 a one-trigger extraction runs a one-row suspect product, a
    # different BLAS kernel, so bit identity is claimed for K >= 2 only.
    @pytest.mark.parametrize("k_draws", [2, 8])
    def test_batches_equal_single_trigger_extraction(self, mini_run, k_draws):
        bundle, triggers = mini_run.bundle, mini_run.triggers
        encoder, delta_scale = bundle.encoder_e, bundle.hyper.delta_scale
        for suspect in _three_suspects(bundle):
            distances = wm.decode_triggers(suspect, bundle, triggers, k_draws, 49)
            _, verified = verify_suspect(
                suspect, bundle, triggers, tau=1, k_draws=k_draws, seed=49, suspect_id="s",
            )
            assert np.array_equal(verified, distances)
            outputs = _decoder_outputs(
                suspect, bundle, wm.stego_batch(encoder, triggers, k_draws, 49, delta_scale)
            )
            for index, message in enumerate(triggers.messages):
                stream = wm.trigger_stream_seed(49, index)
                single = wm.stego_batch(
                    encoder, triggers[index : index + 1], k_draws, stream, delta_scale
                )
                rows = outputs[index * k_draws : (index + 1) * k_draws]
                assert np.array_equal(rows, _decoder_outputs(suspect, bundle, single))
                assert np.array_equal(
                    distances[index],
                    wm.extract_messages(suspect, bundle, triggers, index, k_draws, stream),
                )
                assert np.array_equal(distances[index], ((rows >= 0.5) != message).sum(axis=1))

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

    def test_population_of_no_models(self, mini_run):
        # models are decoded as iteration yields them; none give (0, N, K),
        # which the bound report refuses
        dists = population_distances(iter(()), mini_run.bundle, mini_run.triggers, 8, 50)
        assert (dists.shape, dists.dtype) == ((0, len(mini_run.triggers), 8), np.int64)
        with pytest.raises(ValueError, match="omega population is empty"):
            harness.compute_bound_report(
                micro_config(s=MINI["s"]), mini_run.bundle, mini_run.triggers, iter(()),
                iter(()), 50,
            )

    def test_bound_rates_are_the_verifiers(self, mini_run):
        # p_hat and q_hat are the detection rates verify_suspect reports for
        # each population's first model at the bound's seed and K: one rule.
        # At tau = 2 a heavy prune and an independent model read between 0 and 1
        bundle, triggers = mini_run.bundle, mini_run.triggers
        config = micro_config(s=MINI["s"])  # tau = 2, k_verify = 8
        watermarked, _, independent = _three_suspects(bundle)
        heavy = atk.apply_attack(bundle, AttackSpec(kind="prune", fraction=0.8))
        report = harness.compute_bound_report(
            config, bundle, triggers, [heavy, watermarked], [independent, watermarked], 55
        )
        rates = [
            verify_suspect(model, bundle, triggers, config.tau, config.k_verify, 55, "s")[0]
            .detection_rate
            for model in (heavy, independent)
        ]
        assert [report.p_hat, report.q_hat] == rates
        assert all(0.0 < rate < 1.0 for rate in rates)

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


def _probs(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


# The two oracles of a Bernoulli sum's lower tail, by kind
ORACLE_TAILS = {
    "poisson-binomial": lambda probs, d: oracles.brute_force_poisson_binomial(probs, d, "below"),
    "mc-bernoulli": lambda probs, d: oracles.monte_carlo_bernoulli_sum(probs, d, 100_000, seed=0),
}


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

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
    def test_population_xi_saves_one_model_at_a_time(self, micro_run, monkeypatch, tmp_path, cpus):
        # `population --kind xi` streams its models to disk where they are
        # trained: when one is saved, no model saved before it in the same
        # process is still alive (a forked worker checks its own, and a
        # failed check fails its job), and this process loads none
        _, out, _ = micro_run
        saved = []
        real_save = atk.save_checkpoint

        def spy(model, path):
            assert [ref() for ref in saved] == [None] * len(saved), f"alive at {path.name}"
            saved.append(weakref.ref(model))
            real_save(model, path)

        def no_load(path):
            raise AssertionError(f"{path} loaded")

        monkeypatch.setattr(atk, "save_checkpoint", spy)
        monkeypatch.setattr(harness, "load_checkpoint", no_load)
        see_cpus(monkeypatch, cpus)
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("m_models = 2", "m_models = 3"))
        code = cli.main([
            "population", "--config", str(cfg), "--bundle", str(out / "bundle"),
            "--kind", "xi", "--out", str(tmp_path / "xi"),
        ])
        assert code == cli.EXIT_OK
        assert len(saved) == (3 if cpus == 1 else 0)  # saved here, or in the workers
        assert sorted(path.name for path in (tmp_path / "xi").iterdir()) == [
            "xi000.rmk", "xi001.rmk", "xi002.rmk", "xi_manifest.json"
        ]

    def test_model_count_beyond_its_seed_range_exits_1(self, tmp_path, capsys):
        # refused as the config loads, before a run lists their seeds or
        # makes its directory
        for old, new, message in (("independents = 1\n", "independents = 101\n",
                                   "independents must lie in [0, 100], got 101"),
                                  ("m_models = 2\n", "m_models = 999\n",
                                   "m_models must be at most 998, got 999")):
            cfg = tmp_path / "micro.cfg"
            cfg.write_text(MICRO_CFG.replace(old, new))
            code = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
            assert code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"randmark pipeline: error: {cfg}: {message}"), err
            assert "Traceback" not in err
            assert not (tmp_path / "run").exists()

    def test_pipeline_of_10_23_independents_exits_1_at_once(self, tmp_path):
        # in a child whose address space is capped, as a run that listed
        # their seeds would fill it
        code, err, made = returned(run_pinned(
            "pipeline_of_10_23_independents", args=[str(tmp_path)], timeout=30
        ))
        assert code == cli.EXIT_USAGE and not made
        assert "randmark pipeline: error: " in err and "independents must lie in [0, 100]" in err

    def test_bare_memory_error_is_named(self, monkeypatch, tmp_path, capsys):
        # Python's allocator raises MemoryError without a message: a command
        # and a pipeline stage that fail with one name it
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(harness, "data_stage", out_of_memory)
        manifest = run_pipeline(micro_config(seed=51), tmp_path / "run")
        assert manifest.failures == {"data": "MemoryError"}
        monkeypatch.setattr(cli, "_cmd_pipeline", out_of_memory)
        assert cli.main(["pipeline"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "randmark pipeline: error: MemoryError\n"

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
        (None, "weight_decay=0.0", "unknown key 'weight_decay'"),  # an older bundle's line
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

    def test_embed_of_no_epoch_exits_0(self, tmp_path, capsys):
        # the bundle and an empty log are written, as in a pipeline run; no
        # epoch gives no accuracy or fidelity to print
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("epochs = 80", "epochs = 0"))
        assert cli.main(["embed", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "embedded: epochs=0 (bundle in" in out and "bit_accuracy" not in out, out
        assert json.loads((tmp_path / "run" / "embed_log.json").read_text())["epochs"] == []
        assert (tmp_path / "run" / "bundle" / "manifest.txt").is_file()

    @pytest.mark.parametrize("line, other, named", [
        ("\nn = 8\n", "\nn = 4\n", ("config n = 4", "8-bit messages")),
        ("\ns = 16\n", "\ns = 25\n", ("s = 25", "16-pixel images")),
    ], ids=["n", "s"])
    def test_embed_rejects_other_trigger_dimensions_before_training(
        self, micro_run, monkeypatch, tmp_path, capsys, line, other, named
    ):
        # a trigger set the config's bundle cannot take is refused before
        # the source backbone trains, not after
        _, out, _ = micro_run  # s = 16, n = 8
        trained = []
        monkeypatch.setattr(harness, "make_independent", lambda *a, **k: trained.append(1))
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace(line, other))
        code = cli.main([
            "embed", "--config", str(cfg), "--triggers", str(out / "triggers.rmts"),
            "--out", str(tmp_path / "run"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "randmark embed: error:" in err and "Traceback" not in err
        assert all(value in err for value in named), err
        assert trained == []

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
        # the least manifest a directory put together by hand needs
        (omega_dir / "omega_manifest.json").write_text('{"models": [{"file": "copy.rmk"}]}')
        (xi_dir / "xi_manifest.json").write_text('{"models": [{"file": "indep.rmk"}]}')
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
        (omega_dir / "omega_manifest.json").write_text('{"models": [{"file": "w.rmk"}]}')
        (xi_dir / "xi_manifest.json").write_text('{"models": [{"file": "indep.rmk"}]}')
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
        (_estimates(matches=65), "matches must lie in [0, trials]"),
        (
            {
                "p_hat": 1.0, "q_hat": 0.0,
                "omega": [{"trigger_id": i, "matches": 60, "trials": 64} for i in range(3)],
                "xi": [{"trigger_id": i, "matches": 33, "trials": 64} for i in range(3)],
            },
            "need 0 < r_under < r_bar <= number of triggers",
        ),
    ], ids=["empty-object", "empty-population", "row-without-matches", "repeated-trigger-id",
            "different-trigger-ids", "count-beyond-64-bits", "p-hat-bool", "p-hat-str",
            "matches-float", "trials-str", "matches-above-trials", "fewer-triggers-than-r-bar"])
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

    def test_bounds_loads_one_population_model_at_a_time(self, micro_run, monkeypatch, tmp_path):
        # `bounds --population-omega/--population-xi` streams its models from
        # disk: when one loads, no model loaded before it is still alive
        config, out, _ = micro_run
        loaded = []
        real_load = harness.load_checkpoint

        def spy(path):
            assert [ref() for ref in loaded] == [None] * len(loaded), f"alive at {path.name}"
            model = real_load(path)
            loaded.append(weakref.ref(model))
            return model

        monkeypatch.setattr(harness, "load_checkpoint", spy)
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
        assert len(loaded) == 2 * config.m_models

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
        # the training branch refuses it before it trains or makes --out
        code = cli.main([
            "bounds", "--config", str(cfg),
            "--bundle", str(out / "bundle"), "--triggers", str(out / "triggers.rmts"),
            "--out", str(tmp_path / "bounds_out"),
        ])
        assert code == cli.EXIT_USAGE
        assert "config n = 32" in capsys.readouterr().err
        assert not (tmp_path / "bounds_out").exists()

    @pytest.mark.parametrize("manifest, message", [
        ("{", "not a population manifest"),
        ('{"models": [{"index": 0}], "excluded": 0}', "not a population manifest"),
        ('{"models": {"file": "omega000.rmk"}}', "not a population manifest"),
        ('{"models": [{"file": "omega009.rmk"}]}', "'omega009.rmk' is not a checkpoint file"),
        ('{"models": [{"file": "../outside.rmk"}]}', "'../outside.rmk' is not a checkpoint file"),
        ('{"models": [{"file": 3}]}', "3 is not a checkpoint file"),
        ('{"models": [], "excluded": 2}', "no checkpoints in"),
        ('{"models": [{"file": "omega000.rmk"}, {"file": "omega000.rmk"}]}',
         "omega_manifest.json: 'omega000.rmk' is named more than once"),
    ], ids=["not-json", "row-without-file", "models-not-a-list", "missing-file",
            "file-outside-directory", "file-not-a-name", "no-models", "repeated-file"])
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

    def test_cut_rewrite_of_a_population_is_refused(self, tmp_path):
        # a rewrite stopped after 2 of 5 models, into a directory that holds a
        # finished population, must not read as 2 new models and 3 old ones
        staging, population = tmp_path / "staging", tmp_path / "population"
        staging.mkdir()

        def models(seed, stop=None):  # each model's checkpoint, saved as it is asked for
            for index in range(5):
                if index == stop:
                    raise RuntimeError("stopped")
                path = staging / f"model{seed + index}.rmk"
                ne.save_checkpoint(ne.init_network([4, 3], ["identity"], seed + index), path)
                yield path

        rows = [{"index": index} for index in range(5)]
        written = harness.PopulationWriter(population, "xi", atk.PopulationResult(models(0), rows))
        deque(written, maxlen=0)
        assert len(list(harness.load_population(population, "xi"))) == 5
        cut = harness.PopulationWriter(
            population, "xi", atk.PopulationResult(models(10, 2), rows)
        )
        with pytest.raises(RuntimeError, match="stopped"):
            deque(cut, maxlen=0)
        with pytest.raises(ValueError, match="no xi_manifest.json") as info:
            harness.load_population(population, "xi")
        assert '{"models": [{"file": "a.rmk"}]}' in str(info.value)

    # The argument checks of the test oracles (tests/oracles.py), each called
    # with the probabilities as text, as a command line gives them
    @pytest.mark.parametrize("kind", ["poisson-binomial", "mc-bernoulli"])
    @pytest.mark.parametrize("probs", ["nan,0.5", "1.5,0.5", "-0.1,0.5"])
    def test_oracle_rejects_bad_probabilities(self, kind, probs):
        with pytest.raises(ValueError, match=re.escape("probabilities must lie in [0, 1]")):
            ORACLE_TAILS[kind](_probs(probs), 1)

    @pytest.mark.parametrize("kind", ["poisson-binomial", "mc-bernoulli"])
    @pytest.mark.parametrize("d", ["-3", "3"])
    def test_oracle_rejects_a_threshold_outside_0_n(self, kind, d):
        # the check of bounds.poisson_binomial_cdf, the kernel these oracles check
        with pytest.raises(ValueError, match=re.escape("threshold must lie in [0, N]")):
            ORACLE_TAILS[kind](_probs("0.5,0.5"), int(d))

    @pytest.mark.parametrize("probs", ["nan,0.9,0.9", "inf,0.9,0.9", "1.5,0.9,0.9", "-0.1,0.9", ","])
    def test_lemma_sim_rejects_bad_probabilities(self, probs):
        # checked before r_bar < N * mean(p), which a NaN mean would fail first
        with pytest.raises(ValueError, match=re.escape("probabilities must lie in [0, 1]")):
            oracles.lemma_validity_simulation(_probs(probs), 0.1, 1, 10_000, seed=0)

    def test_lemma_sim_rejects_too_few_replications(self):
        with pytest.raises(ValueError, match=re.escape("10^3 replications")):
            oracles.lemma_validity_simulation(_probs("0.9,0.9,0.9"), 0.1, 1, 0, seed=0)

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_coverage_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match=f"got {trials} trials"):
            oracles.coverage_simulation(0.5, int(trials), 0.1, 10_000, seed=0)

    def test_allocation_beyond_memory_exits_1(self, tmp_path, capsys):
        # 10^14 trigger images of 256 pixels: numpy refuses the array before
        # any memory is touched, and the command exits 1 with its message
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"[triggers]\ntrigger_count = {10**14}\n")
        out = tmp_path / "triggers.rmts"
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("randmark gen-data: error: Unable to allocate ")
        assert "Traceback" not in captured.err

    def test_pipeline_refuses_a_directory_that_holds_a_file(self, tmp_path, capsys):
        # a run's manifest hashes every file under its directory as its own
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("an earlier run's\n")
        assert cli.main(["pipeline", "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
                         "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"output directory {out} is not empty" in err and "Traceback" not in err
        assert [path.name for path in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "an earlier run's\n"

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

    def test_bounds_with_one_population_exits_1(self, micro_run, tmp_path, capsys):
        _, out, _ = micro_run
        code = cli.main([
            "bounds", "--config", str(_write_micro_cfg(tmp_path / "micro.cfg")),
            "--bundle", str(out / "bundle"), "--triggers", str(out / "triggers.rmts"),
            "--population-omega", str(out / "population"), "--out", str(tmp_path / "bounds_run"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "randmark bounds: error: need both --population-omega and --population-xi" in err
        assert not (tmp_path / "bounds_run").exists()

    def test_bounds_with_estimates_and_populations_exits_1(self, micro_run, tmp_path, capsys):
        # neither source of counts is silently dropped for the other
        _, out, _ = micro_run
        data = Path(__file__).resolve().parent / "data"
        cfg = tmp_path / "estimates.cfg"  # the estimates file's ExperimentConfig
        cfg.write_text("[triggers]\ntrigger_count = 12\n\n[bounds]\nr_bar = 9\nr_under = 4\n")
        code = cli.main([
            "bounds", "--config", str(cfg),
            "--estimates", str(data / "estimates_unordered.json"),
            "--population-omega", str(out / "population"),
            "--population-xi", str(out / "population"),
            "--out", str(tmp_path / "bounds_run"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "randmark bounds: error: --estimates and --population-omega/--population-xi" in err
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
        manifest["peak_rss_mb"] = {"largest_child": 37.25, "process": 75.5}
        manifest["stage_peak_rss_mb"] = {
            "attacks": 70.0, "bounds": 71.25, "covariance": 70.04, "data": 39.125, "embed": 69.96,
            "verify": 70.04,
        }
        (run / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        files = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_OK
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == files
        assert capsys.readouterr().out == (
            f"run {run} (version {manifest['version']}, numpy {manifest['numpy']}, "
            f"blas_core {manifest['blas_core']})\n"
            "  stage seconds: data=0.012 embed=2.000 attacks=0.250 verify=1.000"
            " covariance=0.000 bounds=3.500\n"
            "  stage peak RSS MB: data=39.1 embed=70.0 attacks=70.0 verify=70.0 covariance=70.0"
            " bounds=71.2\n"
            "  peak RSS: process 75.5 MB, largest child 37.2 MB\n"
            "  embedding: epochs=80 bit_accuracy=0.789 fidelity=0.0105\n"
            "      independent0: detection_rate=0.375 tau=2 K=8\n"
            "           prune20: detection_rate=0.750 tau=2 K=8\n"
            "       watermarked: detection_rate=0.750 tau=2 K=8\n"
            "  bounds: p_omega=0.867 p_xi=0.734 h_minus=None h_plus=None\n"
        )

    def test_report_of_a_manifest_without_peak_rss(self, micro_run, tmp_path, capsys):
        # a run written before the manifest recorded its peak RSS reads as
        # unknown; a malformed record is refused, never printed
        _, out, _ = micro_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["peak_rss_mb"], manifest["stage_peak_rss_mb"]
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "\n  peak RSS: unknown\n" in text
        assert "stage peak RSS" not in text
        manifest["peak_rss_mb"] = {"process": "75 MB", "largest_child": 37.0}
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'peak_rss_mb'['process'] has the wrong type str" in err
        assert "Traceback" not in err

    def test_report_of_a_manifest_without_build_keys(self, micro_run, tmp_path, capsys):
        # a run written before the manifest recorded numpy and the BLAS core
        _, out, _ = micro_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["numpy"], manifest["blas_core"]
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["report", "--run", str(run)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(
            f"run {run} (version {manifest['version']}, numpy unknown, blas_core unknown)\n"
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
        ("manifest.json",
         '{"version": "0", "failures": {}, "stage_seconds": {}, "stage_peak_rss_mb": {"embed": "70"}}',
         "'stage_peak_rss_mb'['embed'] has the wrong type str"),
        ("manifest.json",
         '{"version": "0", "failures": {}, "stage_seconds": {}, "stage_peak_rss_mb": [70.0]}',
         "'stage_peak_rss_mb' has the wrong type list"),
    ], ids=["manifest-empty", "manifest-list", "manifest-unparsable", "manifest-version-int",
            "manifest-failures-list", "manifest-stage-seconds-str", "verification-missing-key",
            "verification-rate-str", "verification-null", "bounds-missing-key", "bounds-p-null",
            "manifest-stage-seconds-bool", "bounds-p-bool", "embed-log-unparsable",
            "embed-log-empty", "embed-log-epochs-dict", "embed-log-missing-fidelity",
            "embed-log-accuracy-str", "embed-log-fidelity-bool", "manifest-stage-rss-str",
            "manifest-stage-rss-list"])
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


def test_readme_library_sketch_builds_the_pipelines_bundle(tmp_path):
    # the sketch passes every setting from the config, so at a config other
    # than the default one it still builds the trigger set and bundle of
    # embed_stage, which run_pipeline runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "config = ExperimentConfig()\n" in code
    config = micro_config(seed=40, pretrain_epochs=3, encoder_hidden=(10,))
    sketch = {"CONFIG": config}
    exec(code.replace("config = ExperimentConfig()\n", "config = CONFIG\n"), sketch)
    triggers = harness.data_stage(config, tmp_path / "triggers.rmts")
    bundle, _ = harness.embed_stage(config, triggers, tmp_path)
    assert sketch["triggers"] == triggers
    for name in ("frozen_f", "watermarked_f", "encoder_e", "decoder_d"):
        assert getattr(sketch["bundle"], name).parameters_digest() == getattr(
            bundle, name
        ).parameters_digest(), name
