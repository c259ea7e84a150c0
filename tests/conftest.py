"""Shared fixtures: a fast mini training run for unit tests and one
desk-scale run shared by the acceptance suite and directional tests."""

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.harness import ExperimentConfig, build_trigger_set, verify_suspect
from randmark.nnengine import MlpNetwork, forward_batch
from randmark.synth import gen_synthetic_images

MINI = dict(s=64, k=16, n=8, n_triggers=16)


def see_cpus(monkeypatch, count):
    """Show the process `count` CPUs and no thread besides its main one (a
    BLAS pinned to one thread), under which population training and
    decode_triggers use one worker per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(ne, "_running_threads", lambda: 1)


@dataclass
class MiniRun:
    triggers: wm.TriggerSet
    source_f: MlpNetwork
    bundle: wm.ModelBundle
    log: wm.TrainingLog


@pytest.fixture(scope="session")
def mini_run() -> MiniRun:
    images = gen_synthetic_images(MINI["n_triggers"], MINI["s"], 11)
    triggers = build_trigger_set(images, MINI["n"], 0.1, 12)
    source = atk.make_independent(
        [MINI["s"], 48, MINI["k"]], seed=13, pretrain_data_seed=14, epochs=30, n_images=120
    )
    hyper = wm.HyperParams(lam=1.0, k_train=6, epochs=150, learning_rate=2e-3)
    bundle = wm.ModelBundle.create(
        source, MINI["n"], encoder_hidden=(64,), decoder_hidden=(32,), hyper=hyper, seed=15
    )
    bundle, log = wm.embed_watermark(bundle, triggers)
    return MiniRun(triggers=triggers, source_f=source, bundle=bundle, log=log)


@dataclass
class DeskRun:
    config: ExperimentConfig
    triggers: wm.TriggerSet
    bundle: wm.ModelBundle
    log: wm.TrainingLog
    suspects: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    distances: dict = field(default_factory=dict)
    finetune_accuracy: float = 0.0
    fidelity_ratio: float = 0.0
    build_seconds: float = 0.0

    @property
    def independent_ids(self):
        return [k for k in self.reports if k.startswith("independent")]


@pytest.fixture(scope="session")
def desk_run() -> DeskRun:
    """Full separation experiment at the default desk configuration:
    embed, attack (two prune levels, one fine-tune), ten independent
    models, verify everything with one shared noise stream."""
    t_start = time.perf_counter()
    config = ExperimentConfig()
    images = gen_synthetic_images(config.trigger_count, config.s, config.seed + 1)
    triggers = build_trigger_set(images, config.n, config.sigma_scale, config.seed + 2)
    source = atk.make_independent(
        config.backbone_dims,
        seed=config.seed + 3,
        pretrain_data_seed=config.seed + 4,
        epochs=config.pretrain_epochs,
        n_images=config.pretrain_images,
    )
    bundle = wm.ModelBundle.create(
        source,
        config.n,
        encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden,
        hyper=config.hyper(),
        seed=config.seed + 5,
    )
    bundle, log = wm.embed_watermark(bundle, triggers)
    run = DeskRun(config=config, triggers=triggers, bundle=bundle, log=log)

    suspects = run.suspects
    suspects["watermarked"] = bundle.watermarked_f
    suspects["prune20"] = atk.prune_attack(bundle.watermarked_f, 0.2)
    suspects["prune40"] = atk.prune_attack(bundle.watermarked_f, 0.4)
    task = atk.make_blob_task(config.s, n_classes=4, seed=config.seed)
    finetuned, accuracy = atk.finetune_attack(
        bundle.watermarked_f, task, epochs=3, lr=1e-3, seed=config.seed
    )
    run.finetune_accuracy = accuracy
    suspects["finetune3"] = finetuned
    for i in range(10):
        suspects[f"independent{i}"] = atk.make_independent(
            config.backbone_dims,
            seed=config.seed + 100 + i,
            pretrain_data_seed=config.seed + 200 + i,
            epochs=config.pretrain_epochs,
            n_images=config.pretrain_images,
        )

    verify_seed = config.seed + 6
    for name, net in suspects.items():
        run.reports[name], run.distances[name] = verify_suspect(
            net, bundle, triggers, config.tau, config.k_verify, verify_seed, name
        )

    held = gen_synthetic_images(500, config.s, 777_777)
    out_ref, _ = forward_batch(bundle.frozen_f, held)
    out_wm, _ = forward_batch(bundle.watermarked_f, held)
    num = float(np.sqrt(((out_wm - out_ref) ** 2).sum(axis=1)).mean())
    den = float(np.sqrt((out_ref**2).sum(axis=1)).mean())
    run.fidelity_ratio = num / den
    run.build_seconds = time.perf_counter() - t_start
    return run
