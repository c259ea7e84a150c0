"""Shared fixtures and test tools: a fast mini training run for unit tests,
one desk-scale run shared by the acceptance suite and directional tests, a
finite-difference gradient checker, weight sparsity, and one-trigger views
of the embedding loss and of decoding."""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.harness import (
    COVARIANCE_DRAWS, ExperimentConfig, build_trigger_set, population_distances, verify_suspect,
)
from randmark.nnengine import MlpNetwork, forward_batch
from randmark.synth import gen_synthetic_images

MINI = dict(s=64, k=16, n=8, n_triggers=16)


def gradient_check(
    net: MlpNetwork,
    loss_fn,
    grad_fn,
    fd_step: float = 1e-6,
    floor: float = 1e-12,
) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients over every weight and bias entry.

    loss_fn(net) -> float evaluates the loss at the network's current
    parameters; grad_fn(net) -> Gradients returns its analytic gradient.
    Relative error per entry is |a - fd| / max(|a|, |fd|, floor).
    """
    base = float(loss_fn(net))
    if not math.isfinite(base):
        raise ValueError("loss is non-finite at the evaluation point")
    analytic = grad_fn(net)
    worst = 0.0

    # the layers view net.params, so perturbing an entry of it moves the
    # matching weight or bias; analytic.flat shares the layout
    params = net.params
    for idx in range(params.shape[0]):
        saved = params[idx]
        params[idx] = saved + fd_step
        up = float(loss_fn(net))
        params[idx] = saved - fd_step
        down = float(loss_fn(net))
        params[idx] = saved
        fd = (up - down) / (2.0 * fd_step)
        a = analytic.flat[idx]
        err = abs(a - fd) / max(abs(a), abs(fd), floor)
        if err > worst:
            worst = err
    return worst


def sparsity(net: MlpNetwork) -> float:
    """Fraction of exactly-zero weight entries, biases excluded."""
    zeros = sum(np.count_nonzero(layer.weight == 0.0) for layer in net.layers)
    return zeros / net.weight_count()


def one_trigger(s: int, n: int, sigma: float, seed: int) -> wm.TriggerSet:
    """A one-trigger set: a uniform random image and message from seed."""
    rng = np.random.default_rng(seed)
    return wm.TriggerSet(rng.random((1, s)), rng.integers(0, 2, (1, n)), [sigma], seed)


def trigger_loss(bundle: wm.ModelBundle, triggers: wm.TriggerSet, k_draws: int, stream_seed: int):
    """The embedding loss of a one-trigger set under sample_noise's K draws
    from stream_seed, through embed_watermark's kernel: (fidelity, message,
    grads) with grads keyed watermarked_f, encoder_e, decoder_d."""
    image = triggers.images[0]
    noise = (wm.sample_noise(image, triggers.sigmas[0], k_draws, stream_seed) - image)[None]
    out_ref, _ = forward_batch(bundle.frozen_f, triggers.images)
    step = wm._EmbedStep(
        bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d,
        triggers.messages.astype(np.float64), k_draws,
    )
    fidelity, message, _, grads = step(
        out_ref, triggers.images, noise, bundle.hyper.lam, bundle.hyper.delta_scale
    )
    return fidelity, message, dict(zip(("watermarked_f", "encoder_e", "decoder_d"), grads))


def decode_one_trigger(decoder: MlpNetwork, message_bits, k_draws: int):
    """decode_triggers' soft bits (K, n), hard bits (K, n) and distances (K,)
    for one trigger carrying message_bits, through a bundle around decoder
    (a sigmoid output layer) whose watermarked backbone is the suspect; a
    decoder with zero weights reads the same bits from every embedding."""
    s, k, n = 4, decoder.input_dim, decoder.output_dim
    backbone = ne.init_network([s, k], ["identity"], 0)
    bundle = wm.ModelBundle(
        backbone, backbone, ne.init_network([s + n, s], ["tanh"], 1), decoder, wm.HyperParams()
    )
    triggers = wm.TriggerSet(np.full((1, s), 0.5), [message_bits], [0.1], 0)
    soft, hard, distances = wm.decode_triggers(backbone, bundle, triggers, k_draws, 3)
    return soft[0], hard[0], distances[0]


def see_cpus(monkeypatch, count):
    """Show the process `count` CPUs and no thread besides its main one (a
    BLAS pinned to one thread), under which population training uses one
    worker per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(atk, "_running_threads", lambda: 1)


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
    covariance_distances: dict = field(default_factory=dict)  # as the covariance stage decodes
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
    models, verify everything with one shared noise stream, and decode
    everything again as the covariance stage does."""
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
    suspects["prune20"] = ne.l1_unstructured_prune(bundle.watermarked_f, 0.2)
    suspects["prune40"] = ne.l1_unstructured_prune(bundle.watermarked_f, 0.4)
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
    run.covariance_distances = dict(zip(suspects, population_distances(
        list(suspects.values()), bundle, triggers, COVARIANCE_DRAWS, verify_seed
    )))

    held = gen_synthetic_images(500, config.s, 777_777)
    out_ref, _ = forward_batch(bundle.frozen_f, held)
    out_wm, _ = forward_batch(bundle.watermarked_f, held)
    num = float(np.sqrt(((out_wm - out_ref) ** 2).sum(axis=1)).mean())
    den = float(np.sqrt((out_ref**2).sum(axis=1)).mean())
    run.fidelity_ratio = num / den
    run.build_seconds = time.perf_counter() - t_start
    return run
