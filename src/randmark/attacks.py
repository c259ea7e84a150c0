"""Functional perturbations of a backbone and independent-model builders.

Functional copies come from fine-tuning on a synthetic downstream task,
magnitude pruning, or embedding distillation into a fresh student.
Independent models are trained from scratch on a masked-pixel
reconstruction objective and never see the watermark bundle, the trigger
set, or any message. Fine-tuning, distillation and independent models train
in one minibatch AdamW loop, _fit, given each batch's loss gradient.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .nnengine import (
    ForwardTrace,
    Gradients,
    MlpNetwork,
    OptimizerState,
    _worker_count,
    backward,
    forward_batch,
    init_network,
    l1_unstructured_prune,
    optimizer_step,
)
from .synth import gen_synthetic_images
from .watermark import ModelBundle, TrainingDiverged

logger = logging.getLogger(__name__)

ATTACK_KINDS = ("finetune", "prune", "distill")

# Omega models drifting beyond this relative embedding error are not
# functional copies any more and are dropped from populations.
FUNCTIONALITY_LIMIT = 0.5

# Training settings of the synthetic tasks, the attacks and make_independent.
_BLOB_SPREAD = 0.08
_FINETUNE_BATCH = 64
_DISTILL_BATCH = 256
_MASK_FRACTION = 0.25
_INDEPENDENT_LR = 2e-3
_INDEPENDENT_BATCH = 128


@dataclass
class AttackSpec:
    kind: str
    epochs: int = 0
    lr: float = 1e-3
    fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"kind must be one of {ATTACK_KINDS}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("prune fraction must lie in [0, 1]")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")


@dataclass
class DownstreamTask:
    """Synthetic labeled classification data in the backbone's input space."""

    inputs: np.ndarray  # (B, s)
    labels: np.ndarray  # (B,) ints in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must align")


def make_blob_task(
    s: int, n_classes: int = 4, n_samples: int = 512, *, seed: int
) -> DownstreamTask:
    """Gaussian blobs of standard deviation 0.08 around distinct texture
    centers, one per class."""
    rng = np.random.default_rng(seed)
    centers = gen_synthetic_images(n_classes, s, seed + 1)
    labels = rng.integers(0, n_classes, size=n_samples)
    inputs = centers[labels] + _BLOB_SPREAD * rng.standard_normal((n_samples, s))
    return DownstreamTask(inputs=inputs, labels=labels, n_classes=n_classes)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _fit(net: MlpNetwork, lr: float, n_samples: int, batch: int, epochs: int, rng, grad):
    """Train net in place with AdamW at learning rate lr for epochs passes
    over n_samples samples, each in the order of one rng.permutation, in
    batches of batch; return net. grad(idx, trace) runs the forward of the
    samples idx into trace and returns d(loss)/d(output) of those rows.
    Every step reuses one trace and one gradient buffer; a short last batch
    uses their leading rows."""
    state = OptimizerState.fresh(net, lr=lr)
    rows = min(batch, n_samples)
    trace, grads = ForwardTrace.empty(net, rows), Gradients.empty(net, rows, wrt_input=False)
    for _ in range(epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch):
            idx = order[start : start + batch]
            g = backward(net, trace, grad(idx, trace), wrt_input=False, into=grads)
            optimizer_step(net, g, state)
    return net


def finetune_attack(
    backbone: MlpNetwork, task: DownstreamTask, epochs: int, lr: float, seed: int
) -> MlpNetwork:
    """Fine-tune every backbone layer through a fresh linear head with
    cross-entropy in batches of 64. The backbone and head train as one
    network, which is returned with the head as its last layer."""
    rng = np.random.default_rng(seed)
    head = init_network([backbone.output_dim, task.n_classes], ["identity"], rng)
    net = MlpNetwork(backbone.layers + head.layers)
    onehot = np.eye(task.n_classes)[task.labels]

    def grad(idx, trace):
        logits, _ = forward_batch(net, task.inputs[idx], into=trace)
        probs = _softmax(logits)
        if not np.isfinite(probs).all():
            raise TrainingDiverged("fine-tuning diverged: non-finite logits")
        probs -= onehot[idx]
        probs /= idx.size
        return probs

    return _fit(net, lr, task.inputs.shape[0], _FINETUNE_BATCH, epochs, rng, grad)


def distill_attack(
    teacher: MlpNetwork, student_hidden: tuple[int, ...], data_seed: int, epochs: int, lr: float,
    n_inputs: int = 5000, *, seed: int,
) -> MlpNetwork:
    """Train a fresh random student with the given hidden widths to match the
    teacher's embeddings on synthetic unlabeled inputs with mean squared
    error, in batches of 256; return the student."""
    s, k = teacher.input_dim, teacher.output_dim
    dims = [s, *student_hidden, k]
    student = init_network(
        dims, ["tanh"] * (len(dims) - 2) + ["identity"], np.random.default_rng(seed)
    )
    inputs = gen_synthetic_images(n_inputs, s, data_seed)
    targets, _ = forward_batch(teacher, inputs)
    g_out = np.empty((min(_DISTILL_BATCH, n_inputs), k))

    def grad(idx, trace):
        out, _ = forward_batch(student, inputs[idx], into=trace)
        diff = np.subtract(out, targets[idx], out=g_out[: idx.size])
        if not np.isfinite(diff).all():
            raise TrainingDiverged("distillation diverged: non-finite outputs")
        diff *= 2.0
        diff /= idx.size
        return diff

    rng = np.random.default_rng(seed + 1)
    return _fit(student, lr, n_inputs, _DISTILL_BATCH, epochs, rng, grad)


def make_independent(
    dims, seed: int, pretrain_data_seed: int, epochs: int, n_images: int
) -> MlpNetwork:
    """Backbone trained from scratch to reconstruct masked pixels through
    its embedding bottleneck; a linear reconstruction head is used during
    training and discarded. The routine sees only its own synthetic data.
    Each pixel is masked with probability 0.25, and AdamW trains at learning
    rate 2e-3 in batches of 128 images. A step multiplies its batch into a
    buffer by a keep mask drawn after the epoch's permutation from the same
    generator (pixels lie in [0, 1], so a masked pixel is +0.0).
    """
    dims = list(dims)
    s = dims[0]
    rng = np.random.default_rng(seed)
    net = init_network(dims + [s], ["tanh"] * (len(dims) - 2) + ["identity"] * 2, rng)
    images = gen_synthetic_images(n_images, s, pretrain_data_seed)
    masked = np.empty((min(_INDEPENDENT_BATCH, n_images), s))
    g_out = np.empty_like(masked)

    def grad(idx, trace):
        batch = images[idx]
        keep = rng.random(batch.shape) >= _MASK_FRACTION
        inputs = np.multiply(batch, keep, out=masked[: idx.size])
        recon, _ = forward_batch(net, inputs, into=trace)
        g = np.subtract(recon, batch, out=g_out[: idx.size])
        g *= 2.0
        g /= idx.size
        return g

    _fit(net, _INDEPENDENT_LR, n_images, _INDEPENDENT_BATCH, epochs, rng, grad)
    return MlpNetwork(net.layers[:-1])


def _train_independent(job) -> MlpNetwork:
    """Worker job of IndependentPool. Module-level and private, so that a
    worker process unpickles it by name even while a profiler has replaced
    the public functions with wrappers. job is make_independent's arguments:
    (dims, seed, data seed, epochs, images)."""
    return make_independent(*job)


class IndependentPool:
    """Trains make_independent models in forked worker processes while the
    caller goes on with other work, or in-process when there is one worker.

    Sized for `jobs` models by nnengine's _worker_count: one worker per CPU
    in the affinity mask when BLAS runs one thread. The workers are forked
    at the first submit, so submit while the process is still small and
    runs no other thread (forward_batch's idle helpers aside). Jobs start in
    submission order. Each model is trained whole by make_independent in one
    process from its own seeds, so it is bit-identical to one trained
    serially.

    Use it as a context manager: on exit, jobs not yet started are cancelled
    and the workers and the pool's threads are joined (a running job is
    waited for).
    """

    def __init__(self, jobs: int):
        workers = _worker_count(jobs)
        self._executor = None
        if workers > 1:
            context = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(workers, mp_context=context)

    def submit(self, dims, seeds, data_seeds, epochs: int, n_images: int) -> Iterator[MlpNetwork]:
        """The model of each (seed, data seed) pair, in seed order, as
        iteration asks for it: next() blocks until that model is trained and
        raises its job's exception, and the iterator keeps no model it has
        handed out. Every job is submitted in the call; with one worker,
        next() trains the model."""
        jobs = [
            (list(dims), seed, data_seed, epochs, n_images)
            for seed, data_seed in zip(seeds, data_seeds, strict=True)
        ]
        if self._executor is None:
            return map(_train_independent, jobs)
        return self._executor.map(_train_independent, jobs)

    def __enter__(self) -> "IndependentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)


def relative_embedding_error(
    model: MlpNetwork, reference: MlpNetwork, inputs: np.ndarray
) -> float:
    """Mean per-input embedding distance relative to the reference norm."""
    return _relative_error(forward_batch(model, inputs)[0], forward_batch(reference, inputs)[0])


def _relative_error(out_m: np.ndarray, out_r: np.ndarray) -> float:
    """relative_embedding_error of a model's embeddings out_m against the
    reference's out_r of the same inputs."""
    norms = np.sqrt((out_r**2).sum(axis=1))
    dists = np.sqrt(((out_m - out_r) ** 2).sum(axis=1))
    return float((dists / np.maximum(norms, 1e-12)).mean())


def apply_attack(bundle: ModelBundle, spec: AttackSpec) -> MlpNetwork:
    """Run one functional-copy attack against the watermarked backbone."""
    base = bundle.watermarked_f
    if spec.kind == "prune":
        return l1_unstructured_prune(base, spec.fraction)
    if spec.kind == "finetune":
        task = make_blob_task(base.input_dim, seed=spec.seed)
        net = finetune_attack(base, task, spec.epochs, spec.lr, seed=spec.seed)
        return MlpNetwork(net.layers[:-1])
    return distill_attack(  # a student as wide as the backbone
        base, tuple(layer.out_dim for layer in base.layers[:-1]), data_seed=spec.seed + 17,
        epochs=spec.epochs, lr=spec.lr, seed=spec.seed,
    )


@dataclass
class PopulationResult:
    models: Iterable[MlpNetwork]
    rows: list[dict]  # manifest, one per model in model order: index, kind, seeds, settings
    excluded: int = 0


def _random_omega_spec(rng: np.random.Generator, seed: int) -> AttackSpec:
    """The omega populations' functional-copy mixture: fine-tuning and
    pruning, the perturbations a copy survives with its watermark intact at
    this scale. Distillation (fresh student on synthetic data) strips the
    watermark and mostly fails the functionality gate, so it is left out."""
    kind = rng.choice(["finetune", "prune"])
    if kind == "prune":
        return AttackSpec(kind="prune", fraction=float(rng.uniform(0.05, 0.45)), seed=seed)
    return AttackSpec(kind="finetune", epochs=int(rng.integers(1, 4)), lr=1e-3, seed=seed)


def sample_model_population(
    bundle: ModelBundle, kind: str, m_models: int, seed: int
) -> PopulationResult:
    """M functional copies of the watermarked backbone (the omega
    population), with per-model seeds derived from the master seed plus the
    model index. kind must be "omega": it stays, with m_models after it, only
    for the benchmark tracer, which reads both by position. The independent
    (xi) population is harness.submit_xi's, trained in the caller's pool.

    Copies come from the randomized attack mixture of _random_omega_spec.
    Those failing the functionality check (relative embedding error beyond
    FUNCTIONALITY_LIMIT on 128 held-out synthetic images) are excluded with
    a warning.
    """
    if kind != "omega":
        raise ValueError(f"kind must be 'omega', got {kind!r}: harness.submit_xi samples xi")
    if m_models < 1:
        raise ValueError("need at least one model")
    result = PopulationResult(models=[], rows=[])
    heldout_inputs = gen_synthetic_images(128, bundle.s, seed + 999)
    reference, _ = forward_batch(bundle.watermarked_f, heldout_inputs)  # the same for every copy
    mix_rng = np.random.default_rng(seed)
    for index in range(m_models):
        model_seed = seed + index
        spec = _random_omega_spec(mix_rng, model_seed)
        model = apply_attack(bundle, spec)
        error = _relative_error(forward_batch(model, heldout_inputs)[0], reference)
        if error >= FUNCTIONALITY_LIMIT:
            logger.warning(
                "omega model %d (%s) excluded: relative embedding error %.3f",
                index,
                spec.kind,
                error,
            )
            result.excluded += 1
            continue
        result.models.append(model)
        result.rows.append(
            {
                "index": index,
                "kind": spec.kind,
                "seed": model_seed,
                "epochs": spec.epochs,
                "lr": spec.lr,
                "fraction": spec.fraction,
            }
        )
    return result
