"""Functional perturbations of a backbone and independent-model builders.

Functional copies come from fine-tuning on a synthetic downstream task,
magnitude pruning, or embedding distillation into a fresh student.
Independent models are trained from scratch on a masked-pixel
reconstruction objective and never see the watermark bundle, the trigger
set, or any message.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

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
    seed: int

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must align")


def make_blob_task(
    s: int, n_classes: int = 4, n_samples: int = 512, seed: int = 0
) -> DownstreamTask:
    """Gaussian blobs of standard deviation 0.08 around distinct texture
    centers, one per class."""
    rng = np.random.default_rng(seed)
    centers = gen_synthetic_images(n_classes, s, seed + 1)
    labels = rng.integers(0, n_classes, size=n_samples)
    inputs = centers[labels] + _BLOB_SPREAD * rng.standard_normal((n_samples, s))
    return DownstreamTask(inputs=inputs, labels=labels, n_classes=n_classes, seed=seed)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def finetune_attack(
    backbone: MlpNetwork, task: DownstreamTask, epochs: int, lr: float, seed: int = 0
) -> tuple[MlpNetwork, float]:
    """Fine-tune every backbone layer through a fresh linear head with
    cross-entropy in batches of 64; the head is discarded. The backbone and
    head train as one network under one optimizer state, and every step
    reuses one trace and one gradient buffer. Returns (backbone, accuracy)."""
    rng = np.random.default_rng(seed)
    head = init_network([backbone.output_dim, task.n_classes], ["identity"], rng)
    net = MlpNetwork(backbone.layers + head.layers)
    state = OptimizerState.fresh(net, lr=lr)
    n_samples = task.inputs.shape[0]
    rows = min(_FINETUNE_BATCH, n_samples)
    trace, grads = ForwardTrace.empty(net, rows), Gradients.empty(net, rows, wrt_input=False)
    onehot = np.eye(task.n_classes)[task.labels]
    for _ in range(epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, _FINETUNE_BATCH):
            idx = order[start : start + _FINETUNE_BATCH]
            logits, _ = forward_batch(net, task.inputs[idx], into=trace)
            probs = _softmax(logits)
            if not np.isfinite(probs).all():
                raise TrainingDiverged("fine-tuning diverged: non-finite logits")
            probs -= onehot[idx]
            probs /= idx.size
            optimizer_step(net, backward(net, trace, probs, wrt_input=False, into=grads), state)
    logits, _ = forward_batch(net, task.inputs)
    accuracy = float((logits.argmax(axis=1) == task.labels).mean())
    return MlpNetwork(net.layers[:-1]), accuracy


def distill_attack(
    teacher: MlpNetwork,
    student_hidden: tuple[int, ...],
    data_seed: int,
    epochs: int,
    lr: float = 1e-3,
    n_inputs: int = 5000,
    seed: int = 0,
) -> tuple[MlpNetwork, float]:
    """Train a fresh random student with the given hidden widths to match the
    teacher's embeddings on synthetic unlabeled inputs, in batches of 256;
    every step reuses one trace, one output-gradient buffer and one gradient
    buffer. Returns (student, final mean squared matching loss)."""
    s, k = teacher.input_dim, teacher.output_dim
    dims = [s, *student_hidden, k]
    student = init_network(
        dims, ["tanh"] * (len(dims) - 2) + ["identity"], np.random.default_rng(seed)
    )
    inputs = gen_synthetic_images(n_inputs, s, data_seed)
    targets, _ = forward_batch(teacher, inputs)
    state = OptimizerState.fresh(student, lr=lr)
    rows = min(_DISTILL_BATCH, n_inputs)
    trace = ForwardTrace.empty(student, rows)
    grads = Gradients.empty(student, rows, wrt_input=False)
    g_out = np.empty((rows, k))
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(n_inputs)
        for start in range(0, n_inputs, _DISTILL_BATCH):
            idx = order[start : start + _DISTILL_BATCH]
            out, _ = forward_batch(student, inputs[idx], into=trace)
            diff = np.subtract(out, targets[idx], out=g_out[: idx.size])
            if not np.isfinite(diff).all():
                raise TrainingDiverged("distillation diverged: non-finite outputs")
            diff *= 2.0
            diff /= idx.size
            optimizer_step(
                student, backward(student, trace, diff, wrt_input=False, into=grads), state
            )
    out, _ = forward_batch(student, inputs)
    final_loss = float(((out - targets) ** 2).mean())
    return student, final_loss


def make_independent(
    dims, seed: int, pretrain_data_seed: int, epochs: int = 40, n_images: int = 400
) -> MlpNetwork:
    """Backbone trained from scratch to reconstruct masked pixels through
    its embedding bottleneck; a linear reconstruction head is used during
    training and discarded. The routine sees only its own synthetic data.
    Each pixel is masked with probability 0.25, and AdamW trains at learning
    rate 2e-3 in batches of 128 images.

    The backbone and head train as one network under one optimizer state.
    A step masks its batch into a preallocated buffer by multiplying with
    the keep mask (pixels lie in [0, 1], so a masked pixel is +0.0), builds
    the output gradient in another, and runs forward and backward in one
    trace and one gradient buffer; the last batch of an epoch uses their
    leading rows.
    """
    dims = list(dims)
    s = dims[0]
    rng = np.random.default_rng(seed)
    net = init_network(dims + [s], ["tanh"] * (len(dims) - 2) + ["identity"] * 2, rng)
    images = gen_synthetic_images(n_images, s, pretrain_data_seed)
    state = OptimizerState.fresh(net, lr=_INDEPENDENT_LR)
    masked = np.empty((min(_INDEPENDENT_BATCH, n_images), s))
    g_out = np.empty_like(masked)
    trace = ForwardTrace.empty(net, len(masked))
    grads = Gradients.empty(net, len(masked), wrt_input=False)
    for _ in range(epochs):
        order = rng.permutation(n_images)
        for start in range(0, n_images, _INDEPENDENT_BATCH):
            idx = order[start : start + _INDEPENDENT_BATCH]
            batch = images[idx]
            inputs = np.multiply(
                batch, rng.random(batch.shape) >= _MASK_FRACTION, out=masked[: idx.size]
            )
            recon, _ = forward_batch(net, inputs, into=trace)
            g = np.subtract(recon, batch, out=g_out[: idx.size])
            g *= 2.0
            g /= idx.size
            optimizer_step(net, backward(net, trace, g, wrt_input=False, into=grads), state)
    return MlpNetwork(net.layers[:-1])


def _train_independent(job) -> MlpNetwork:
    """Worker job of IndependentPool. Module-level and private, so that a
    worker process unpickles it by name even while a profiler has replaced
    the public functions with wrappers."""
    dims, seed, data_seed, epochs, n_images = job
    return make_independent(
        dims, seed=seed, pretrain_data_seed=data_seed, epochs=epochs, n_images=n_images
    )


class IndependentPool:
    """Trains make_independent models in forked worker processes while the
    caller goes on with other work, or in-process when there is one worker.

    Sized for `jobs` models by nnengine's _worker_count: one worker per CPU
    in the affinity mask when BLAS runs one thread. The workers are forked
    at the first submit, so open the pool while the process is still small
    and runs no other thread (forward_batch's idle helpers aside). Jobs
    start in submission order. Each model is trained whole by
    make_independent in one process from its own seeds, so it is
    bit-identical to one trained serially.

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

    def submit(
        self, dims, seeds, data_seeds, epochs: int, n_images: int
    ) -> list[Callable[[], MlpNetwork]]:
        """One result getter per (seed, data seed) pair, in seed order. A
        getter blocks until its model is trained and raises the job's
        exception; with one worker it trains the model when called."""
        jobs = [
            (list(dims), seed, data_seed, epochs, n_images)
            for seed, data_seed in zip(seeds, data_seeds, strict=True)
        ]
        if self._executor is None:
            return [partial(_train_independent, job) for job in jobs]
        return [self._executor.submit(_train_independent, job).result for job in jobs]

    def __enter__(self) -> "IndependentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)


def relative_embedding_error(
    model: MlpNetwork, reference: MlpNetwork, inputs: np.ndarray
) -> float:
    """Mean per-input embedding distance relative to the reference norm."""
    out_m, _ = forward_batch(model, inputs)
    out_r, _ = forward_batch(reference, inputs)
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
        net, _ = finetune_attack(base, task, spec.epochs, spec.lr, seed=spec.seed)
        return net
    student, _ = distill_attack(  # a student as wide as the backbone
        base, tuple(layer.out_dim for layer in base.layers[:-1]), data_seed=spec.seed + 17,
        epochs=spec.epochs, lr=spec.lr, seed=spec.seed,
    )
    return student


@dataclass
class PopulationResult:
    models: Iterable[MlpNetwork]
    rows: list[dict]  # manifest, one per model in model order: index, kind, seeds, settings
    excluded: int = 0


def xi_population(
    pool: IndependentPool, dims, seed: int, m_models: int, epochs: int, n_images: int
) -> PopulationResult:
    """The independent (xi) population of a master seed, submitted to the
    pool: model i trains from seed + i on pretraining data seed
    seed + i + 10000, for epochs over n_images images. Its models come in
    seed order as iteration asks for them, and the population keeps no model
    it has handed out; iterate them while the pool is open."""
    seeds = range(seed, seed + m_models)
    data_seeds = [s + 10_000 for s in seeds]
    getters = pool.submit(dims, seeds, data_seeds, epochs, n_images)
    rows = [
        {"index": i, "kind": "independent", "seed": s, "data_seed": d,
         "pretrain_epochs": epochs, "pretrain_images": n_images}
        for i, (s, d) in enumerate(zip(seeds, data_seeds))
    ]
    return PopulationResult(_results(getters), rows)


def _results(getters: list[Callable[[], MlpNetwork]]) -> Iterator[MlpNetwork]:
    """Each getter's model, in order. A getter is dropped before its model
    is handed out: a finished future's getter would keep its model alive."""
    getters.reverse()
    while getters:
        yield getters.pop()()


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
    (xi) population is xi_population's, trained in the caller's pool.

    Copies come from the randomized attack mixture of _random_omega_spec.
    Those failing the functionality check (relative embedding error beyond
    FUNCTIONALITY_LIMIT on 128 held-out synthetic images) are excluded with
    a warning.
    """
    if kind != "omega":
        raise ValueError(f"kind must be 'omega', got {kind!r}: xi_population samples xi")
    if m_models < 1:
        raise ValueError("need at least one model")
    result = PopulationResult(models=[], rows=[])
    heldout_inputs = gen_synthetic_images(128, bundle.s, seed + 999)
    mix_rng = np.random.default_rng(seed)
    for index in range(m_models):
        model_seed = seed + index
        spec = _random_omega_spec(mix_rng, model_seed)
        model = apply_attack(bundle, spec)
        error = relative_embedding_error(model, bundle.watermarked_f, heldout_inputs)
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
