"""Functional perturbations of a backbone and independent-model builders.

Functional copies come from fine-tuning on a synthetic downstream task,
magnitude pruning, or embedding distillation into a fresh student.
Independent models are trained from scratch on a masked-pixel
reconstruction objective and never see the watermark bundle, the trigger
set, or any message.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .nnengine import (
    MlpNetwork,
    OptimizerState,
    backward,
    forward_batch,
    init_network,
    l1_unstructured_prune,
    optimizer_step,
)
from .synth import gen_synthetic_images
from .watermark import ModelBundle

logger = logging.getLogger(__name__)

ATTACK_KINDS = ("finetune", "prune", "distill", "independent")

# Omega models drifting beyond this relative embedding error are not
# functional copies any more and are dropped from populations.
FUNCTIONALITY_LIMIT = 0.5


@dataclass
class AttackSpec:
    kind: str
    epochs: int = 0
    lr: float = 1e-3
    fraction: float = 0.0
    student_hidden: tuple[int, ...] | None = None
    n_classes: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"kind must be one of {ATTACK_KINDS}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("prune fraction must lie in [0, 1]")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


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
    s: int, n_classes: int = 4, n_samples: int = 512, seed: int = 0, spread: float = 0.08
) -> DownstreamTask:
    """Gaussian blobs around distinct texture centers, one per class."""
    rng = np.random.default_rng(seed)
    centers = gen_synthetic_images(n_classes, s, seed + 1)
    labels = rng.integers(0, n_classes, size=n_samples)
    inputs = centers[labels] + spread * rng.standard_normal((n_samples, s))
    return DownstreamTask(inputs=inputs, labels=labels, n_classes=n_classes, seed=seed)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def finetune_attack(
    backbone: MlpNetwork,
    task: DownstreamTask,
    epochs: int,
    lr: float,
    seed: int = 0,
    batch_size: int = 64,
) -> tuple[MlpNetwork, float]:
    """Fine-tune every backbone layer through a fresh linear head with
    cross-entropy; the head is discarded. Returns (backbone, accuracy)."""
    net = backbone.copy()
    k = net.output_dim
    rng = np.random.default_rng(seed)
    head = init_network([k, task.n_classes], ["identity"], rng)
    st_net = OptimizerState.fresh(net, lr=lr)
    st_head = OptimizerState.fresh(head, lr=lr)
    n_samples = task.inputs.shape[0]
    onehot = np.eye(task.n_classes)[task.labels]
    for _ in range(epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            idx = order[start : start + batch_size]
            emb, tr_net = forward_batch(net, task.inputs[idx])
            logits, tr_head = forward_batch(head, emb)
            probs = _softmax(logits)
            if not np.isfinite(probs).all():
                raise RuntimeError("fine-tuning diverged: non-finite logits")
            g_logits = (probs - onehot[idx]) / idx.size
            g_head = backward(head, tr_head, g_logits)
            g_net = backward(net, tr_net, g_head.wrt_input, wrt_input=False)
            optimizer_step(head, g_head, st_head)
            optimizer_step(net, g_net, st_net)
    emb, _ = forward_batch(net, task.inputs)
    logits, _ = forward_batch(head, emb)
    accuracy = float((logits.argmax(axis=1) == task.labels).mean())
    return net, accuracy


def prune_attack(backbone: MlpNetwork, fraction: float) -> MlpNetwork:
    """Global smallest-magnitude weight pruning, biases exempt."""
    return l1_unstructured_prune(backbone, fraction)


def distill_attack(
    teacher: MlpNetwork,
    student_hidden: tuple[int, ...],
    data_seed: int,
    epochs: int,
    lr: float = 1e-3,
    n_inputs: int = 5000,
    batch_size: int = 256,
    seed: int = 0,
    student_init: MlpNetwork | None = None,
) -> tuple[MlpNetwork, float]:
    """Train a student to match the teacher's embeddings on synthetic
    unlabeled inputs. Returns (student, final mean squared matching loss).

    By default the student is a fresh random network with the given hidden
    widths; student_init warm-starts from an existing network instead.
    """
    s, k = teacher.input_dim, teacher.output_dim
    if student_init is not None:
        student = student_init.copy()
    else:
        dims = [s, *student_hidden, k]
        student = init_network(
            dims, ["tanh"] * (len(dims) - 2) + ["identity"], np.random.default_rng(seed)
        )
    if student.output_dim != k or student.input_dim != s:
        raise ValueError("student must map the teacher's input to its output space")
    inputs = gen_synthetic_images(n_inputs, s, data_seed)
    targets, _ = forward_batch(teacher, inputs)
    state = OptimizerState.fresh(student, lr=lr)
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(n_inputs)
        for start in range(0, n_inputs, batch_size):
            idx = order[start : start + batch_size]
            out, trace = forward_batch(student, inputs[idx])
            diff = out - targets[idx]
            if not np.isfinite(diff).all():
                raise RuntimeError("distillation diverged: non-finite outputs")
            grads = backward(student, trace, 2.0 * diff / idx.size, wrt_input=False)
            optimizer_step(student, grads, state)
    out, _ = forward_batch(student, inputs)
    final_loss = float(((out - targets) ** 2).mean())
    return student, final_loss


def make_independent(
    dims,
    seed: int,
    pretrain_data_seed: int,
    epochs: int = 40,
    n_images: int = 400,
    mask_fraction: float = 0.25,
    lr: float = 2e-3,
    batch_size: int = 128,
) -> MlpNetwork:
    """Backbone trained from scratch to reconstruct masked pixels through
    its embedding bottleneck; a linear reconstruction head is used during
    training and discarded. The routine sees only its own synthetic data."""
    dims = list(dims)
    s, k = dims[0], dims[-1]
    rng = np.random.default_rng(seed)
    backbone = init_network(dims, ["tanh"] * (len(dims) - 2) + ["identity"], rng)
    head = init_network([k, s], ["identity"], rng)
    images = gen_synthetic_images(n_images, s, pretrain_data_seed)
    st_backbone = OptimizerState.fresh(backbone, lr=lr)
    st_head = OptimizerState.fresh(head, lr=lr)
    for _ in range(epochs):
        order = rng.permutation(n_images)
        for start in range(0, n_images, batch_size):
            idx = order[start : start + batch_size]
            batch = images[idx]
            mask = rng.random(batch.shape) < mask_fraction
            emb, tr_b = forward_batch(backbone, np.where(mask, 0.0, batch))
            recon, tr_h = forward_batch(head, emb)
            g_out = 2.0 * (recon - batch) / idx.size
            g_head = backward(head, tr_h, g_out)
            g_backbone = backward(backbone, tr_b, g_head.wrt_input, wrt_input=False)
            optimizer_step(head, g_head, st_head)
            optimizer_step(backbone, g_backbone, st_backbone)
    return backbone


def _train_independent(job) -> MlpNetwork:
    """Worker job of IndependentPool. Module-level and private, so that a
    worker process unpickles it by name even while a profiler has replaced
    the public functions with wrappers."""
    dims, seed, data_seed, epochs, n_images = job
    return make_independent(
        dims, seed=seed, pretrain_data_seed=data_seed, epochs=epochs, n_images=n_images
    )


def _running_threads() -> int:
    """OS threads of this process, BLAS threads included (Linux only)."""
    return len(os.listdir("/proc/self/task"))


def _worker_count(jobs: int) -> int:
    """Worker processes for an IndependentPool: one per CPU in the affinity
    mask, at most one per job, if this process runs no thread besides its
    main one; otherwise 1, which trains in-process.

    numpy's OpenBLAS starts its threads when it loads, unless it is pinned to
    one thread before that (RANDMARK_THREADS=1 or OPENBLAS_NUM_THREADS=1 set
    before Python starts). So a single-threaded process has a BLAS pinned to
    one thread, as each forked worker then has, and a fork copies no running
    thread. With two workers on an unpinned BLAS, a default pipeline on 2
    CPUs took 2-3x longer than serially.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = _running_threads()
    except (AttributeError, OSError):  # no affinity mask or /proc: stay serial
        return 1
    return min(jobs, cpus) if threads == 1 else 1


class IndependentPool:
    """Trains make_independent models in forked worker processes while the
    caller goes on with other work, or in-process when there is one worker.

    Sized for `jobs` models by _worker_count: one worker per CPU in the
    affinity mask when BLAS is pinned to one thread. The workers are forked
    at the first submit, so open the pool while the process is still small
    and single-threaded. Jobs start in submission order. Each model is
    trained whole by make_independent in one process from its own seeds, so
    it is bit-identical to one trained serially.

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


def train_independents(dims, seeds, data_seeds, epochs: int, n_images: int) -> list[MlpNetwork]:
    """One make_independent model per (seed, data seed) pair, in seed order,
    trained side by side in an IndependentPool of their own."""
    with IndependentPool(len(seeds)) as pool:
        return [get() for get in pool.submit(dims, seeds, data_seeds, epochs, n_images)]


def xi_seeds(seed: int, m_models: int) -> tuple[list[int], list[int]]:
    """Model and pretraining-data seeds of an independent (xi) population:
    seed + index and seed + index + 10000."""
    seeds = [seed + index for index in range(m_models)]
    return seeds, [model_seed + 10_000 for model_seed in seeds]


def xi_rows(seeds: list[int]) -> list[dict]:
    """Population-manifest rows of an independent (xi) population."""
    return [
        {"index": index, "kind": "independent", "seed": model_seed}
        for index, model_seed in enumerate(seeds)
    ]


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
        return prune_attack(base, spec.fraction)
    if spec.kind == "finetune":
        task = make_blob_task(base.input_dim, n_classes=spec.n_classes, seed=spec.seed)
        net, _ = finetune_attack(base, task, spec.epochs, spec.lr, seed=spec.seed)
        return net
    if spec.kind == "distill":
        hidden = spec.student_hidden
        if hidden is None:
            hidden = tuple(layer.out_dim for layer in base.layers[:-1])
        student, _ = distill_attack(
            base, hidden, data_seed=spec.seed + 17, epochs=spec.epochs, lr=spec.lr,
            seed=spec.seed,
        )
        return student
    raise ValueError(f"not a functional-copy attack: {spec.kind}")


@dataclass
class PopulationResult:
    models: list[MlpNetwork]
    rows: list[dict] = field(default_factory=list)  # manifest: index, kind, seed, params
    excluded: int = 0


def _random_omega_spec(rng: np.random.Generator, seed: int) -> AttackSpec:
    """Default functional-copy mixture: fine-tuning and pruning, the
    perturbations a copy survives with its watermark intact at this scale.
    Distillation (fresh student on synthetic data) strips the watermark and
    mostly fails the functionality gate, so it joins a population only via
    explicit specs."""
    kind = rng.choice(["finetune", "prune"])
    if kind == "prune":
        return AttackSpec(kind="prune", fraction=float(rng.uniform(0.05, 0.45)), seed=seed)
    return AttackSpec(kind="finetune", epochs=int(rng.integers(1, 4)), lr=1e-3, seed=seed)


def sample_model_population(
    bundle: ModelBundle,
    kind: str,
    m_models: int,
    seed: int,
    specs: list[AttackSpec] | None = None,
    heldout_inputs: np.ndarray | None = None,
    pretrain_epochs: int = 40,
    pretrain_images: int = 400,
) -> PopulationResult:
    """M functional copies (kind="omega") or M independent models
    (kind="xi"), with per-model seeds derived from the master seed plus the
    model index. Independent models pretrain for pretrain_epochs over
    pretrain_images synthetic images (make_independent's defaults).

    Omega copies failing the functionality check (relative embedding error
    beyond FUNCTIONALITY_LIMIT on held-out inputs) are excluded with a
    warning. Explicit specs override the randomized attack mixture and are
    cycled over the M slots.
    """
    if kind not in ("omega", "xi"):
        raise ValueError("kind must be 'omega' or 'xi'")
    if m_models < 1:
        raise ValueError("need at least one model")
    result = PopulationResult(models=[])
    if kind == "xi":
        seeds, data_seeds = xi_seeds(seed, m_models)
        result.models = train_independents(
            bundle.backbone_dims, seeds, data_seeds, pretrain_epochs, pretrain_images
        )
        result.rows = xi_rows(seeds)
        return result
    if heldout_inputs is None:
        heldout_inputs = gen_synthetic_images(128, bundle.s, seed + 999)
    mix_rng = np.random.default_rng(seed)
    for index in range(m_models):
        model_seed = seed + index
        if specs is not None:
            base_spec = specs[index % len(specs)]
            spec = AttackSpec(
                kind=base_spec.kind,
                epochs=base_spec.epochs,
                lr=base_spec.lr,
                fraction=base_spec.fraction,
                student_hidden=base_spec.student_hidden,
                n_classes=base_spec.n_classes,
                seed=model_seed,
            )
        else:
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
