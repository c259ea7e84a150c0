"""Experiment configuration, synthetic trigger sets, and the end-to-end
pipeline: embed, attack, verify, bound, report.

All outputs are deterministic functions of the config and its seeds; the
run manifest is the only file carrying wall-clock values.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import time
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (
    AttackSpec,
    IndependentPool,
    apply_attack,
    make_independent,
    sample_model_population,
    xi_rows,
    xi_seeds,
)
from .bounds import build_bound_report, collision_estimate
from .nnengine import MlpNetwork, save_checkpoint
from .stats import VerificationReport, covariance_delta, sweep_rows, write_detection_sweep
from .synth import gen_synthetic_images
from .watermark import (
    BitMessage,
    ExtractionBatch,
    HyperParams,
    ModelBundle,
    TriggerSample,
    TriggerSet,
    decode_triggers,
    embed_watermark,
    extract_batches,
    save_trigger_set,
)


def build_trigger_set(images: np.ndarray, n: int, sigma_scale: float, seed: int) -> TriggerSet:
    """Assign each image an independent uniform random message and a noise
    scale proportional to its pixel standard deviation."""
    if n < 1:
        raise ValueError("message length must be positive")
    if sigma_scale <= 0.0:
        raise ValueError("sigma_scale must be positive (noise scale must stay > 0)")
    rng = np.random.default_rng(seed)
    samples = []
    for image in images:
        message = BitMessage.random(n, rng)
        samples.append(TriggerSample(image, message, sigma_scale * float(image.std())))
    return TriggerSet(samples, n=n, s=images.shape[1], master_seed=seed)


@dataclass
class ExperimentConfig:
    """Desk-scale defaults; every field can be overridden from a config file."""

    s: int = 256
    k: int = 64
    n: int = 32
    backbone_hidden: tuple[int, ...] = (192,)
    encoder_hidden: tuple[int, ...] = (256,)
    decoder_hidden: tuple[int, ...] = (128,)
    trigger_count: int = 100
    sigma_scale: float = 0.1
    lam: float = 1.0
    k_train: int = 8
    k_verify: int = 64
    epochs: int = 70
    learning_rate: float = 2e-3
    delta_scale: float = 0.5
    pretrain_epochs: int = 40
    pretrain_images: int = 400
    tau: int = 5
    epsilon_fpr: float = 1e-4
    alpha: float = 0.01
    delta: float = 0.01
    r_bar: int = 75
    r_under: int = 60
    m_models: int = 50
    independents: int = 5
    seed: int = 2024
    bounds_stage: bool = True
    attacks: list[tuple[str, AttackSpec]] = field(default_factory=lambda: [
        ("prune20", AttackSpec(kind="prune", fraction=0.2)),
        ("prune40", AttackSpec(kind="prune", fraction=0.4)),
        ("finetune3", AttackSpec(kind="finetune", epochs=3, lr=1e-3)),
    ])

    def __post_init__(self):
        for name in ("s", "k", "n", "trigger_count", "k_train", "k_verify", "m_models"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.tau <= self.n:
            raise ValueError("tau must lie in [0, n]")

    @property
    def backbone_dims(self) -> list[int]:
        return [self.s, *self.backbone_hidden, self.k]

    def hyper(self) -> HyperParams:
        return HyperParams(
            lam=self.lam,
            k_train=self.k_train,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            delta_scale=self.delta_scale,
        )

    def snapshot(self) -> dict:
        payload = asdict(self)
        payload["attacks"] = [
            {"name": name, **{k: v for k, v in asdict(spec).items()}}
            for name, spec in self.attacks
        ]
        return payload

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Flat key=value sections; [attack.NAME] sections define the attack
        list (kind, epochs, lr, fraction)."""
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        config = cls()
        scalar_fields = {
            "dims": [("s", int), ("k", int), ("n", int)],
            "triggers": [("trigger_count", int), ("sigma_scale", float)],
            "embed": [
                ("lam", float),
                ("k_train", int),
                ("epochs", int),
                ("learning_rate", float),
                ("delta_scale", float),
                ("pretrain_epochs", int),
                ("pretrain_images", int),
            ],
            "verify": [("k_verify", int), ("tau", int), ("epsilon_fpr", float)],
            "bounds": [
                ("alpha", float),
                ("delta", float),
                ("r_bar", int),
                ("r_under", int),
                ("m_models", int),
                ("bounds_stage", lambda v: v.lower() in ("1", "true", "yes")),
            ],
            "run": [("seed", int), ("independents", int)],
        }
        for section, entries in scalar_fields.items():
            if not parser.has_section(section):
                continue
            for key, cast in entries:
                if parser.has_option(section, key):
                    setattr(config, key, cast(parser.get(section, key)))
        for section in ("dims",):
            if parser.has_section(section):
                for key in ("backbone_hidden", "encoder_hidden", "decoder_hidden"):
                    if parser.has_option(section, key):
                        widths = tuple(
                            int(v) for v in parser.get(section, key).split(",") if v.strip()
                        )
                        setattr(config, key, widths)
        attack_sections = [s for s in parser.sections() if s.startswith("attack.")]
        if attack_sections:
            config.attacks = []
            for section in attack_sections:
                name = section.split(".", 1)[1]
                spec = AttackSpec(
                    kind=parser.get(section, "kind"),
                    epochs=parser.getint(section, "epochs", fallback=0),
                    lr=parser.getfloat(section, "lr", fallback=1e-3),
                    fraction=parser.getfloat(section, "fraction", fallback=0.0),
                )
                config.attacks.append((name, spec))
        config.__post_init__()
        return config


def verify_suspect(
    suspect: MlpNetwork,
    bundle: ModelBundle,
    triggers: TriggerSet,
    tau: int,
    k_draws: int,
    seed: int,
    suspect_id: str,
    reference_batches: list[ExtractionBatch] | None = None,
) -> tuple[VerificationReport, list[ExtractionBatch]]:
    """Decode every trigger over the shared stego batch of (bundle, triggers,
    k_draws, seed) in one pass and assemble the decision report."""
    if not 0 <= tau <= triggers.n:
        raise ValueError(f"tau must lie in [0, {triggers.n}], got {tau}")
    if k_draws < 1:
        raise ValueError(f"K must be at least 1, got {k_draws}")
    batches = extract_batches(
        suspect, bundle.encoder_e, bundle.decoder_d, triggers.samples, k_draws, seed,
        bundle.hyper.delta_scale,
    )
    report = VerificationReport.from_batches(
        suspect_id, batches, tau, seed, reference_batches=reference_batches
    )
    return report, batches


def population_distances(
    models: Collection[MlpNetwork],
    bundle: ModelBundle,
    triggers: TriggerSet,
    k_draws: int,
    seed: int,
) -> np.ndarray:
    """(n_models, N, K) per-draw Hamming distances over the shared stego batch,
    so the per-model Bernoulli trials stay paired with each other and with
    verify_suspect at the same seed. Each model is decoded as iteration over
    models yields it."""
    out = np.empty((len(models), len(triggers), k_draws), dtype=np.int64)
    for mi, model in enumerate(models):
        out[mi] = decode_triggers(
            model, bundle.encoder_e, bundle.decoder_d, triggers.samples, k_draws, seed,
            bundle.hyper.delta_scale,
        )[2]
    return out


@dataclass
class PopulationWriter:
    """One population's models, each saved to directory/<label>NNN.rmk as
    iteration reaches it; after the last, <label>_manifest.json records the
    manifest rows (each with its file name) and the excluded count. Its
    length is the number of rows, known before any model arrives."""

    directory: Path
    label: str
    models: Iterable[MlpNetwork]
    rows: list[dict]
    excluded: int

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[MlpNetwork]:
        self.directory.mkdir(parents=True, exist_ok=True)
        files = []
        for model in self.models:
            files.append(f"{self.label}{len(files):03d}.rmk")
            save_checkpoint(model, self.directory / files[-1])
            yield model
        if len(files) != len(self.rows):
            raise ValueError(f"{self.label}: {len(files)} models for {len(self.rows)} rows")
        rows = [{**row, "file": name} for row, name in zip(self.rows, files)]
        (self.directory / f"{self.label}_manifest.json").write_text(
            json.dumps({"models": rows, "excluded": self.excluded}, indent=2, sort_keys=True)
        )


@dataclass
class RunManifest:
    version: str
    config: dict
    files: dict[str, str]
    stage_seconds: dict[str, float]
    failures: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_pipeline(config: ExperimentConfig, out_dir) -> RunManifest:
    """Full workflow into a run directory: trigger data, embedding, attack
    suspects, verification reports and sweep CSV, covariance CSV, bound
    report, manifest. A stage failure is recorded and later stages that
    depend on it are skipped.

    Every independent model the run needs, the suspects' and then the xi
    population's, is submitted to one IndependentPool before anything else,
    so that its workers train them while this process runs the stages.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed
    dims = config.backbone_dims
    jobs = config.independents + (config.m_models if config.bounds_stage else 0)
    with IndependentPool(jobs) as pool:
        independents = pool.submit(
            dims,
            [seed + 100 + i for i in range(config.independents)],
            [seed + 200 + i for i in range(config.independents)],
            config.pretrain_epochs,
            config.pretrain_images,
        )
        xi = _submit_xi(pool, dims, config, seed) if config.bounds_stage else None
        return _run_stages(config, out, independents, xi)


def _run_stages(
    config: ExperimentConfig,
    out: Path,
    independents: list[Callable[[], MlpNetwork]],
    xi: tuple[list[Callable[[], MlpNetwork]], list[dict]] | None,
) -> RunManifest:
    """The stages of run_pipeline, with the independent models (result
    getters) and the xi population (getters and manifest rows) submitted."""
    stage_seconds: dict[str, float] = {}
    failures: dict[str, str] = {}
    seed = config.seed

    t0 = time.perf_counter()
    images = gen_synthetic_images(config.trigger_count, config.s, seed + 1)
    triggers = build_trigger_set(images, config.n, config.sigma_scale, seed + 2)
    save_trigger_set(triggers, out / "triggers.rmts")
    stage_seconds["data"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    source_f = make_independent(
        config.backbone_dims,
        seed=seed + 3,
        pretrain_data_seed=seed + 4,
        epochs=config.pretrain_epochs,
        n_images=config.pretrain_images,
    )
    bundle = ModelBundle.create(
        source_f,
        config.n,
        encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden,
        hyper=config.hyper(),
        seed=seed + 5,
    )
    try:
        bundle, log = embed_watermark(bundle, triggers)
    except Exception as exc:  # divergence aborts the run but is recorded
        failures["embed"] = str(exc)
        manifest = _finalize_manifest(out, config, stage_seconds, failures)
        return manifest
    bundle.save(out / "bundle")
    (out / "embed_log.json").write_text(
        json.dumps({"epochs": log.epochs, "aborted": log.aborted}, indent=2, sort_keys=True)
    )
    stage_seconds["embed"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    suspects: list[tuple[str, str, MlpNetwork]] = [
        ("watermarked", "watermarked", bundle.watermarked_f)
    ]
    try:
        for name, spec in config.attacks:
            net = apply_attack(bundle, spec)
            suspects.append((name, spec.kind, net))
        for i, get in enumerate(independents):
            suspects.append((f"independent{i}", "independent", get()))
        suspect_dir = out / "suspects"
        suspect_dir.mkdir(exist_ok=True)
        for name, _, net in suspects:
            save_checkpoint(net, suspect_dir / f"{name}.rmk")
        stage_seconds["attacks"] = time.perf_counter() - t0
    except Exception as exc:
        failures["attacks"] = str(exc)
        return _finalize_manifest(out, config, stage_seconds, failures)

    t0 = time.perf_counter()
    batch_map: dict[str, list[ExtractionBatch]] = {}
    try:
        verify_seed = seed + 6
        verify_dir = out / "verification"
        verify_dir.mkdir(exist_ok=True)
        all_rows = []
        for name, kind, net in suspects:
            report, batches = verify_suspect(
                net, bundle, triggers, config.tau, config.k_verify, verify_seed, name
            )
            batch_map[name] = batches
            (verify_dir / f"{name}.json").write_text(report.to_json())
            all_rows.extend(sweep_rows(name, kind, report.rho, config.n))
        write_detection_sweep(out / "sweep.csv", all_rows)
        stage_seconds["verify"] = time.perf_counter() - t0
    except Exception as exc:
        failures["verify"] = str(exc)

    if "verify" not in failures:
        t0 = time.perf_counter()
        try:
            reference = batch_map["watermarked"]
            with open(out / "covariance.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["pair_id", "kind", "trigger_id", "delta"])
                for name, kind, _ in suspects[1:]:
                    pair_kind = "independent" if kind == "independent" else "dependent"
                    for ti, (ref_b, sus_b) in enumerate(zip(reference, batch_map[name])):
                        delta = covariance_delta(ref_b, sus_b)
                        writer.writerow([
                            f"watermarked|{name}",
                            pair_kind,
                            ti,
                            repr(delta) if delta is not None else "",
                        ])
            stage_seconds["covariance"] = time.perf_counter() - t0
        except Exception as exc:
            failures["covariance"] = str(exc)

    if xi is not None:
        t0 = time.perf_counter()
        try:
            _bounds_stage(config, bundle, triggers, out, seed, xi)
            stage_seconds["bounds"] = time.perf_counter() - t0
        except Exception as exc:
            failures["bounds"] = str(exc)

    return _finalize_manifest(out, config, stage_seconds, failures)


def compute_bound_report(
    config: ExperimentConfig,
    bundle: ModelBundle,
    triggers: TriggerSet,
    omega_models: Collection[MlpNetwork],
    xi_models: Collection[MlpNetwork],
    verify_seed: int,
):
    """Bit-collision estimates pooled across each population, Poisson-
    binomial deviation bounds, and the concentration bounds seeded by the
    first model of each population's observed detection rate. The omega
    models are decoded first, each as iteration yields it."""
    n_trig, n_bits, k_draws = len(triggers), config.n, config.k_verify
    level = config.alpha / n_trig
    estimates = []
    rates = {}
    for label, models in (("omega", omega_models), ("xi", xi_models)):
        dists = population_distances(models, bundle, triggers, k_draws, verify_seed)
        if len(dists) == 0:
            raise ValueError(f"{label} population is empty")
        matches = (n_bits * k_draws) - dists.sum(axis=2)  # (n_models, N)
        pooled = matches.sum(axis=0)  # per trigger over models
        trials = len(dists) * n_bits * k_draws
        estimates.extend(
            collision_estimate(ti, int(pooled[ti]), trials, level, label)
            for ti in range(n_trig)
        )
        rho = dists.mean(axis=2)  # (n_models, N)
        rates[label] = float((rho[0] <= config.tau).mean())
    return build_bound_report(
        estimates,
        n=n_bits,
        tau=config.tau,
        r_bar=config.r_bar,
        r_under=config.r_under,
        alpha=config.alpha,
        delta=config.delta,
        p_hat=rates["omega"],
        q_hat=rates["xi"],
    )


def _submit_xi(
    pool: IndependentPool, dims, config: ExperimentConfig, seed: int
) -> tuple[list[Callable[[], MlpNetwork]], list[dict]]:
    """Submit the bounds stage's xi population (master seed seed + 2000) to
    the pool: its result getters and manifest rows."""
    seeds, data_seeds = xi_seeds(seed + 2000, config.m_models)
    getters = pool.submit(dims, seeds, data_seeds, config.pretrain_epochs, config.pretrain_images)
    return getters, xi_rows(seeds)


def _bounds_stage(
    config: ExperimentConfig,
    bundle: ModelBundle,
    triggers: TriggerSet,
    out: Path,
    seed: int,
    xi: tuple[list[Callable[[], MlpNetwork]], list[dict]],
) -> None:
    """Sample the omega population, then decode and save it and each xi
    model as its result arrives, in seed order, into population/ and the
    bound report."""
    omega = sample_model_population(bundle, "omega", config.m_models, seed + 1000)
    xi_getters, rows = xi
    pop_dir = out / "population"
    report = compute_bound_report(
        config,
        bundle,
        triggers,
        PopulationWriter(pop_dir, "omega", omega.models, omega.rows, omega.excluded),
        PopulationWriter(pop_dir, "xi", (get() for get in xi_getters), rows, 0),
        verify_seed=seed + 6,
    )
    (out / "bound_report.json").write_text(report.to_json())


def _finalize_manifest(
    out: Path,
    config: ExperimentConfig,
    stage_seconds: dict[str, float],
    failures: dict[str, str],
) -> RunManifest:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[str(path.relative_to(out))] = _sha256(path)
    manifest = RunManifest(
        version=__version__,
        config=config.snapshot(),
        files=files,
        stage_seconds=stage_seconds,
        failures=failures,
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
