"""Experiment configuration, synthetic trigger sets, and the end-to-end
pipeline: embed, attack, verify, bound, report.

All outputs are deterministic functions of the config and its seeds; the
run manifest is the only file carrying wall-clock values, and it records
the numpy version and OpenBLAS core that ran, on which trained weights
depend in their last bits.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import re
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .attacks import (
    AttackSpec,
    IndependentPool,
    PopulationResult,
    apply_attack,
    make_independent,
    sample_model_population,
)
from .bounds import BoundReport, build_bound_report
from .nnengine import MlpNetwork, _blas_core, load_checkpoint, save_checkpoint
from .stats import VerificationReport, covariance_delta, detection_rate, mean_distance, sweep_rows
from .synth import gen_synthetic_images
from .watermark import (
    HyperParams,
    ModelBundle,
    TrainingLog,
    TriggerSet,
    decode_triggers,
    embed_watermark,
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
    messages = np.empty((len(images), n), dtype=np.int8)
    for row in messages:  # one (N, n) draw would give other bits when n % 4 != 0
        row[:] = rng.integers(0, 2, size=n, dtype=np.int8)
    return TriggerSet(images, messages, sigma_scale * images.std(axis=1), master_seed=seed)


class RunSeeds(NamedTuple):
    """The seeds of a run, each its master seed plus a fixed offset that
    ExperimentConfig.seeds alone applies, so that the pipeline stages and
    the CLI commands that redo one of them use the same seeds."""

    images: int  # trigger images
    messages: int  # trigger messages and noise scales
    source: int  # source backbone
    source_data: int  # its pretraining images
    bundle: int  # encoder and decoder initialization
    verify: int  # noise draws of verification and of the bound populations
    independents: int  # independent suspect i gets this + i
    independent_data: int  # and its pretraining images this + i
    omega: int  # master seed of the omega population
    xi: int  # xi model i gets this + i
    xi_data: int  # and its pretraining images this + i


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
    k_verify: int = 16
    epochs: int = 70
    learning_rate: float = 2e-3
    delta_scale: float = 0.5
    pretrain_epochs: int = 40
    pretrain_images: int = 400
    tau: int = 5
    alpha: float = 0.01
    delta: float = 0.01
    r_bar: int = 75
    r_under: int = 60
    m_models: int = 50
    independents: int = 5
    seed: int = 2024
    attacks: list[tuple[str, AttackSpec]] = field(default_factory=lambda: [
        ("prune20", AttackSpec(kind="prune", fraction=0.2)),
        ("prune40", AttackSpec(kind="prune", fraction=0.4)),
        ("finetune3", AttackSpec(kind="finetune", epochs=3, lr=1e-3)),
    ])

    def __post_init__(self):
        for name in ("s", "k", "n", "trigger_count", "k_train", "k_verify", "m_models"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if math.isqrt(self.s) ** 2 != self.s:
            raise ValueError(f"s must be a perfect square (square images), got {self.s}")
        if not 0.0 < self.sigma_scale < math.inf:
            raise ValueError("sigma_scale must be positive and finite")
        for name in ("backbone_hidden", "encoder_hidden", "decoder_hidden"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name} widths must be at least 1, got {getattr(self, name)}")
        if not 0 <= self.tau <= self.n:
            raise ValueError("tau must lie in [0, n]")
        if not 0 < self.r_under < self.r_bar <= self.trigger_count:
            raise ValueError("need 0 < r_under < r_bar <= trigger_count")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly in (0, 1)")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.independents < 0:
            raise ValueError("independents must not be negative")
        if self.pretrain_images < 1:
            raise ValueError("pretrain_images must be positive")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must not be negative")
        # each attack names a suspect file of its own beside the pipeline's:
        # watermarked and independent<i>, i below independents, read from the
        # name rather than listed, so that a check costs one step per attack
        taken = set()
        for name, _ in self.attacks:
            if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
                raise ValueError(f"attack name {name!r} is not a file stem: letters, digits, _, -")
            index = re.fullmatch(r"independent(0|[1-9][0-9]*)", name)
            independent = index is not None and (
                len(index[1]) <= len(str(self.independents)) and int(index[1]) < self.independents
            )
            if name in taken or name == "watermarked" or independent:
                raise ValueError(f"attack name {name!r} is another suspect's name")
            taken.add(name)
        self.hyper()  # range-checks the embedding settings

    @property
    def backbone_dims(self) -> list[int]:
        return [self.s, *self.backbone_hidden, self.k]

    @property
    def seeds(self) -> RunSeeds:
        seed = self.seed
        return RunSeeds(
            images=seed + 1, messages=seed + 2, source=seed + 3, source_data=seed + 4,
            bundle=seed + 5, verify=seed + 6, independents=seed + 100,
            independent_data=seed + 200, omega=seed + 1000, xi=seed + 2000,
            xi_data=seed + 12000,
        )

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
        payload["attacks"] = [{"name": name, **asdict(spec)} for name, spec in self.attacks]
        return payload

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Flat key=value sections (_SECTIONS), each key parsed as its
        field's default type; [attack.NAME] sections define the attack list
        (kind, epochs, lr, fraction). A file that does not parse, an unknown
        section or key, a value that does not parse, or a setting out of
        range raises ValueError naming the file."""
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
        if parser.defaults():  # its keys would reach every section, or no field
            raise ValueError(f"{path}: unknown section [DEFAULT]")
        config = cls()

        def read(section, keys, defaults):
            unknown = sorted(set(parser.options(section)) - set(keys))
            if unknown:
                raise ValueError(f"{path}: unknown key {unknown[0]!r} in [{section}]")
            values = {}
            for key in parser.options(section):
                try:
                    values[key] = _PARSERS[type(getattr(defaults, key))](parser.get(section, key))
                except ValueError as exc:
                    raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            return values

        attacks = []
        for section in parser.sections():
            if section.startswith("attack."):
                spec = read(section, ("kind", "epochs", "lr", "fraction"), AttackSpec("prune"))
                if "kind" not in spec:
                    raise ValueError(f"{path}: [{section}] needs a kind")
                attacks.append((section.split(".", 1)[1], spec))
            elif section in _SECTIONS:
                for key, value in read(section, _SECTIONS[section], config).items():
                    setattr(config, key, value)
            else:
                raise ValueError(f"{path}: unknown section [{section}]")
        try:
            if attacks:
                config.attacks = [(name, AttackSpec(**spec)) for name, spec in attacks]
            config.__post_init__()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return config


# The config file's sections and the ExperimentConfig fields each one sets.
_SECTIONS = {
    "dims": ("s", "k", "n", "backbone_hidden", "encoder_hidden", "decoder_hidden"),
    "triggers": ("trigger_count", "sigma_scale"),
    "embed": (
        "lam", "k_train", "epochs", "learning_rate", "delta_scale", "pretrain_epochs",
        "pretrain_images",
    ),
    "verify": ("k_verify", "tau"),
    "bounds": ("alpha", "delta", "r_bar", "r_under", "m_models"),
    "run": ("seed", "independents"),
}


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


# A config value's parser, by the type of its field's default.
_PARSERS = {int: int, float: float, str: str, tuple: _widths}


def verify_suspect(
    suspect: MlpNetwork,
    bundle: ModelBundle,
    triggers: TriggerSet,
    tau: int,
    k_draws: int,
    seed: int,
    suspect_id: str,
) -> tuple[VerificationReport, np.ndarray]:
    """Decode every trigger over the shared stego batch of (bundle, triggers,
    k_draws, seed) in one pass and assemble the decision report. Returns the
    report and the (N, K) per-draw Hamming distances."""
    if not 0 <= tau <= triggers.n:
        raise ValueError(f"tau must lie in [0, {triggers.n}], got {tau}")
    if k_draws < 1:
        raise ValueError(f"K must be at least 1, got {k_draws}")
    distances = decode_triggers(suspect, bundle, triggers, k_draws, seed)
    report = VerificationReport.from_batches(suspect_id, distances, triggers.n, tau, seed)
    return report, distances


def population_distances(
    models: Iterable[MlpNetwork],
    bundle: ModelBundle,
    triggers: TriggerSet,
    k_draws: int,
    seed: int,
) -> np.ndarray:
    """(n_models, N, K) per-draw Hamming distances over the shared stego batch,
    so the per-model Bernoulli trials stay paired with each other and with
    verify_suspect at the same seed. Each model is decoded as iteration over
    models yields it; no models give a (0, N, K) array."""
    rows = []
    for model in models:
        rows.append(decode_triggers(model, bundle, triggers, k_draws, seed))
        del model  # hold no model while models yields the next
    return np.array(rows, dtype=np.int64).reshape(-1, len(triggers), k_draws)


@dataclass
class PopulationWriter:
    """One population's models, each saved to directory/<label>NNN.rmk as
    iteration reaches it. <label>_manifest.json, which records the manifest
    rows (each with its file name) and the excluded count, exists only for a
    finished population: a stale one is removed before the first model is
    saved, and the new one is written after the last."""

    directory: Path
    label: str
    population: PopulationResult

    def __iter__(self) -> Iterator[MlpNetwork]:
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = self.directory / f"{self.label}_manifest.json"
        manifest.unlink(missing_ok=True)
        rows, files = self.population.rows, []
        for model in self.population.models:
            files.append(f"{self.label}{len(files):03d}.rmk")
            save_checkpoint(model, self.directory / files[-1])
            yield model
        if len(files) != len(rows):
            raise ValueError(f"{self.label}: {len(files)} models for {len(rows)} rows")
        rows = [{**row, "file": name} for row, name in zip(rows, files)]
        manifest.write_text(json.dumps(
            {"models": rows, "excluded": self.population.excluded}, indent=2, sort_keys=True
        ))


def load_population(directory, label: str) -> Iterator[MlpNetwork]:
    """The models of one population directory, each loaded as iteration
    reaches it: exactly the files its <label>_manifest.json rows name, in
    row order. PopulationWriter writes that manifest only for a finished
    population, so a directory without one, a population cut short among
    them, raises ValueError; so does a manifest that does not parse as one,
    or names anything but a checkpoint file in the directory, one file twice,
    or no file at all. These checks run in the call, before any checkpoint
    loads."""
    directory = Path(directory)
    manifest = directory / f"{label}_manifest.json"
    if not manifest.is_file():
        raise ValueError(
            f"{directory} holds no finished {label} population: no {manifest.name} "
            '(checkpoints put there by hand need one, at least {"models": [{"file": "a.rmk"}]})'
        )
    try:
        names = [row["file"] for row in json.loads(manifest.read_text())["models"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{manifest}: not a population manifest ({exc!r})") from None
    seen = set()
    for name in names:
        if not (isinstance(name, str) and Path(name).name == name
                and (directory / name).is_file()):
            raise ValueError(f"{manifest}: {name!r} is not a checkpoint file in {directory}")
        if name in seen:
            raise ValueError(f"{manifest}: {name!r} is named more than once")
        seen.add(name)
    files = [directory / name for name in names]
    if not files:
        raise ValueError(f"no checkpoints in {directory}")
    return (load_checkpoint(path) for path in files)


JSON_NUMBER = (int, float)  # the Python types a JSON number loads as


def json_field(mapping, key: str, kind, name: str | None = None):
    """mapping[key], if mapping is a loaded JSON object holding key with a
    value of type kind (a type or tuple of types), else ValueError naming
    the key as name (default repr(key)). JSON true and false load as bool,
    an int subclass, and are of no kind: no field of a file is a boolean."""
    name = name or repr(key)
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"missing key {name}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} has the wrong type {type(value).__name__}")
    return value


def bound_report_from_estimates(config: ExperimentConfig, path) -> BoundReport:
    """Bound report from an estimates JSON file: p_hat, q_hat (numbers), and
    per population (omega, xi) a non-empty list of {trigger_id, matches,
    trials} rows of JSON integers, taken in trigger_id order. A file that is
    not JSON, lacks a key, holds an empty population or a value of the
    wrong type, repeats a trigger_id, gives omega and xi different trigger
    ids, or holds counts the bound rejects (matches above trials, fewer
    triggers than r_bar) raises ValueError naming the file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    try:
        counts, ids = {}, {}
        for population in ("omega", "xi"):
            rows = json_field(payload, population, list)
            if not rows:
                raise ValueError(f"population {population!r} is empty")
            table = sorted(
                tuple(json_field(row, key, int, f"{key!r} in {population} row {index}")
                      for key in ("trigger_id", "matches", "trials"))
                for index, row in enumerate(rows)
            )
            ids[population] = [trigger_id for trigger_id, _, _ in table]
            if len(set(ids[population])) < len(table):
                raise ValueError(f"population {population!r} repeats a trigger_id")
            try:
                table = np.array(table, dtype=np.int64)
            except OverflowError:
                raise ValueError(f"a count in {population!r} exceeds 64 bits") from None
            counts[population] = (table[:, 1], table[:, 2])
        if ids["omega"] != ids["xi"]:
            raise ValueError("omega and xi cover different trigger ids")
        rates = [float(json_field(payload, key, JSON_NUMBER)) for key in ("p_hat", "q_hat")]
        return _bound_report(config, counts["omega"], counts["xi"], *rates)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# run_pipeline's stages in the order they run
PIPELINE_STAGES = ("data", "embed", "attacks", "verify", "covariance", "bounds")


@dataclass
class RunManifest:
    version: str
    numpy: str
    blas_core: str  # the OpenBLAS kernels that ran (_blas_core); weights depend on them
    config: dict
    files: dict[str, str]
    stage_seconds: dict[str, float]
    failures: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def run_pipeline(config: ExperimentConfig, out_dir) -> RunManifest:
    """Full workflow into a run directory: trigger data, embedding, attack
    suspects, verification reports and sweep CSV, covariance CSV, bound
    report, manifest. A stage failure is recorded and later stages that
    depend on it are skipped.

    Every independent model the run needs, the suspects' and then the xi
    population's, is submitted to one IndependentPool before anything else,
    so that its workers train them while this process runs the stages.

    out_dir must be new or empty: the manifest hashes every file under it as
    this run's, so a directory that holds anything raises ValueError before
    any work starts.
    """
    out = Path(out_dir)
    if out.is_dir() and any(out.iterdir()):
        raise ValueError(f"output directory {out} is not empty; give a new or empty one")
    out.mkdir(parents=True, exist_ok=True)
    seeds = config.seeds
    dims = config.backbone_dims
    stage_seconds: dict[str, float] = {}
    failures: dict[str, str] = {}

    def stage(name: str, run: Callable[[], object], *needs):
        """Run one stage, timed: its result, or None if it raised (the
        exception recorded in failures) or was skipped because one of
        needs, the results of earlier stages, is None."""
        if any(need is None for need in needs):
            return None
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:
            failures[name] = str(exc)
            return None
        stage_seconds[name] = time.perf_counter() - t0
        return result

    with IndependentPool(config.independents + config.m_models) as pool:
        independents = pool.submit(
            dims,
            [seeds.independents + i for i in range(config.independents)],
            [seeds.independent_data + i for i in range(config.independents)],
            config.pretrain_epochs,
            config.pretrain_images,
        )
        xi = submit_xi(pool, dims, config)
        triggers = stage("data", lambda: data_stage(config, out / "triggers.rmts"))
        bundle = stage("embed", lambda: embed_stage(config, triggers, out)[0], triggers)
        suspects = stage(
            "attacks", lambda: attacks_stage(config, bundle, independents, out / "suspects"), bundle
        )
        distances = stage(
            "verify", lambda: verify_stage(config, bundle, triggers, suspects, out), suspects
        )
        stage(
            "covariance",
            lambda: covariance_stage(suspects, distances, out / "covariance.csv"),
            distances,
        )
        stage(
            "bounds",
            lambda: (out / "bound_report.json").write_text(
                bounds_stage(config, bundle, triggers, out / "population", xi).to_json()
            ),
            suspects,  # a failed attacks stage ends the run, as a failed embed does
        )
    return _finalize_manifest(out, config, stage_seconds, failures)


def data_stage(config: ExperimentConfig, path: Path) -> TriggerSet:
    """The trigger set of config (images, messages and noise scales from
    their RunSeeds), saved to path."""
    seeds = config.seeds
    images = gen_synthetic_images(config.trigger_count, config.s, seeds.images)
    triggers = build_trigger_set(images, config.n, config.sigma_scale, seeds.messages)
    save_trigger_set(triggers, path)
    return triggers


def embed_stage(
    config: ExperimentConfig, triggers: TriggerSet, out: Path
) -> tuple[ModelBundle, TrainingLog]:
    """Pretrain the source backbone, embed the watermark into a fresh bundle
    around it (each from its RunSeeds) and save out/bundle and
    out/embed_log.json. Raises TrainingDiverged if embedding diverges."""
    seeds = config.seeds
    source_f = make_independent(
        config.backbone_dims, seed=seeds.source, pretrain_data_seed=seeds.source_data,
        epochs=config.pretrain_epochs, n_images=config.pretrain_images,
    )
    bundle = ModelBundle.create(
        source_f, config.n, encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden, hyper=config.hyper(), seed=seeds.bundle,
    )
    bundle, log = embed_watermark(bundle, triggers)
    bundle.save(out / "bundle")
    (out / "embed_log.json").write_text(
        json.dumps({"epochs": log.epochs}, indent=2, sort_keys=True)
    )
    return bundle, log


def attacks_stage(
    config: ExperimentConfig,
    bundle: ModelBundle,
    independents: Iterable[MlpNetwork],
    suspect_dir: Path,
) -> list[tuple[str, str, MlpNetwork]]:
    """A run's suspects as (name, kind, network), each saved to
    suspect_dir/<name>.rmk: the watermarked backbone, each configured attack
    on it, and the independent models, in the order independents yields
    them."""
    suspects = [("watermarked", "watermarked", bundle.watermarked_f)]
    suspects += [(name, spec.kind, apply_attack(bundle, spec)) for name, spec in config.attacks]
    suspects += [(f"independent{i}", "independent", net) for i, net in enumerate(independents)]
    suspect_dir.mkdir(exist_ok=True)
    for name, _, net in suspects:
        save_checkpoint(net, suspect_dir / f"{name}.rmk")
    return suspects


# Paired draws per trigger for the covariance diagnostic, more than the decision
# rule's k_verify needs: the draws of one model barely vary, so the
# watermarked/prune20 pair's mean covariance stands about 3 standard deviations
# of the independent pairs' means above zero over 16 draws, and 8 to 10 over 64
# (default config, seeds 2024 and 7).
COVARIANCE_DRAWS = 64


def verify_stage(
    config: ExperimentConfig,
    bundle: ModelBundle,
    triggers: TriggerSet,
    suspects: list[tuple[str, str, MlpNetwork]],
    out: Path,
) -> np.ndarray:
    """Decode each suspect once over max(k_verify, COVARIANCE_DRAWS) draws,
    and verify it on the first k_verify, the bytes of a decode at k_verify,
    writing out/verification/<name>.json and the detection sweep
    out/sweep.csv. Returns the (n_suspects, N, K) distances."""
    seed = config.seeds.verify
    nets, k_draws = [net for _, _, net in suspects], max(config.k_verify, COVARIANCE_DRAWS)
    distances = population_distances(nets, bundle, triggers, k_draws, seed)
    verify_dir = out / "verification"
    verify_dir.mkdir(exist_ok=True)
    rows = []
    for (name, kind, _), wide in zip(suspects, distances):
        narrow = np.ascontiguousarray(wide[:, : config.k_verify])
        report = VerificationReport.from_batches(name, narrow, triggers.n, config.tau, seed)
        (verify_dir / f"{name}.json").write_text(report.to_json())
        rows.extend(sweep_rows(name, kind, report.rho, config.n))
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suspect_id", "kind", "tau", "detection_rate"])
        writer.writerows([name, kind, tau, repr(rate)] for name, kind, tau, rate in rows)
    return distances


def covariance_stage(
    suspects: list[tuple[str, str, MlpNetwork]], distances: np.ndarray, path: Path
) -> None:
    """Write the per-trigger covariance deltas of the watermarked backbone
    paired with each other suspect to the CSV file path, over the first
    COVARIANCE_DRAWS draws of verify_stage's distances."""
    distances = distances[:, :, :COVARIANCE_DRAWS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "kind", "trigger_id", "delta"])
        for (name, kind, _), other in zip(suspects[1:], distances[1:]):
            pair_kind = "independent" if kind == "independent" else "dependent"
            deltas = covariance_delta(distances[0], other)
            writer.writerows(
                [f"watermarked|{name}", pair_kind, ti, "" if delta is None else repr(delta)]
                for ti, delta in enumerate(deltas)
            )


def compute_bound_report(
    config: ExperimentConfig,
    bundle: ModelBundle,
    triggers: TriggerSet,
    omega_models: Iterable[MlpNetwork],
    xi_models: Iterable[MlpNetwork],
    verify_seed: int,
):
    """Bit-collision estimates pooled across each population, Poisson-
    binomial deviation bounds, and the concentration bounds seeded by the
    first model of each population's observed detection rate. The omega
    models are decoded first, each as iteration yields it. The message
    length comes from the trigger set; a config whose n differs raises
    ValueError."""
    _check_config_n(config, triggers)
    n_bits, k_draws = triggers.n, config.k_verify
    counts = {}
    rates = {}
    for label, models in (("omega", omega_models), ("xi", xi_models)):
        dists = population_distances(models, bundle, triggers, k_draws, verify_seed)
        if len(dists) == 0:
            raise ValueError(f"{label} population is empty")
        matches = (n_bits * k_draws) - dists.sum(axis=2)  # (n_models, N)
        counts[label] = (matches.sum(axis=0), len(dists) * n_bits * k_draws)  # pooled
        rates[label] = detection_rate(mean_distance(dists[0]), config.tau)
    return _bound_report(config, counts["omega"], counts["xi"], rates["omega"], rates["xi"])


def _check_config_n(config: ExperimentConfig, triggers: TriggerSet) -> None:
    """ValueError unless config's message length n and image size s are the
    trigger set's: its tau, and the bounds computed at it, are for n-bit
    messages, and its bundle for s-pixel images."""
    if (config.n, config.s) != (triggers.n, triggers.s):
        raise ValueError(
            f"config n = {config.n}, s = {config.s} does not match the trigger set's "
            f"{triggers.n}-bit messages of {triggers.s}-pixel images"
        )


def _bound_report(config: ExperimentConfig, omega, xi, p_hat: float, q_hat: float) -> BoundReport:
    """build_bound_report of the (N,) per-trigger (matches, trials) counts
    of each population at config's settings."""
    return build_bound_report(
        omega, xi, n=config.n, tau=config.tau,
        r_bar=config.r_bar, r_under=config.r_under, alpha=config.alpha, delta=config.delta,
        p_hat=p_hat, q_hat=q_hat,
    )


def submit_xi(pool: IndependentPool, dims, config: ExperimentConfig) -> PopulationResult:
    """Submit a run's xi population of config.m_models backbones with
    dimension chain dims to the pool: model i trains from seed
    RunSeeds.xi + i on pretraining images of seed RunSeeds.xi_data + i, as
    the config's pretraining says. Its models come in seed order as
    iteration asks for them, and the population keeps no model it has
    handed out; iterate them while the pool is open."""
    seeds = config.seeds
    epochs, n_images = config.pretrain_epochs, config.pretrain_images
    model_seeds = [seeds.xi + i for i in range(config.m_models)]
    data_seeds = [seeds.xi_data + i for i in range(config.m_models)]
    rows = [
        {"index": i, "kind": "independent", "seed": seed, "data_seed": data_seed,
         "pretrain_epochs": epochs, "pretrain_images": n_images}
        for i, (seed, data_seed) in enumerate(zip(model_seeds, data_seeds))
    ]
    return PopulationResult(pool.submit(dims, model_seeds, data_seeds, epochs, n_images), rows)


def bounds_stage(
    config: ExperimentConfig,
    bundle: ModelBundle,
    triggers: TriggerSet,
    population_dir: Path,
    xi: PopulationResult,
) -> BoundReport:
    """Sample the omega population, then decode and save it and each xi
    model (of submit_xi) as its result arrives, in seed order, into
    population_dir; return the bound report."""
    omega = sample_model_population(bundle, "omega", config.m_models, config.seeds.omega)
    return compute_bound_report(
        config,
        bundle,
        triggers,
        PopulationWriter(population_dir, "omega", omega),
        PopulationWriter(population_dir, "xi", xi),
        verify_seed=config.seeds.verify,
    )


def population_stage(config: ExperimentConfig, bundle: ModelBundle, kind: str, out: Path) -> int:
    """Sample config.m_models models of a run's omega or xi population
    (master seed from RunSeeds) and save them into out as a bounds stage
    does: omega in this process, xi in a pool opened for it, each xi model
    saved and dropped as it arrives. Returns the number of models saved."""
    if kind == "omega":
        result = sample_model_population(bundle, "omega", config.m_models, config.seeds.omega)
        deque(PopulationWriter(out, kind, result), maxlen=0)
    else:
        with IndependentPool(config.m_models) as pool:
            result = submit_xi(pool, bundle.backbone_dims, config)
            deque(PopulationWriter(out, kind, result), maxlen=0)  # drops each model once saved
    return len(result.rows)


def _finalize_manifest(
    out: Path,
    config: ExperimentConfig,
    stage_seconds: dict[str, float],
    failures: dict[str, str],
) -> RunManifest:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = RunManifest(
        version=__version__,
        numpy=np.__version__,
        blas_core=_blas_core(),
        config=config.snapshot(),
        files=files,
        stage_seconds=stage_seconds,
        failures=failures,
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
