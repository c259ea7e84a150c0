"""The three benchmark workloads. Each is a closed loop with one client:
``setup`` builds the inputs from the seed, ``op`` is one timed operation,
``check`` validates its outputs untimed, and ``finish`` runs any step that
follows the loop. See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Library functions are called through their modules, so that the tracer's
# wrappers, installed on those modules, see the calls.
from randmark import attacks, harness, nnengine, synth, watermark
from randmark.harness import ExperimentConfig
from randmark.watermark import ModelBundle

MIN_BIT_ACCURACY = 0.95


class Reference:
    """Outputs of earlier operations with the same workload and seed. Kept in
    the checkout's work directory so that later runs check them too."""

    def __init__(self, path: Path):
        self.path = path
        self.saved = json.loads(path.read_text()) if path.exists() else {}
        self.seen: dict = {}

    def check(self, key: str, value) -> list[str]:
        expected = self.seen.setdefault(key, self.saved.get(key, value))
        if expected == value:
            return []
        return [f"{key}: output differs from an earlier run of this seed"]

    def save(self) -> None:
        if all(self.saved.get(key) == value for key, value in self.seen.items()):
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**self.saved, **self.seen}, sort_keys=True))
        tmp.replace(self.path)


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _bundle_digests(bundle: ModelBundle) -> list[str]:
    return [
        net.parameters_digest()
        for net in (bundle.frozen_f, bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
    ]


class Workload:
    """Seed offsets (+1 images, +2 messages, +3/+4 source backbone, +5 bundle,
    +6 verification) follow run_pipeline's, so every workload sees the inputs
    the pipeline would build for the same seed."""

    name = ""
    min_ops = 1  # operations the closed loop runs even past its time limit
    trace_ops = 1  # operations in each loop of a traced run

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.config = ExperimentConfig(seed=seed)
        self.work = root / ".bench_work" / self.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.reference = Reference(root / ".bench_work" / "reference" / f"{self.name}-{seed}.json")
        self.stage_seconds: dict[str, float] = {}  # the last pipeline's, if any

    def setup(self) -> list[float]:
        """Build the inputs; return the duration of each set-up repetition."""
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str] | None:
        """Step after the loop, counted as one more operation; None if the
        workload has none."""
        return None

    def close(self, correct: bool) -> None:
        if correct:
            self.reference.save()
        shutil.rmtree(self.work, ignore_errors=True)

    def _trigger_set(self):
        cfg = self.config
        images = synth.gen_synthetic_images(cfg.trigger_count, cfg.s, cfg.seed + 1)
        return harness.build_trigger_set(images, cfg.n, cfg.sigma_scale, cfg.seed + 2)

    def _independent(self, model_seed: int, data_seed: int):
        cfg = self.config
        return attacks.make_independent(
            cfg.backbone_dims,
            seed=model_seed,
            pretrain_data_seed=data_seed,
            epochs=cfg.pretrain_epochs,
            n_images=cfg.pretrain_images,
        )

    def _new_bundle(self, source) -> ModelBundle:
        cfg = self.config
        return ModelBundle.create(
            source,
            cfg.n,
            encoder_hidden=cfg.encoder_hidden,
            decoder_hidden=cfg.decoder_hidden,
            hyper=cfg.hyper(),
            seed=cfg.seed + 5,
        )


class DeskPipeline(Workload):
    """One default-config ``run_pipeline`` per operation. The pipeline has no
    set-up of its own, so set-up is what a fresh ``randmark`` process pays
    before it starts: interpreter start and package import."""

    name = "desk-pipeline"
    setup_repeats = 3

    def setup(self) -> list[float]:
        durations = []
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import randmark"],
                check=True,
                timeout=120,
                cwd=self.root,
                env={**os.environ, "PYTHONPATH": str(self.root / "src")},
            )
            durations.append(time.perf_counter() - start)
        return durations

    def op(self, index: int):
        return harness.run_pipeline(self.config, self.work / f"op{index}")

    def check(self, index: int, manifest) -> list[str]:
        cfg = self.config
        out = self.work / f"op{index}"
        problems = [f"stage {stage} failed: {why}" for stage, why in manifest.failures.items()]
        problems += self.reference.check("files", manifest.files)
        verification = out / "verification"
        if verification.is_dir():
            rate = json.loads((verification / "watermarked.json").read_text())["detection_rate"]
            if rate < cfg.r_bar / cfg.trigger_count:
                problems.append(f"watermarked backbone detected at rate {rate}")
            for i in range(cfg.independents):
                report = json.loads((verification / f"independent{i}.json").read_text())
                rate = report["detection_rate"]
                if rate > cfg.r_under / cfg.trigger_count:
                    problems.append(f"independent{i} detected at rate {rate}")
        report_path = out / "bound_report.json"
        if report_path.exists():
            report = json.loads(report_path.read_text())
            for key in ("p_omega", "p_xi"):
                if not 0.0 <= report[key] <= 1.0:
                    problems.append(f"{key} = {report[key]} outside [0, 1]")
        self.stage_seconds = manifest.stage_seconds
        shutil.rmtree(out)
        return problems


class VerifyScan(Workload):
    """The auditor's path: load one suspect checkpoint, verify it against the
    owner's bundle and serialize the report. After the scan, the bound report
    runs over the functional copies and independent models read from disk."""

    name = "verify-scan"
    min_ops = 100  # p90 needs ten samples beyond it
    copies = 94
    independents = 5
    trace_ops = 1 + copies + independents  # one pass over every suspect

    def setup(self) -> list[float]:
        start = time.perf_counter()
        cfg = self.config
        triggers = self._trigger_set()
        bundle, _ = watermark.embed_watermark(
            self._new_bundle(self._independent(cfg.seed + 3, cfg.seed + 4)), triggers
        )
        bundle.save(self.work / "bundle")
        watermark.save_trigger_set(triggers, self.work / "triggers.rmts")

        rng = np.random.default_rng(cfg.seed + 7)
        suspects = [("watermarked", bundle.watermarked_f)]
        for j in range(self.copies):
            # the same mixture as the omega population of sample_model_population
            if rng.random() < 0.5:
                spec = attacks.AttackSpec(kind="prune", fraction=float(rng.uniform(0.05, 0.45)))
            else:
                epochs = int(rng.integers(1, 4))
                spec = attacks.AttackSpec(
                    kind="finetune", epochs=epochs, lr=1e-3, seed=cfg.seed + 1000 + j
                )
            suspects.append((f"copy{j:02d}-{spec.kind}", attacks.apply_attack(bundle, spec)))
        for i in range(self.independents):
            net = self._independent(cfg.seed + 100 + i, cfg.seed + 200 + i)
            suspects.append((f"independent{i:02d}", net))

        heldout = synth.gen_synthetic_images(128, cfg.s, cfg.seed + 999)
        suspect_dir = self.work / "suspects"
        suspect_dir.mkdir()
        self.suspects, self.omega_files, self.xi_files = [], [], []
        for name, net in suspects:
            path = suspect_dir / f"{name}.rmk"
            nnengine.save_checkpoint(net, path)
            self.suspects.append((name, path))
            if name.startswith("copy"):
                error = attacks.relative_embedding_error(net, bundle.watermarked_f, heldout)
                if error < attacks.FUNCTIONALITY_LIMIT:
                    self.omega_files.append(path)
            elif name.startswith("independent"):
                self.xi_files.append(path)
        self.bundle = ModelBundle.load(self.work / "bundle")
        self.triggers = watermark.load_trigger_set(self.work / "triggers.rmts")
        return [time.perf_counter() - start]

    def op(self, index: int):
        cfg = self.config
        name, path = self.suspects[index % len(self.suspects)]
        suspect = nnengine.load_checkpoint(path)
        report, _ = harness.verify_suspect(
            suspect, self.bundle, self.triggers, cfg.tau, cfg.k_verify, cfg.seed + 6, name
        )
        report.to_json()
        return report

    def check(self, index: int, report) -> list[str]:
        cfg = self.config
        name = report.suspect_id
        problems = self.reference.check(f"rho/{name}", _digest(report.rho))
        rate = report.detection_rate
        if name == "watermarked" and rate < cfg.r_bar / cfg.trigger_count:
            problems.append(f"watermarked backbone detected at rate {rate}")
        if name.startswith("independent") and rate > cfg.r_under / cfg.trigger_count:
            problems.append(f"{name} detected at rate {rate}")
        return problems

    def finish(self) -> list[str]:
        omega = [nnengine.load_checkpoint(path) for path in self.omega_files]
        xi = [nnengine.load_checkpoint(path) for path in self.xi_files]
        report = harness.compute_bound_report(
            self.config, self.bundle, self.triggers, omega, xi, verify_seed=self.config.seed + 6
        )
        problems = [
            f"{key} = {value} outside [0, 1]"
            for key, value in (("p_omega", report.p_omega), ("p_xi", report.p_xi))
            if not 0.0 <= value <= 1.0
        ]
        return problems + self.reference.check("bound_report", _digest(report.to_json()))


class Embed(Workload):
    """The owner's path: a fresh bundle around the pretrained source backbone,
    watermark embedding at the desk hyperparameters, and saving the bundle."""

    name = "embed"
    trace_ops = 2
    setup_repeats = 3

    def setup(self) -> list[float]:
        cfg = self.config
        durations = []
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            self.triggers = self._trigger_set()
            self.source = self._independent(cfg.seed + 3, cfg.seed + 4)
            durations.append(time.perf_counter() - start)
        return durations

    def op(self, index: int):
        bundle, log = watermark.embed_watermark(self._new_bundle(self.source), self.triggers)
        bundle.save(self.work / f"op{index}")
        return bundle, log

    def check(self, index: int, result) -> list[str]:
        bundle, log = result
        out = self.work / f"op{index}"
        problems = []
        accuracy = log.final()["bit_accuracy"]
        if accuracy < MIN_BIT_ACCURACY:
            problems.append(f"final bit accuracy {accuracy} below {MIN_BIT_ACCURACY}")
        digests = _bundle_digests(bundle)
        if _bundle_digests(ModelBundle.load(out)) != digests:
            problems.append("saved bundle reloads with different parameters")
        problems += self.reference.check("digests", digests)
        shutil.rmtree(out)
        return problems


WORKLOADS = {cls.name: cls for cls in (DeskPipeline, VerifyScan, Embed)}
