"""Command-line entry point.

Exit codes: 0 success, 1 usage error (also a bad input file or a diverged
training run), 2 verification refused (suspect architecture incompatible),
3 bound not applicable.

Importing randmark sets numpy's OpenBLAS to the thread count that
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS chooses, whether
numpy loaded before or after it was set, and to one thread when none does.
On one BLAS thread, a count of 1 included, it uses every CPU of the affinity
mask; a larger count or taskset -c 0 runs it serially.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .attacks import IndependentPool, apply_attack
from .harness import (
    JSON_NUMBER,
    PIPELINE_STAGES,
    ExperimentConfig,
    _check_config_n,
    bound_report_from_estimates,
    bounds_stage,
    compute_bound_report,
    data_stage,
    embed_stage,
    json_field,
    load_population,
    population_stage,
    run_pipeline,
    submit_xi,
    verify_suspect,
)
from .nnengine import load_checkpoint, save_checkpoint
from .watermark import ModelBundle, TrainingDiverged, VerificationRefused, load_trigger_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_BOUND_NA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="randmark", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="experiment config file (key=value sections)")
        if seed:
            p.add_argument("--seed", type=int, help="the run seed (overrides the config's)")
        p.add_argument("--out", help="output directory or file")

    p = sub.add_parser("gen-data", help="generate a synthetic trigger set")
    common(p)

    p = sub.add_parser("embed", help="pretrain a source backbone and embed the watermark")
    common(p)
    p.add_argument("--triggers", help="existing trigger-set file (default: generate)")

    p = sub.add_parser("attack", help="derive a functional copy of the watermarked backbone")
    common(p, seed=False)  # an attack's seed is its spec's
    p.add_argument("--bundle", required=True)
    p.add_argument("--name", required=True, help="an attack of the config's [attack.NAME]")

    p = sub.add_parser("verify", help="decide whether a suspect carries the watermark")
    common(p)
    p.add_argument("--suspect", required=True, help="suspect checkpoint")
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--triggers", required=True, help="trigger-set file")

    p = sub.add_parser("population", help="sample a model population for bound estimation")
    common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--kind", required=True, choices=["omega", "xi"])

    p = sub.add_parser("bounds", help="estimate detection-rate deviation bounds")
    common(p)
    p.add_argument("--bundle", help="bundle directory (not needed with --estimates)")
    p.add_argument("--triggers", help="trigger-set file (not needed with --estimates)")
    for kind, models in (("omega", "functional-copy"), ("xi", "independent-model")):
        p.add_argument(
            f"--population-{kind}",
            help=f"directory of {models} checkpoints, exactly those its finished "
            f"{kind}_manifest.json lists (as `population` and `pipeline` write it)",
        )
    p.add_argument(
        "--estimates",
        help="JSON file with precomputed per-trigger bit-collision counts "
        "(keys: p_hat, q_hat, omega, xi)",
    )

    p = sub.add_parser("pipeline", help="run the full embed/attack/verify/bound workflow")
    common(p)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True)

    return parser


def _load_config(args):
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)  # replace reruns the range checks
    return config


def _cmd_gen_data(args) -> int:
    out = Path(args.out or "triggers.rmts")
    triggers = data_stage(_load_config(args), out)
    print(f"wrote {len(triggers)} triggers to {out}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    config = _load_config(args)
    out = Path(args.out or "bundle_run")
    out.mkdir(parents=True, exist_ok=True)
    if args.triggers:
        triggers = load_trigger_set(args.triggers)
        _check_config_n(config, triggers)  # before the source backbone trains
    else:
        triggers = data_stage(config, out / "triggers.rmts")
    _, log = embed_stage(config, triggers, out)
    if log.epochs:
        final = log.final()
        summary = f"bit_accuracy={final['bit_accuracy']:.4f} fidelity={final['fidelity']:.4f}"
    else:  # no epoch ran, so there is no accuracy or fidelity to report
        summary = "epochs=0"
    print(f"embedded: {summary} (bundle in {out / 'bundle'})")
    return EXIT_OK


def _cmd_attack(args) -> int:
    specs = dict(_load_config(args).attacks)
    if args.name not in specs:
        raise ValueError(f"no attack {args.name!r} in the config; it has: {', '.join(specs)}")
    net = apply_attack(ModelBundle.load(args.bundle), specs[args.name])
    out = Path(args.out or f"{args.name}.rmk")
    save_checkpoint(net, out)
    print(f"wrote {args.name} suspect to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args)
    bundle = ModelBundle.load(args.bundle)
    triggers = load_trigger_set(args.triggers)
    _check_config_n(config, triggers)
    report, _ = verify_suspect(
        load_checkpoint(args.suspect), bundle, triggers, config.tau, config.k_verify,
        config.seeds.verify, Path(args.suspect).stem,
    )
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def _cmd_population(args) -> int:
    config = _load_config(args)
    out = Path(args.out or f"population_{args.kind}")
    saved = population_stage(config, ModelBundle.load(args.bundle), args.kind, out)
    print(f"wrote {saved} {args.kind} models to {out}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    config = _load_config(args)
    out = Path(args.out or "bounds_run")
    populations = (args.population_omega, args.population_xi)
    if args.estimates and any(populations):
        raise ValueError("--estimates and --population-omega/--population-xi exclude each other")
    if args.estimates:
        report = bound_report_from_estimates(config, args.estimates)
    elif any(populations):
        if not all(populations):
            raise ValueError("need both --population-omega and --population-xi")
        report = compute_bound_report(
            config,
            *_bundle_and_triggers(args),
            load_population(args.population_omega, "omega"),
            load_population(args.population_xi, "xi"),
            verify_seed=config.seeds.verify,
        )
    else:
        bundle, triggers = _bundle_and_triggers(args)
        with IndependentPool(config.m_models) as pool:
            xi = submit_xi(pool, bundle.backbone_dims, config)
            report = bounds_stage(config, bundle, triggers, out / "population", xi)
    out.mkdir(parents=True, exist_ok=True)
    text = report.to_json()
    (out / "bound_report.json").write_text(text)
    print(text)
    lemma = report.lemma
    return EXIT_BOUND_NA if lemma.h_minus is None or lemma.h_plus is None else EXIT_OK


def _bundle_and_triggers(args):
    """The bundle and trigger set that the population and training branches
    of `bounds` verify with; ValueError naming a missing flag."""
    for flag, value in (("--bundle", args.bundle), ("--triggers", args.triggers)):
        if value is None:
            raise ValueError(f"{flag} is required unless --estimates is given")
    return ModelBundle.load(args.bundle), load_trigger_set(args.triggers)


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    manifest = run_pipeline(config, args.out or "run")
    print(json.dumps({"files": len(manifest.files), "failures": manifest.failures}, sort_keys=True))
    return EXIT_OK if not manifest.failures else EXIT_USAGE


def _json_object(path, fields: dict, number_maps: tuple[str, ...] = ()) -> dict:
    """The JSON object in path, after checking that it has each key of
    fields with a value of that key's type(s), and that the value of each
    key in number_maps is an object of numbers (harness.json_field). A file
    that is not such an object raises ValueError naming it."""
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"not a JSON object but {type(payload).__name__}")
        for key, kind in {**fields, **dict.fromkeys(number_maps, dict)}.items():
            json_field(payload, key, kind)
        for key in number_maps:
            for name in payload[key]:
                json_field(payload[key], name, JSON_NUMBER, f"{key!r}[{name!r}]")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return payload


def _cmd_report(args) -> int:
    run = Path(args.run)
    manifest = _json_object(
        run / "manifest.json", {"version": str, "failures": dict}, number_maps=("stage_seconds",)
    )
    build = [f"{key} {manifest.get(key, 'unknown')}" for key in ("numpy", "blas_core")]
    print(f"run {run} (version {manifest['version']}, {', '.join(build)})")
    seconds = manifest["stage_seconds"]
    timed = [f"{name}={seconds[name]:.3f}" for name in PIPELINE_STAGES if name in seconds]
    if timed:
        print("  stage seconds: " + " ".join(timed))
    embed_file = run / "embed_log.json"
    if embed_file.is_file():
        epochs = _json_object(embed_file, {"epochs": list})["epochs"]
        summary = f"  embedding: epochs={len(epochs)}"
        if epochs:
            try:
                accuracy, fidelity = [
                    json_field(epochs[-1], key, JSON_NUMBER, f"'epochs'[-1][{key!r}]")
                    for key in ("bit_accuracy", "fidelity")
                ]
            except ValueError as exc:
                raise ValueError(f"{embed_file}: {exc}") from None
            summary += f" bit_accuracy={accuracy:.3f} fidelity={fidelity:.4g}"
        print(summary)
    verify_dir = run / "verification"
    if verify_dir.is_dir():
        for path in sorted(verify_dir.glob("*.json")):
            payload = _json_object(
                path, {"suspect_id": str, "detection_rate": JSON_NUMBER, "tau": int, "K": int}
            )
            print(
                f"  {payload['suspect_id']:>16}: detection_rate={payload['detection_rate']:.3f} "
                f"tau={payload['tau']} K={payload['K']}"
            )
    bound_file = run / "bound_report.json"
    if bound_file.is_file():
        optional = (*JSON_NUMBER, type(None))
        payload = _json_object(
            bound_file,
            {"p_omega": JSON_NUMBER, "p_xi": JSON_NUMBER, "h_minus": optional, "h_plus": optional},
        )
        print(
            f"  bounds: p_omega={payload['p_omega']:.3g} p_xi={payload['p_xi']:.3g} "
            f"h_minus={payload['h_minus']} h_plus={payload['h_plus']}"
        )
    for stage, reason in manifest["failures"].items():
        print(f"  FAILED stage {stage}: {reason}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "embed": _cmd_embed,
        "attack": _cmd_attack,
        "verify": _cmd_verify,
        "population": _cmd_population,
        "bounds": _cmd_bounds,
        "pipeline": _cmd_pipeline,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except VerificationRefused as exc:  # a suspect or population model of the wrong shape
        print(f"randmark {args.command}: verification refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError, OverflowError, MemoryError, TrainingDiverged) as exc:
        print(f"randmark {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
