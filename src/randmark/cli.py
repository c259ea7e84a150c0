"""Command-line entry point.

Exit codes: 0 success, 1 usage error (also a bad input file or a diverged
training run), 2 verification refused (suspect architecture incompatible),
3 bound not applicable.

RANDMARK_THREADS caps numerical parallelism; the randmark package applies
it when it is imported, before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import oracles
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
            help=f"directory of {models} checkpoints: those {kind}_manifest.json "
            "lists if it is there, else every *.rmk",
        )
    p.add_argument(
        "--estimates",
        help="JSON file with precomputed per-trigger bit-collision counts "
        "(keys: p_hat, q_hat, omega, xi)",
    )

    p = sub.add_parser("oracle", help="ad-hoc exact/Monte-Carlo checks, JSON lines out")
    oracle_sub = p.add_subparsers(dest="oracle_kind", required=True)
    q = oracle_sub.add_parser("binomial-tail")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    q.add_argument("--r", type=float, required=True)
    q = oracle_sub.add_parser("poisson-binomial")
    q.add_argument("--probs", required=True, help="comma-separated probabilities")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--tail", choices=["below", "above"], default="below")
    q = oracle_sub.add_parser("mc-bernoulli")
    q.add_argument("--probs", required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--trials", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q = oracle_sub.add_parser("coverage")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--level", type=float, required=True)
    q.add_argument("--reps", type=int, default=10_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--side", choices=["lower", "upper"], default="lower")
    q = oracle_sub.add_parser("lemma-sim")
    q.add_argument("--probs", required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--r-bar", type=int, required=True)
    q.add_argument("--reps", type=int, default=10_000)
    q.add_argument("--seed", type=int, default=0)

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
    else:
        triggers = data_stage(config, out / "triggers.rmts")
    _, log = embed_stage(config, triggers, out)
    final = log.final()
    print(
        f"embedded: bit_accuracy={final['bit_accuracy']:.4f} "
        f"fidelity={final['fidelity']:.4f} (bundle in {out / 'bundle'})"
    )
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
    if args.estimates:
        report = bound_report_from_estimates(config, args.estimates)
    elif args.population_omega or args.population_xi:
        if not (args.population_omega and args.population_xi):
            print("need both --population-omega and --population-xi", file=sys.stderr)
            return EXIT_USAGE
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


def _parse_probs(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _cmd_oracle(args) -> int:
    if args.oracle_kind == "binomial-tail":
        result = oracles.exact_binomial_tail(args.n, args.tau, args.r)
    elif args.oracle_kind == "poisson-binomial":
        result = oracles.brute_force_poisson_binomial(
            _parse_probs(args.probs), args.d, args.tail
        )
    elif args.oracle_kind == "mc-bernoulli":
        result = oracles.monte_carlo_bernoulli_sum(
            _parse_probs(args.probs), args.d, args.trials, args.seed
        )
    elif args.oracle_kind == "coverage":
        result = oracles.coverage_simulation(
            args.p, args.trials, args.level, args.reps, args.seed, side=args.side
        )
    else:
        result = oracles.lemma_validity_simulation(
            _parse_probs(args.probs), args.delta, args.r_bar, args.reps, args.seed
        )
    print(json.dumps(asdict(result), sort_keys=True))
    return EXIT_OK


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
    print(f"run {run} (version {manifest['version']})")
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
        "oracle": _cmd_oracle,
        "pipeline": _cmd_pipeline,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except VerificationRefused as exc:  # a suspect or population model of the wrong shape
        print(f"randmark {args.command}: verification refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"randmark {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
