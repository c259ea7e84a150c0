"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 verification refused (suspect
architecture incompatible), 3 bound not applicable.

RANDMARK_THREADS caps numerical parallelism; the randmark package applies
it when it is imported, before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import sys

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

    def common(p):
        p.add_argument("--config", help="experiment config file (key=value sections)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory or file")

    p = sub.add_parser("gen-data", help="generate a synthetic trigger set")
    common(p)

    p = sub.add_parser("embed", help="pretrain a source backbone and embed the watermark")
    common(p)
    p.add_argument("--triggers", help="existing trigger-set file (default: generate)")

    p = sub.add_parser("attack", help="derive a functional copy of the watermarked backbone")
    common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--kind", required=True, choices=["prune", "finetune", "distill"])
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=1e-3)

    p = sub.add_parser("verify", help="decide whether a suspect carries the watermark")
    common(p)
    p.add_argument("--suspect", required=True, help="suspect checkpoint")
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--triggers", required=True, help="trigger-set file")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--K", type=int, required=True, dest="k_draws")

    p = sub.add_parser("population", help="sample a model population for bound estimation")
    common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--kind", required=True, choices=["omega", "xi"])
    p.add_argument("--M", type=int, required=True, dest="m_models")

    p = sub.add_parser("bounds", help="estimate detection-rate deviation bounds")
    common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--triggers", required=True)
    p.add_argument(
        "--population-omega", help="directory of functional-copy checkpoints (*.rmk)"
    )
    p.add_argument(
        "--population-xi", help="directory of independent-model checkpoints (*.rmk)"
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
    from .harness import ExperimentConfig

    config = (
        ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    )
    if args.seed is not None:
        config.seed = args.seed
    return config


def _cmd_gen_data(args) -> int:
    from pathlib import Path

    from .harness import build_trigger_set
    from .synth import gen_synthetic_images
    from .watermark import save_trigger_set

    config = _load_config(args)
    out = Path(args.out or "triggers.rmts")
    images = gen_synthetic_images(config.trigger_count, config.s, config.seed + 1)
    triggers = build_trigger_set(images, config.n, config.sigma_scale, config.seed + 2)
    save_trigger_set(triggers, out)
    print(f"wrote {len(triggers)} triggers to {out}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    import json as _json
    from pathlib import Path

    from .attacks import make_independent
    from .harness import build_trigger_set
    from .synth import gen_synthetic_images
    from .watermark import ModelBundle, embed_watermark, load_trigger_set, save_trigger_set

    config = _load_config(args)
    out = Path(args.out or "bundle_run")
    out.mkdir(parents=True, exist_ok=True)
    if args.triggers:
        triggers = load_trigger_set(args.triggers)
    else:
        images = gen_synthetic_images(config.trigger_count, config.s, config.seed + 1)
        triggers = build_trigger_set(images, config.n, config.sigma_scale, config.seed + 2)
        save_trigger_set(triggers, out / "triggers.rmts")
    source = make_independent(
        config.backbone_dims,
        seed=config.seed + 3,
        pretrain_data_seed=config.seed + 4,
        epochs=config.pretrain_epochs,
        n_images=config.pretrain_images,
    )
    bundle = ModelBundle.create(
        source,
        config.n,
        encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden,
        hyper=config.hyper(),
        seed=config.seed + 5,
    )
    bundle, log = embed_watermark(bundle, triggers)
    bundle.save(out / "bundle")
    (out / "embed_log.json").write_text(
        _json.dumps({"epochs": log.epochs, "aborted": log.aborted}, indent=2, sort_keys=True)
    )
    final = log.final()
    print(
        f"embedded: bit_accuracy={final['bit_accuracy']:.4f} "
        f"fidelity={final['fidelity']:.4f} (bundle in {out / 'bundle'})"
    )
    return EXIT_OK


def _cmd_attack(args) -> int:
    from pathlib import Path

    from .attacks import AttackSpec, apply_attack
    from .nnengine import save_checkpoint
    from .watermark import ModelBundle

    config = _load_config(args)
    bundle = ModelBundle.load(args.bundle)
    spec = AttackSpec(
        kind=args.kind,
        epochs=args.epochs,
        lr=args.lr,
        fraction=args.fraction,
        seed=config.seed,
    )
    net = apply_attack(bundle, spec)
    out = Path(args.out or f"{args.kind}.rmk")
    save_checkpoint(net, out)
    print(f"wrote {args.kind} suspect to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from pathlib import Path

    from .harness import verify_suspect
    from .nnengine import load_checkpoint
    from .watermark import ModelBundle, load_trigger_set

    config = _load_config(args)
    bundle = ModelBundle.load(args.bundle)
    triggers = load_trigger_set(args.triggers)
    suspect = load_checkpoint(args.suspect)
    report, _ = verify_suspect(
        suspect,
        bundle,
        triggers,
        args.tau,
        args.k_draws,
        config.seed,
        Path(args.suspect).stem,
    )
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def _cmd_population(args) -> int:
    from pathlib import Path

    from .attacks import sample_model_population
    from .harness import PopulationWriter
    from .watermark import ModelBundle

    config = _load_config(args)
    bundle = ModelBundle.load(args.bundle)
    result = sample_model_population(
        bundle,
        args.kind,
        args.m_models,
        config.seed,
        pretrain_epochs=config.pretrain_epochs,
        pretrain_images=config.pretrain_images,
    )
    out = Path(args.out or f"population_{args.kind}")
    for _ in PopulationWriter(out, args.kind, result.models, result.rows, result.excluded):
        pass
    print(f"wrote {len(result.models)} {args.kind} models to {out}")
    return EXIT_OK


def _load_population_dir(path):
    from pathlib import Path

    from .nnengine import load_checkpoint

    files = sorted(Path(path).glob("*.rmk"))
    if not files:
        raise ValueError(f"no checkpoints in {path}")
    return [load_checkpoint(f) for f in files]


def _report_from_estimates(config, path):
    from pathlib import Path

    from .bounds import build_bound_report, collision_estimate

    payload = json.loads(Path(path).read_text())
    estimates = []
    for population in ("omega", "xi"):
        rows = payload[population]
        level = config.alpha / len(rows)
        for row in rows:
            estimates.append(
                collision_estimate(
                    int(row["trigger_id"]), int(row["matches"]), int(row["trials"]),
                    level, population,
                )
            )
    return build_bound_report(
        estimates,
        n=config.n,
        tau=config.tau,
        r_bar=config.r_bar,
        r_under=config.r_under,
        alpha=config.alpha,
        delta=config.delta,
        p_hat=float(payload["p_hat"]),
        q_hat=float(payload["q_hat"]),
    )


def _cmd_bounds(args) -> int:
    from pathlib import Path

    from .attacks import IndependentPool
    from .harness import _bounds_stage, _submit_xi, compute_bound_report
    from .watermark import ModelBundle, load_trigger_set

    config = _load_config(args)
    bundle = ModelBundle.load(args.bundle)
    triggers = load_trigger_set(args.triggers)
    out = Path(args.out or "bounds_run")
    out.mkdir(parents=True, exist_ok=True)
    if args.estimates:
        report = _report_from_estimates(config, args.estimates)
        (out / "bound_report.json").write_text(report.to_json())
    elif args.population_omega or args.population_xi:
        if not (args.population_omega and args.population_xi):
            print("need both --population-omega and --population-xi", file=sys.stderr)
            return EXIT_USAGE
        report = compute_bound_report(
            config,
            bundle,
            triggers,
            _load_population_dir(args.population_omega),
            _load_population_dir(args.population_xi),
            verify_seed=config.seed + 6,
        )
        (out / "bound_report.json").write_text(report.to_json())
    else:
        with IndependentPool(config.m_models) as pool:
            xi = _submit_xi(pool, bundle.backbone_dims, config, config.seed)
            _bounds_stage(config, bundle, triggers, out, config.seed, xi)
    payload = json.loads((out / "bound_report.json").read_text())
    print((out / "bound_report.json").read_text())
    if payload["h_minus"] is None or payload["h_plus"] is None:
        return EXIT_BOUND_NA
    return EXIT_OK


def _parse_probs(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _cmd_oracle(args) -> int:
    from dataclasses import asdict

    from . import oracles

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
    from .harness import run_pipeline

    config = _load_config(args)
    manifest = run_pipeline(config, args.out or "run")
    print(json.dumps({"files": len(manifest.files), "failures": manifest.failures}, sort_keys=True))
    return EXIT_OK if not manifest.failures else EXIT_USAGE


def _cmd_report(args) -> int:
    from pathlib import Path

    run = Path(args.run)
    manifest = json.loads((run / "manifest.json").read_text())
    print(f"run {run} (version {manifest['version']})")
    verify_dir = run / "verification"
    if verify_dir.is_dir():
        for path in sorted(verify_dir.glob("*.json")):
            payload = json.loads(path.read_text())
            print(
                f"  {payload['suspect_id']:>16}: detection_rate={payload['detection_rate']:.3f} "
                f"tau={payload['tau']} K={payload['K']}"
            )
    bound_file = run / "bound_report.json"
    if bound_file.is_file():
        payload = json.loads(bound_file.read_text())
        print(
            f"  bounds: p_omega={payload['p_omega']:.3g} p_xi={payload['p_xi']:.3g} "
            f"h_minus={payload['h_minus']} h_plus={payload['h_plus']}"
        )
    for stage, reason in manifest.get("failures", {}).items():
        print(f"  FAILED stage {stage}: {reason}")
    return EXIT_OK


def main(argv=None) -> int:
    from .watermark import VerificationRefused

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
    except (ValueError, OSError) as exc:
        print(f"randmark {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
