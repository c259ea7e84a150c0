"""Benchmark for randmark: three closed-loop workloads against the library in
this checkout's ``src``, with output checks and, in a separate traced run,
per-layer numbers from spans around each module's public functions.

    python3 benchmarks/run.py --workload verify-scan --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("desk-pipeline", "verify-scan", "embed")
# One BLAS thread: on a 2-core machine it times more steadily than two.
BLAS_THREADS = 1
SEED_MODULUS = 2**31  # keeps every seed offset the pipeline adds non-negative


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def environment(seed: int, config_seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "config_seed": config_seed,
    }


def closed_loop(workload, seconds: float, fixed_ops=None, tracer=None, first: int = 0):
    """One client: each operation starts when the previous one and its check
    are done. Runs ``fixed_ops`` operations, or else until ``seconds`` have
    passed and at least ``workload.min_ops`` operations ran."""
    times, failed, index = [], 0, first
    pause = tracer.paused if tracer is not None else nullcontext
    start = time.perf_counter()
    while True:
        done = index - first
        if fixed_ops is not None:
            if done >= fixed_ops:
                break
        elif done >= workload.min_ops and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = index
        op_start = time.perf_counter()
        try:
            result = workload.op(index)
            times.append(time.perf_counter() - op_start)
            with pause():
                problems = workload.check(index, result)
        except Exception:
            traceback.print_exc()
            problems = ["operation raised"]
        if problems:
            failed += 1
            print(f"{workload.name} op {index}: {'; '.join(problems)}", file=sys.stderr)
        index += 1
    return times, index - first, failed, time.perf_counter() - start


def run_finish(workload, tracer=None) -> tuple[int, int]:
    """(attempted, failed) for the workload's closing step."""
    if tracer is not None:
        tracer.op = "finish"
    try:
        problems = workload.finish()
    except Exception:
        traceback.print_exc()
        problems = ["finish raised"]
    if problems is None:
        return 0, 0
    if problems:
        print(f"{workload.name} finish: {'; '.join(problems)}", file=sys.stderr)
    return 1, int(bool(problems))


def end_to_end(workload, seconds: int) -> tuple[dict, int, int, int]:
    setup_times = workload.setup()
    times, attempted, failed, elapsed = closed_loop(workload, seconds)
    extra_attempted, extra_failed = run_finish(workload)
    attempted += extra_attempted
    failed += extra_failed
    latencies = sorted(times) or [elapsed]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    else:
        p90 = latencies[-1]
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return values, attempted, failed, len(times)


def per_layer(workload, header: dict) -> tuple[dict, int, int, int]:
    from tracer import TARGETS, Tracer

    tracer = Tracer()
    with tracer.installed():
        workload.setup()
    plain_times, plain_ops, plain_failed, _ = closed_loop(workload, 0, fixed_ops=workload.trace_ops)
    with tracer.installed():
        traced_times, traced_ops, traced_failed, _ = closed_loop(
            workload, 0, fixed_ops=workload.trace_ops, tracer=tracer, first=workload.trace_ops
        )
        extra_attempted, extra_failed = run_finish(workload, tracer)
    attempted = plain_ops + traced_ops + extra_attempted
    failed = plain_failed + traced_failed + extra_failed

    totals = tracer.totals()
    values = {}
    for _, _, name, _ in TARGETS:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.s"] = entry["s"]
        values[f"{name}.self_s"] = entry["self_s"]
    extras = tracer.extras
    flop = extras["nnengine.forward_batch"]["flop"] + extras["nnengine.backward"]["flop"]
    busy = values["nnengine.forward_batch.self_s"] + values["nnengine.backward.self_s"]
    values["nnengine.gflop"] = flop / 1e9
    values["nnengine.achieved_gflops"] = flop / 1e9 / busy if busy else 0.0
    values["nnengine.save_checkpoint.mb"] = extras["nnengine.save_checkpoint"]["bytes"] / 1e6
    values["nnengine.load_checkpoint.mb"] = extras["nnengine.load_checkpoint"]["bytes"] / 1e6
    population = extras["attacks.sample_model_population"]
    for key in ("requested", "delivered", "excluded"):
        values[f"attacks.omega.{key}"] = int(population[f"omega_{key}"])
    requested, delivered = population["omega_requested"], population["omega_delivered"]
    values["attacks.omega_delivered_ratio"] = delivered / requested if requested else 0.0
    values["synth.images"] = int(extras["synth.gen_synthetic_images"]["images"])
    embed = extras["watermark.embed_watermark"]
    values["watermark.embed.final_bit_accuracy"] = embed["last_bit_accuracy"]
    for stage in ("data", "embed", "attacks", "verify", "covariance", "bounds"):
        values[f"harness.stage.{stage}_s"] = workload.stage_seconds.get(stage, 0.0)
    values["trace.overhead_s"] = (sum(traced_times) - sum(plain_times)) / workload.trace_ops
    values["trace.spans"] = len(tracer.spans)
    tracer.write(
        workload.root / ".bench_work" / "traces" / f"{workload.name}-{workload.seed}.jsonl.gz",
        {**header, "metrics": values},
    )
    return values, attempted, failed, len(traced_times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "randmark" / "__init__.py").is_file():
        print(f"no randmark package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # BLAS reads its thread count when numpy loads, so pin it before any import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    config_seed = args.seed % SEED_MODULUS
    header = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    header["environment"] = environment(args.seed, config_seed)
    workload = WORKLOADS[args.workload](ROOT, config_seed)
    correct = False
    try:
        if args.trace:
            values, attempted, failed, samples = per_layer(workload, header)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, samples = end_to_end(workload, args.seconds)
            wanted = spec["end_to_end"]
        correct = failed == 0
    finally:
        workload.close(correct)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({**header, "samples": samples}))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
