"""Acceptance suite: each test enforces one exit criterion at its stated
tolerance and prints a PASS/FAIL line. Run with `pytest -s` to see the
lines while the suite executes."""

import math
import time
from fractions import Fraction

import numpy as np

from randmark import bounds, oracles, stats
from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.harness import run_pipeline

from conftest import gradient_check, trigger_loss
from test_harness import micro_config


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_exact_fpr_kernel():
    expected = float(Fraction(242825, 2**32))
    value = stats.fpr_binomial(0.5, 32, 5)  # warm-up
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        value = stats.fpr_binomial(0.5, 32, 5)
        timings.append(time.perf_counter() - t0)
    rel_err = abs(value - expected) / expected
    runtime = min(timings)
    ok = rel_err < 1e-12 and runtime < 1e-3
    _report(1, "exact-fpr-kernel", ok, f"rel_err={rel_err:.2e} runtime={runtime*1e6:.0f}us")


def test_02_threshold_calibration():
    # CPU time of this process, so that other work on the machine does not
    # count against the bound
    t0 = time.process_time()
    ok = stats.select_threshold(0.5, 32, 1e-4) == 5
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        r = float(rng.uniform(0.3, 0.99))
        n = int(rng.integers(4, 65))
        eps = float(10 ** rng.uniform(-8, -0.3))
        tau = stats.select_threshold(r, n, eps)
        if tau is None:
            ok &= oracles.exact_binomial_tail(n, 0, r).value >= eps
        else:
            ok &= oracles.exact_binomial_tail(n, tau, r).value < eps
            if tau < n - 1:
                ok &= oracles.exact_binomial_tail(n, tau + 1, r).value >= eps
        checked += 1
    runtime = time.process_time() - t0
    ok = ok and checked == 100 and runtime < 1.0
    _report(2, "threshold-calibration", ok, f"grid=100 runtime={runtime:.3f}s")


def test_03_poisson_binomial_dp_equals_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        probs = rng.random(n)
        d = int(rng.integers(0, n + 1))
        tail = "below" if rng.random() < 0.5 else "above"
        exact = oracles.brute_force_poisson_binomial(probs, d, tail).value
        worst = max(worst, abs(bounds.poisson_binomial_cdf(probs, d, tail) - exact))
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-12 and runtime < 10.0
    _report(3, "poisson-binomial-dp", ok, f"max_abs_dev={worst:.2e} runtime={runtime:.2f}s")


def test_04_chernoff_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    checked = 0
    ok = True
    while checked < 200:
        n = int(rng.integers(3, 51))
        probs = rng.uniform(0.15, 0.99, n)
        mean_p = float(probs.mean())
        d_max = math.ceil(n * mean_p) - 1
        if d_max < 1:
            continue
        d = int(rng.integers(1, d_max + 1))
        if not d < n * mean_p:
            continue
        exact = bounds.poisson_binomial_cdf(probs, d, "below")
        gamma = bounds.chernoff_gamma(mean_p, d, n)
        ok &= exact <= gamma + 1e-12
        checked += 1
    for d, n in ((1, 4), (3, 10), (13, 40), (250, 1000)):
        ok &= bounds.chernoff_gamma(d / n, d, n) == 1.0
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 30.0
    _report(4, "chernoff-validity", ok, f"configs=200 runtime={runtime:.2f}s")


def test_05_lemma_end_to_end():
    # trigger count large enough that the Hoeffding margin leaves most
    # replications applicable, so the dominance check has teeth
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.85, 0.95, 100)
    probs = probs + (0.9 - probs.mean())  # heterogeneous, mean exactly 0.9
    result = oracles.lemma_validity_simulation(probs, 0.05, 75, 10_000, seed=55)
    runtime = time.perf_counter() - t0
    threshold = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 10_000)
    ok = (
        result.violation_rate <= threshold
        and result.applicable > result.inapplicable
        and runtime < 120.0
    )
    _report(
        5,
        "lemma-end-to-end",
        ok,
        f"violation_rate={result.violation_rate:.4f} (<= {threshold:.4f}) "
        f"applicable={result.applicable} inapplicable={result.inapplicable} "
        f"runtime={runtime:.1f}s",
    )


def test_06_clopper_pearson_coverage():
    t0 = time.perf_counter()
    reps = 100_000
    ok = True
    worst = ""
    for p in (0.5, 0.8, 0.95):
        for trials in (50, 200):
            for level in (0.05, 0.001):
                result = oracles.coverage_simulation(
                    p, trials, level, reps, seed=int(p * 1000) + trials, side="lower"
                )
                se = math.sqrt(level * (1 - level) / reps)
                if result.value > level + 3 * se:
                    ok = False
                    worst = f"p={p} trials={trials} level={level} miss={result.value}"
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 120.0
    _report(6, "clopper-pearson-coverage", ok, worst or f"grid=12 runtime={runtime:.1f}s")


def test_07_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    acts = ["tanh", "sigmoid", "identity"]

    for _ in range(14):  # plain networks under a squared-error functional
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        layer_acts = [acts[int(rng.integers(0, 3))] for _ in range(depth)]
        net = ne.init_network(dims, layer_acts, rng)
        x = rng.standard_normal((2, dims[0]))
        targets = rng.standard_normal((2, dims[-1]))

        def loss_fn(n):
            out, _ = ne.forward_batch(n, x)
            return float(((out - targets) ** 2).sum())

        def grad_fn(n):
            out, trace = ne.forward_batch(n, x)
            return ne.backward(n, trace, 2.0 * (out - targets))

        worst = max(worst, gradient_check(net, loss_fn, grad_fn))

    for trial in range(6):  # full composite embedding loss over all three nets
        s, k, n_bits = 6, 4, 3
        f = ne.init_network([s, 5, k], ["tanh", "identity"], rng)
        bundle = wm.ModelBundle.create(
            f, n_bits, encoder_hidden=(6,), decoder_hidden=(5,),
            hyper=wm.HyperParams(lam=float(rng.uniform(0.2, 3.0)), k_train=3, epochs=0),
            seed=int(rng.integers(0, 2**31)),
        )
        for layer in bundle.watermarked_f.layers:
            layer.weight += 0.05 * rng.standard_normal(layer.weight.shape)
        triggers = wm.TriggerSet(rng.random((1, s)), rng.integers(0, 2, (1, n_bits)), [0.08], 0)
        seed = 70 + trial
        grads = trigger_loss(bundle, triggers, 3, seed)[2]
        for name, net in (
            ("watermarked_f", bundle.watermarked_f),
            ("encoder_e", bundle.encoder_e),
            ("decoder_d", bundle.decoder_d),
        ):
            # floor keeps the relative metric meaningful on near-zero
            # entries (loss scale is O(10); a wrong gradient still reports
            # errors orders of magnitude above the tolerance)
            err = gradient_check(
                net,
                lambda _: sum(trigger_loss(bundle, triggers, 3, seed)[:2]),
                lambda _: grads[name],
                floor=1e-4,
            )
            worst = max(worst, err)
    runtime = time.perf_counter() - t0
    ok = worst < 1e-5 and runtime < 30.0
    _report(7, "gradient-correctness", ok, f"max_rel_err={worst:.2e} runtime={runtime:.1f}s")


def test_08_end_to_end_separation(desk_run):
    rates = {name: report.detection_rate for name, report in desk_run.reports.items()}
    independents = [rates[f"independent{i}"] for i in range(5)]
    ok = (
        rates["watermarked"] >= 0.95
        and all(r <= 0.05 for r in independents)
        and rates["prune20"] >= 0.90
        and rates["prune40"] >= 0.75
        and rates["finetune3"] >= 0.70
        and desk_run.build_seconds < 600.0
    )
    _report(
        8,
        "end-to-end-separation",
        ok,
        f"wm={rates['watermarked']:.2f} p20={rates['prune20']:.2f} "
        f"p40={rates['prune40']:.2f} ft3={rates['finetune3']:.2f} "
        f"indep_max={max(independents):.2f} build={desk_run.build_seconds:.0f}s",
    )


def test_09_fidelity(desk_run):
    ok = desk_run.fidelity_ratio <= 0.1
    _report(9, "fidelity", ok, f"relative_drift={desk_run.fidelity_ratio:.4f} (<= 0.1)")


def test_10_covariance_diagnostic(desk_run):
    seed = desk_run.config.seed + 6
    distances = desk_run.covariance_distances  # the covariance stage's draws
    reference = distances["watermarked"]
    dep = float(np.mean(
        stats.covariance_delta(reference, distances["prune20"], seed, seed)
    ))
    indep = np.array([
        np.mean(
            stats.covariance_delta(reference, distances[f"independent{i}"], seed, seed)
        )
        for i in range(10)
    ])
    p95 = float(np.percentile(indep, 95))
    se = float(indep.std(ddof=1) / math.sqrt(indep.size))
    ok = dep > p95 and abs(float(indep.mean())) <= 3 * se
    _report(
        10,
        "covariance-diagnostic",
        ok,
        f"dep={dep:.5f} indep_p95={p95:.5f} indep_mean={indep.mean():.6f} 3se={3*se:.6f}",
    )


def test_11_pipeline_determinism(tmp_path):
    config_a = micro_config(seed=2100)
    config_b = micro_config(seed=2100)
    run_pipeline(config_a, tmp_path / "a")
    run_pipeline(config_b, tmp_path / "b")
    rel_a = sorted(
        p.relative_to(tmp_path / "a")
        for p in (tmp_path / "a").rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    rel_b = sorted(
        p.relative_to(tmp_path / "b")
        for p in (tmp_path / "b").rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    ok = rel_a == rel_b and len(rel_a) > 0
    mismatched = []
    if ok:
        for rel in rel_a:
            if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes():
                mismatched.append(str(rel))
        ok = not mismatched
    _report(
        11,
        "pipeline-determinism",
        ok,
        f"files={len(rel_a)} mismatched={mismatched or 'none'}",
    )
