"""Shared fixtures and test tools: a fast mini training run for unit tests,
one desk-scale run shared by the acceptance suite and directional tests, a
finite-difference gradient checker, weight sparsity, one-trigger views of
the embedding loss and of decoding, the one runner of the checks in
pinned_checks.py, each in a fresh process with a given BLAS thread count,
and the kernel checks, which share one such process per OpenBLAS kernel,
started when collection ends so that it runs beside the other tests."""

import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.harness import (
    ExperimentConfig, attacks_stage, build_trigger_set, data_stage, embed_stage, staging_directory,
    verify_stage,
)
from randmark.nnengine import MlpNetwork, _blas_core, forward_batch
from randmark.synth import gen_synthetic_images

MINI = dict(s=64, k=16, n=8, n_triggers=16)


def desk_hyper(**fields) -> wm.HyperParams:
    """The default ExperimentConfig's embedding settings, fields replaced."""
    return replace(ExperimentConfig().hyper(), **fields)


def gradient_check(
    net: MlpNetwork,
    loss_fn,
    grad_fn,
    fd_step: float = 1e-6,
    floor: float = 1e-12,
) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients over every weight and bias entry.

    loss_fn(net) -> float evaluates the loss at the network's current
    parameters; grad_fn(net) -> Gradients returns its analytic gradient.
    Relative error per entry is |a - fd| / max(|a|, |fd|, floor).
    """
    base = float(loss_fn(net))
    if not math.isfinite(base):
        raise ValueError("loss is non-finite at the evaluation point")
    analytic = grad_fn(net)
    worst = 0.0

    # the layers view net.params, so perturbing an entry of it moves the
    # matching weight or bias; analytic.flat shares the layout
    params = net.params
    for idx in range(params.shape[0]):
        saved = params[idx]
        params[idx] = saved + fd_step
        up = float(loss_fn(net))
        params[idx] = saved - fd_step
        down = float(loss_fn(net))
        params[idx] = saved
        fd = (up - down) / (2.0 * fd_step)
        a = analytic.flat[idx]
        err = abs(a - fd) / max(abs(a), abs(fd), floor)
        if err > worst:
            worst = err
    return worst


def sparsity(net: MlpNetwork) -> float:
    """Fraction of exactly-zero weight entries, biases excluded."""
    zeros = sum(np.count_nonzero(layer.weight == 0.0) for layer in net.layers)
    return zeros / net.weight_count()


def one_trigger(s: int, n: int, sigma: float, seed: int) -> wm.TriggerSet:
    """A one-trigger set: a uniform random image and message from seed."""
    rng = np.random.default_rng(seed)
    return wm.TriggerSet(rng.random((1, s)), rng.integers(0, 2, (1, n)), [sigma], seed)


def trigger_loss(bundle: wm.ModelBundle, triggers: wm.TriggerSet, k_draws: int, stream_seed: int):
    """The embedding loss of a one-trigger set under sample_noise's K draws
    from stream_seed, through embed_watermark's kernel: (fidelity, message,
    grads) with grads keyed watermarked_f, encoder_e, decoder_d."""
    image = triggers.images[0]
    noise = (wm.sample_noise(image, triggers.sigmas[0], k_draws, stream_seed) - image)[None]
    out_ref, _ = forward_batch(bundle.frozen_f, triggers.images)
    step = wm._EmbedStep(
        bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d,
        triggers.messages.astype(np.float64), k_draws,
    )
    fidelity, message, _, grads = step(
        out_ref, triggers.images, noise, bundle.hyper.lam, bundle.hyper.delta_scale
    )
    return fidelity, message, dict(zip(("watermarked_f", "encoder_e", "decoder_d"), grads))


def decode_one_trigger(decoder: MlpNetwork, message_bits, k_draws: int):
    """decode_triggers' distances (K,) for one trigger carrying message_bits,
    through a bundle around decoder (a sigmoid output layer) whose
    watermarked backbone is the suspect; a decoder with zero weights reads
    the same bits from every embedding."""
    s, k, n = 4, decoder.input_dim, decoder.output_dim
    backbone = ne.init_network([s, k], ["identity"], 0)
    bundle = wm.ModelBundle(
        backbone, backbone, ne.init_network([s + n, s], ["tanh"], 1), decoder, desk_hyper()
    )
    triggers = wm.TriggerSet(np.full((1, s), 0.5), [message_bits], [0.1], 0)
    return wm.decode_triggers(backbone, bundle, triggers, k_draws, 3)[0]


def see_cpus(monkeypatch, count):
    """Show the process `count` CPUs and a BLAS on one thread, under which a
    process that runs no other Python thread uses one worker per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(ne, "_blas_threads", lambda: 1)


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


# OpenBLAS kernel families for run_pinned's coretype, each skipped on a CPU
# without the instructions it runs: a forced core is not checked against
# the CPU by OpenBLAS
_FLAGS = _cpu_flags()
CORETYPES = [
    pytest.param(core, marks=pytest.mark.skipif(flag not in _FLAGS, reason=f"CPU lacks {flag}"))
    for core, flag in (("SkylakeX", "avx512f"), ("Haswell", "avx2"), ("Sandybridge", "avx"))
]


def assert_pinned(observed, by_core: dict):
    """Assert that observed is the value pinned for the OpenBLAS core this
    process runs on (nnengine._blas_core()): trained weights depend on the
    kernel in their last bits. A core with no pinned value fails, naming the
    core and the value it gives."""
    core = _blas_core()
    if core not in by_core:
        pytest.fail(f"no value pinned for OpenBLAS core {core!r} (pinned for "
                    f"{', '.join(by_core)}); on it this gives {observed!r}")
    assert observed == by_core[core], f"pinned for OpenBLAS core {core}"


# The variables that set a BLAS's thread count, each read when it loads
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
)


# Each child run_pinned started in this pytest run, as [the test it ran for,
# or its kernel, its wall seconds], which pytest_terminal_summary reports
PINNED: list[list] = []


@dataclass
class PinnedChild:
    """A started child of pinned_checks.py: its checks, its process, the
    files its standard output and error go to, its timeout, and its wall
    clock start."""

    names: tuple
    process: subprocess.Popen
    out: IO
    err: IO
    timeout: float
    started: float = field(default_factory=time.time)

    def results(self, label: str) -> dict:
        """Wait for the child, charge its start-to-exit seconds to label in
        PINNED, and return run_pinned's results; past its timeout the child
        is killed and TimeoutExpired raised."""
        running = self.process.poll() is None
        try:
            self.process.wait(timeout=max(0.0, self.started + self.timeout - time.time()))
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        finally:
            # a child that exited before this wait ended at its last output: its
            # last check's report, or the error or stack dump it died with
            ended = time.time() if running else max(os.fstat(f.fileno()).st_mtime for f in (self.out, self.err))
            PINNED.append([label, max(ended, self.started) - self.started])
        stdout, stderr = (_read_and_close(f) for f in (self.out, self.err))
        code, names = self.process.returncode, self.names
        died = f"the child exited {code} before this check reported\n{stderr}"
        reported = {line[0]: line[1:] for line in map(json.loads, stdout.splitlines())}
        if code != 0 and reported.keys() >= set(names):
            exited = f"the child exited {code} after every check reported\n{stderr}"
            reported = {name: [failure or exited, value] for name, (failure, value) in reported.items()}
        return {name: [died, None] for name in names} | reported


def _read_and_close(file: IO) -> str:
    file.seek(0)
    with file:
        return file.read()


def start_pinned(*names: str, coretype: str | None = None, blas_threads: int | None = 1,
                 env: dict | None = None, args: list | None = None, timeout: float = 300) -> PinnedChild:
    """Start a fresh Python that runs the named functions of pinned_checks.py
    in order, each with args as its positional arguments, with RuntimeWarnings
    raised as errors as in this suite, and OpenBLAS on the kernels of
    coretype when given.

    The child's thread variables are stripped from the environment it would
    inherit; OPENBLAS_NUM_THREADS is set to blas_threads, 1 (pinned) by
    default, or left unset for None, the path of a user who set nothing; env
    then updates the child's environment. A child still running at 90% of
    timeout writes every thread's stack to its standard error and dies.
    """
    child_env = {**os.environ, "PYTHONPATH": str(Path(ne.__file__).resolve().parents[1])}
    for var in THREAD_VARIABLES:
        child_env.pop(var, None)
    if blas_threads is not None:
        child_env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    if coretype is not None:
        child_env["OPENBLAS_CORETYPE"] = coretype
    child_env.update(env or {})
    alarm = max(1, int(timeout * 0.9))
    command = [sys.executable, "-W", "error::RuntimeWarning", Path(__file__).parent / "pinned_checks.py",
               str(alarm), json.dumps(args or []), *names]
    out, err = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
    process = subprocess.Popen(command, stdout=out, stderr=err, env=child_env)
    return PinnedChild(names, process, out, err, timeout)


def run_pinned(*names: str, **options) -> dict:
    """Run start_pinned's child to its end. Return each reported line, by
    name, as [traceback or None, the JSON value returned]; a named check
    that reported nothing, because the child died first, gets the child's
    exit code and standard error, and so does each check that passed in a
    child that exited nonzero after every named check reported: one that
    hung at exit or crashed in shutdown."""
    test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
    return start_pinned(*names, **options).results(test)


def returned(results: dict[str, list], name: str | None = None):
    """What a check of run_pinned's results, by default the first, returned;
    the test fails with its traceback if it raised or never reported."""
    name = name or next(iter(results))
    failure, value = results.get(name, [f"the child reported no {name!r}", None])
    if failure is not None:
        pytest.fail(failure, pytrace=False)
    return value


# The kernel checks: the name of the check function by module.qualname of
# the test; pytest_collection_finish keeps those of the selected tests
KERNEL_CHECKS: dict[str, str] = {}


def kernel_check(check):
    """Make a test that is parametrized over CORETYPES and asserts that the
    check function of pinned_checks passed in its kernel's shared child,
    which runs every kernel check of the session the first time a test asks
    for that kernel. The test's own body runs first, in this process."""

    def decorate(test):
        name = f"{test.__module__}.{test.__qualname__}"
        KERNEL_CHECKS[name] = check.__name__

        @functools.wraps(test)
        def run(*args, coretype):
            test(*args, coretype)
            returned(shared_child(tuple(KERNEL_CHECKS.values()), coretype), check.__name__)

        run.kernel_check = name
        return pytest.mark.parametrize("coretype", CORETYPES)(run)

    return decorate


# The kernel children of this session, one per kernel that a selected test
# asks for, in CORETYPES order, each None until it starts: the first starts
# when collection ends and each next one at the end of a test once the one
# before it exited, so that one CPU runs them while the other runs tests.
# Only the main thread starts them: another Python thread would keep the
# tests' pools and helpers serial (nnengine._worker_count).
KERNEL_CHILDREN: dict[str, PinnedChild | None] = {}


def _start_next_kernel_child():
    if all(child is None or child.process.poll() is not None for child in KERNEL_CHILDREN.values()):
        for coretype, child in KERNEL_CHILDREN.items():
            if child is None:
                KERNEL_CHILDREN[coretype] = start_pinned(*KERNEL_CHECKS.values(), coretype=coretype)
                return


@functools.cache
def shared_child(names: tuple, coretype: str | None = None) -> dict:
    """run_pinned's results for names, from one child in a session; a
    kernel's child, which runs every kernel check, is started now if it has
    not started yet."""
    if coretype is None:
        return run_pinned(*names)
    if KERNEL_CHILDREN.get(coretype) is None:
        KERNEL_CHILDREN[coretype] = start_pinned(*names, coretype=coretype)
    return KERNEL_CHILDREN[coretype].results(coretype)


def pytest_collection_modifyitems(items):
    # the kernel tests last, in their order, so that their children run beside the others
    items.sort(key=lambda item: hasattr(getattr(item, "obj", None), "kernel_check"))


def pytest_collection_finish(session):
    # the checks and kernels of the selected tests that no true skipif condition skips
    selected = [
        item for item in session.items if getattr(item.obj, "kernel_check", None)
        and not any(mark.args and mark.args[0] is True for mark in item.iter_markers("skipif"))
    ]
    checks = {item.obj.kernel_check for item in selected}
    for name in [name for name in KERNEL_CHECKS if name not in checks]:
        del KERNEL_CHECKS[name]
    cores = {item.callspec.params["coretype"] for item in selected}
    if not session.config.option.collectonly:
        KERNEL_CHILDREN.update((param.values[0], None) for param in CORETYPES if param.values[0] in cores)
        _start_next_kernel_child()


def pytest_runtest_logfinish():
    _start_next_kernel_child()


def pytest_sessionfinish():
    # a kernel child that no test waited for, after -x or a keyboard interrupt
    for child in KERNEL_CHILDREN.values():
        if child is not None and not child.out.closed:
            child.process.kill()
            child.process.wait()
            child.out.close()
            child.err.close()


def pytest_terminal_summary(terminalreporter):
    """Report run_pinned's children: their count and wall seconds, then each
    kernel child's seconds and the three slowest other children, so that a
    slow suite shows which child to cut."""
    write = terminalreporter.write_line
    write(f"run_pinned: {len(PINNED)} children, {sum(s for _, s in PINNED):.1f} s")
    cores = {param.values[0] for param in CORETYPES}
    kernels = [f"{name} {s:.1f} s" for name, s in PINNED if name in cores]
    if kernels:
        write("  kernel children: " + ", ".join(kernels))
    slowest = sorted(((s, name) for name, s in PINNED if name not in cores), reverse=True)[:3]
    if slowest:
        write("  slowest other children:")
    for s, name in slowest:
        write(f"    {s:.1f} s {name}")


@dataclass
class MiniRun:
    triggers: wm.TriggerSet
    source_f: MlpNetwork
    bundle: wm.ModelBundle
    log: wm.TrainingLog


@pytest.fixture(scope="session")
def mini_run() -> MiniRun:
    images = gen_synthetic_images(MINI["n_triggers"], MINI["s"], 11)
    triggers = build_trigger_set(images, MINI["n"], 0.1, 12)
    source = atk.make_independent(
        [MINI["s"], 48, MINI["k"]], seed=13, pretrain_data_seed=14, epochs=30, n_images=120
    )
    bundle = wm.ModelBundle.create(
        source, MINI["n"], encoder_hidden=(64,), decoder_hidden=(32,),
        hyper=desk_hyper(k_train=6, epochs=150), seed=15,
    )
    bundle, log = wm.embed_watermark(bundle, triggers)
    return MiniRun(triggers=triggers, source_f=source, bundle=bundle, log=log)


@dataclass
class DeskRun:
    config: ExperimentConfig
    triggers: wm.TriggerSet
    bundle: wm.ModelBundle
    log: wm.TrainingLog
    suspects: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)  # each suspect's verification JSON, loaded
    distances: dict = field(default_factory=dict)  # the first k_verify draws
    covariance_distances: dict = field(default_factory=dict)  # all COVARIANCE_DRAWS draws
    fidelity_ratio: float = 0.0
    build_seconds: float = 0.0

    @property
    def independent_ids(self):
        return [k for k in self.reports if k.startswith("independent")]


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory) -> DeskRun:
    """The default desk configuration with ten independent models, through
    run_pipeline's own stages into a session directory: data, embed,
    attacks (the config's two prune levels and its fine-tune, then the
    independents) and verify, whose one decode per suspect over
    COVARIANCE_DRAWS draws gives both the verify distances (its first
    k_verify draws) and the covariance stage's. As in run_pipeline, the
    independents are submitted to an IndependentPool first and train in its
    workers, bit-identical to serial ones, which save them to a staging
    directory that the attacks stage takes them from."""
    t_start = time.perf_counter()
    config = replace(ExperimentConfig(), independents=10)
    seeds, count = config.seeds, config.independents
    out = tmp_path_factory.mktemp("desk")
    with staging_directory(out) as staging, atk.IndependentPool(count) as pool:
        independents = pool.submit(
            config.backbone_dims,
            [seeds.independents + i for i in range(count)],
            [seeds.independent_data + i for i in range(count)],
            config.pretrain_epochs,
            config.pretrain_images,
            [staging / f"independent{i}.rmk" for i in range(count)],
        )
        triggers = data_stage(config, out / "triggers.rmts")
        bundle, log = embed_stage(config, triggers, out)
        suspects = attacks_stage(config, bundle, independents, out / "suspects")
    distances = verify_stage(config, bundle, triggers, suspects, out)

    run = DeskRun(config=config, triggers=triggers, bundle=bundle, log=log)
    for (name, _, net), wide in zip(suspects, distances):
        run.suspects[name] = net
        run.reports[name] = json.loads((out / "verification" / f"{name}.json").read_text())
        run.distances[name] = np.ascontiguousarray(wide[:, : config.k_verify])
        run.covariance_distances[name] = wide

    held = gen_synthetic_images(500, config.s, 777_777)
    out_ref, _ = forward_batch(bundle.frozen_f, held)
    out_wm, _ = forward_batch(bundle.watermarked_f, held)
    num = float(np.sqrt(((out_wm - out_ref) ** 2).sum(axis=1)).mean())
    den = float(np.sqrt((out_ref**2).sum(axis=1)).mean())
    run.fidelity_ratio = num / den
    run.build_seconds = time.perf_counter() - t_start
    return run
