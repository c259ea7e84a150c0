"""The checks that run in a fresh interpreter, as plain functions, and their
one runner: conftest.run_pinned starts `python pinned_checks.py ALARM ARGS
NAME...`, and _main calls the named functions in order, each with ARGS (a
JSON list) as its arguments, printing one JSON line per check: [its name, its
traceback or null, the JSON value it returned]. After each check it puts
back the switch interval and what the check patched of PATCHABLE, and fails
a check that left one of them patched.

The module imports only the standard library at its top, so that a check
that needs numpy or randmark unloaded finds them so; each check imports what
it uses. pytest does not collect it: its name has no test_ prefix."""

import atexit
import dataclasses
import faulthandler
import hashlib
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback

# What a check may patch, as (owner, attribute); an owner is watched once it is loaded
PATCHABLE = [("numpy", "matmul"), ("randmark.nnengine", "_worker_count"), ("randmark.nnengine", "_layers"),
             ("randmark.watermark", "_draw_noise"), ("randmark.watermark", "optimizer_step"),
             ("threading.Thread", "start")]


def _two_cpus():
    """Keep the process on the first two CPUs of its mask: one spare CPU, one helper."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])


def _engine():
    """_two_cpus, then numpy, randmark.nnengine and randmark.watermark, imported."""
    _two_cpus()
    import numpy as np
    from randmark import nnengine, watermark
    return np, nnengine, watermark


def _hyper(**fields):
    """The default ExperimentConfig's embedding settings, fields replaced."""
    from randmark.harness import ExperimentConfig
    return dataclasses.replace(ExperimentConfig().hyper(), **fields)


def _spy(products):
    """An np.matmul that appends each product's (ran in the thread that made
    the spy, output shape) to products; backward binds it at each call."""
    import numpy as np
    caller, matmul = threading.get_ident(), np.matmul
    def product(a, b, out=None):
        products.append((threading.get_ident() == caller, out.shape))
        return matmul(a, b, out=out)
    return product


def _span(block, batch):
    """The rows of batch that a block (a view of it) handed to _layers covers."""
    start = (block.ctypes.data - batch.ctypes.data) // batch.strides[0]
    return start, start + len(block)


def _report(name, failure, value=None):
    print(json.dumps([name, failure, value]), flush=True)


def _main(alarm, args, *names):
    # at the alarm, every thread's stack goes to standard error; unlike
    # faulthandler.dump_traceback_later, the alarm starts no thread
    faulthandler.register(signal.SIGALRM, all_threads=True, chain=True)
    signal.alarm(int(alarm))
    if len(names) > 1:  # a shared child watches the engine's patch points from its first check on
        import numpy, randmark.watermark  # noqa: F401
    for name in names:
        owners = {**sys.modules, "threading.Thread": threading.Thread}
        points = [(f"{owner}.{attr}", owners[owner], attr) for owner, attr in PATCHABLE if owner in owners]
        interval = sys.getswitchinterval()
        before = [getattr(owner, attr) for _, owner, attr in points]
        try:
            value = globals()[name](*json.loads(args))
            json.dumps(value)
            left = [label for (label, owner, attr), was in zip(points, before)
                    if getattr(owner, attr) is not was]
            if sys.getswitchinterval() != interval:
                left.append("the switch interval")
            assert not left, f"the check left {', '.join(left)} patched"
            failure = None
        except Exception:
            failure, value = traceback.format_exc(), None
        finally:
            for (_, owner, attr), was in zip(points, before):
                setattr(owner, attr, was)
            sys.setswitchinterval(interval)
        _report(name, failure, value)


def raises_after_patching_matmul():
    import numpy as np
    np.matmul = _spy([])
    raise KeyError("raised here")


def leaves_worker_count_patched():
    from randmark import nnengine as ne
    ne._worker_count = lambda jobs: 1


def finds_both_unpatched():
    np, ne, wm = _engine()
    return [np.matmul.__name__, ne._worker_count.__name__]


def hangs():
    threading.Event().wait()


def leaves_a_thread_running():
    # returns, but its thread, which the interpreter joins at exit, never ends
    threading.Thread(target=threading.Event().wait).start()


def import_pins_blas():
    # and an affinity mask of one CPU, as taskset -c 0 sets, runs serially
    np, ne, wm = _engine()
    assert ne._blas_threads() == 1, ne._blas_threads()
    counts = [ne._worker_count(2)]
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    return counts + [ne._worker_count(2)]


def numpy_first_then_pin(cases):
    # numpy, loaded unpinned, has started OpenBLAS's thread; the import pins
    # BLAS and leaves that thread parked, and the forked workers train the
    # models of cases, each (dims, n_images), at seeds 5 and 6 over 3 epochs
    _two_cpus()
    import numpy  # noqa: F401
    tasks = lambda: len(os.listdir("/proc/self/task"))
    assert tasks() == 2, tasks()
    from randmark import attacks as atk, nnengine as ne
    assert (tasks(), ne._blas_threads(), ne._worker_count(2)) == (2, 1, 2)
    with atk.IndependentPool(len(cases)) as pool:
        models = [pool.submit(dims, [5], [6], 3, n_images) for dims, n_images in cases]
        assert len(multiprocessing.active_children()) == 2
        return [hashlib.sha256(model.parameters_digest().encode()).hexdigest() for model, in models]


def users_thread_count_keeps_serial():
    # the child's environment sets a thread count of 2
    np, ne, wm = _engine()
    from randmark import attacks as atk
    assert ne._blas_threads() == 2, ne._blas_threads()
    assert ne._worker_count(2) == 1
    with atk.IndependentPool(2) as pool:
        assert pool._executor is None
    ne.forward_batch(ne.init_network([8, 4], ["tanh"], 1), np.ones((1600, 8)))
    assert ne._helpers == []


def unread_count_is_pinned():
    # the child's environment sets counts that OpenBLAS does not read
    np, ne, wm = _engine()
    assert ne._blas_threads() == 1, ne._blas_threads()
    return ne._worker_count(2)


def blas_threads_around_numpy(counts):
    # [_blas_threads(), _worker_count(2)] for each count set before numpy
    # loads, then for it set after, as a host program that imported numpy
    # first sets it, each in a process forked from this one, which has not
    # loaded numpy
    _two_cpus()
    results = []
    for count in counts:
        for before in (True, False):
            read, write = os.pipe()
            if os.fork() == 0:
                try:
                    if before:
                        os.environ["OPENBLAS_NUM_THREADS"] = count
                    import numpy  # noqa: F401
                    os.environ["OPENBLAS_NUM_THREADS"] = count
                    from randmark import nnengine as ne
                    os.write(write, json.dumps([ne._blas_threads(), ne._worker_count(2)]).encode())
                finally:
                    os._exit(0)
            os.close(write)
            with open(read) as fh:
                results.append([count, before, json.loads(fh.read() or "null")])
            os.wait()
    return results


def config_with_10_23_independents():
    # the address space capped at 2 GB before randmark loads
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    from randmark.harness import ExperimentConfig
    start = time.perf_counter()
    ExperimentConfig(independents=10**23)
    return time.perf_counter() - start


def split_bytes_equal_one_block():
    np, ne, wm = _engine()
    caller, layers, blocks = threading.get_ident(), ne._layers, []
    def block_spy(net, x, outs):
        blocks.append((*_span(x, batch), threading.get_ident() == caller))
        layers(net, x, outs)
    ne._layers = block_spy
    rng = np.random.default_rng(40)
    for act in ne.ACTIVATIONS:
        # the weight shapes of the default backbone and decoder
        net = ne.init_network([256, 192, 64, 128, 32], [act] * 4, 41)
        for rows in (512, 513, 800, 1600, 1601, 6400):
            batch = rng.random((rows, 256))
            blocks.clear()
            _, trace = ne.forward_batch(net, batch)
            cuts = ne._block_cuts(rows, 2)
            assert sorted(block[:2] for block in blocks) == list(zip(cuts, cuts[1:])), (rows, blocks)
            one = ne.ForwardTrace.empty(net, rows)
            layers(net, batch, one.buffers)
            for split, serial in zip(trace.activations[1:], one.buffers):
                assert split.tobytes() == serial.tobytes(), (act, rows)
    assert len(ne._helpers) == 1
    ne._layers = layers


def each_block_runs_once_under_thread_stress():
    # seven helpers on two CPUs, switching threads every microsecond: a block
    # handed out twice or never shows in the block list, and the bytes hold
    import numpy as np
    from randmark import nnengine as ne
    affinity, os.sched_getaffinity = os.sched_getaffinity, lambda pid: set(range(8))
    layers, blocks = ne._layers, []
    def block_spy(net, x, outs):
        blocks.append(_span(x, batch)[0])  # list.append is one atomic step
        layers(net, x, outs)
    ne._layers = block_spy
    net = ne.init_network([16, 8], ["tanh"], 49)
    batch = np.random.default_rng(50).random((6400, 16))
    one = ne.ForwardTrace.empty(net, 6400)
    layers(net, batch, one.buffers)
    cuts = ne._block_cuts(6400, 8)[:-1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            blocks.clear()
            out, _ = ne.forward_batch(net, batch)
            assert sorted(blocks) == cuts, blocks
            assert out.tobytes() == one.buffers[-1].tobytes()
    finally:
        sys.setswitchinterval(interval)
        ne._layers, os.sched_getaffinity = layers, affinity
    assert len(ne._helpers) == 7


def _triggers(count, s, n, seed, sigma_scale=0.1):
    """build_trigger_set of n-bit messages from seed + 1 for count images from seed."""
    from randmark.harness import build_trigger_set
    from randmark.synth import gen_synthetic_images
    return build_trigger_set(gen_synthetic_images(count, s, seed), n, sigma_scale, seed + 1)


def _counted_starts():
    """Record each started thread's name: return the names and the original start."""
    started, start = [], threading.Thread.start
    def counted(thread):
        started.append(thread.name)
        start(thread)
    threading.Thread.start = counted
    return started, start


def _forked_pool_check():
    """Train two small models in the caller; return a check that trains them
    again in a forked IndependentPool of two workers, to the same digests."""
    from randmark import attacks as atk
    seeds = [(6, 8), (7, 9)]
    serial = [atk.make_independent([16, 12, 6], seed=s, pretrain_data_seed=d, epochs=1, n_images=10)
              .parameters_digest() for s, d in seeds]
    def fork_pool():
        with atk.IndependentPool(2) as pool:
            models = pool.submit([16, 12, 6], *zip(*seeds), 1, 10)
            assert len(multiprocessing.active_children()) == 2
            assert [model.parameters_digest() for model in models] == serial
    return fork_pool


def one_persistent_helper_then_a_forked_pool():
    np, ne, wm = _engine()
    fork_pool = _forked_pool_check()
    started, start = _counted_starts()
    net = ne.init_network([64, 48, 16], ["tanh", "identity"], 42)
    x = np.random.default_rng(43).random((1600, 64))
    for _ in range(200):
        ne.forward_batch(net, x)
    assert started == ["randmark-forward_0"], started
    threading.Thread.start = start
    assert ne._worker_count(2) == 2
    pid = os.fork()
    if pid == 0:  # a forked child has no helper and forgets the parent's
        os._exit(0 if ne._helpers == [] else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    fork_pool()


def other_thread_keeps_forward_in_one_block():
    np, ne, wm = _engine()
    layers, blocks = ne._layers, []
    def block_spy(net, x, outs):
        blocks.append((threading.get_ident(), *_span(x, batch)))
        layers(net, x, outs)
    ne._layers = block_spy
    net = ne.init_network([64, 16], ["tanh"], 47)
    batch = np.random.default_rng(48).random((1600, 64))
    ne.forward_batch(net, batch)
    cuts = ne._block_cuts(1600, 2)
    assert {block[1:] for block in blocks} == set(zip(cuts, cuts[1:])), blocks  # split: no other thread runs
    blocks.clear()
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    ne.forward_batch(net, batch)
    done.set()
    other.join(60)
    ne._layers = layers
    assert not other.is_alive()
    assert blocks == [(threading.get_ident(), 0, 1600)], blocks


def backward_split_bytes_equal_serial():
    np, ne, wm = _engine()
    worker_count, matmul, products = ne._worker_count, np.matmul, []
    rng = np.random.default_rng(60)
    helper_products = 0
    # the default encoder, backbone and decoder, a first layer of 200 outputs,
    # whose cut falls at 96 columns, not 100, and one of 40, too few to cut
    for dims in ([288, 256, 256], [256, 192, 64], [64, 128, 32], [40, 200, 8], [32, 40, 8]):
        for act in ne.ACTIVATIONS:
            net = ne.init_network(dims, [act, act], 61)
            for rows in (512, 513, 800, 1600):
                x, g = rng.random((rows, dims[0])), rng.random((rows, dims[-1]))
                # backward spends the trace: each backward gets the forward's bytes back
                _, trace = ne.forward_batch(net, x)
                kept = [a.copy() for a in trace.activations[1:]]
                for wrt_input in (True, False):
                    runs = []
                    for count in (worker_count, lambda jobs: 1):
                        for activation, copy in zip(trace.activations[1:], kept):
                            activation[...] = copy
                        trace.spent = False
                        products.clear()
                        ne._worker_count, np.matmul = count, _spy(products)
                        grads = ne.backward(net, trace, g, wrt_input)
                        ne._worker_count, np.matmul = worker_count, matmul
                        runs.append((grads.flat.tobytes(), grads.wrt_input.tobytes(), list(products)))
                    (flat, inputs, split), (flat_1, inputs_1, serial) = runs
                    case = (dims, act, rows, wrt_input)
                    assert flat == flat_1 and inputs == inputs_1, case
                    assert all(in_caller for in_caller, _ in serial), case
                    helper_products += sum(not in_caller for in_caller, _ in split)
                    # output shapes: weight gradients, then input gradients
                    expected = [(n_in, n_out) for n_in, n_out in zip(dims, dims[1:])]
                    expected += [(rows, n_in) for n_in in dims[int(not wrt_input):-1]]
                    cut = dims[1] // 2 // 32 * 32
                    if not wrt_input and cut:  # the first layer's weight gradient is cut
                        expected.remove((dims[0], dims[1]))
                        expected += [(dims[0], cut), (dims[0], dims[1] - cut)]
                    assert sorted(shape for _, shape in split) == sorted(expected), (case, split)
    assert helper_products > 0, "the helper took no product"
    assert len(ne._helpers) == 1


def backward_helpers_exception_and_callers_errstate():
    np, ne, wm = _engine()
    caller, matmul, products = threading.get_ident(), np.matmul, []
    record, started = _spy(products), threading.Event()
    def helper_first(fail):
        def product(a, b, out=None):
            if threading.get_ident() == caller:
                if not started.wait(60):  # the helper takes its product before the caller
                    raise AssertionError("the helper took no product")
            else:
                started.set()
                time.sleep(0.05)
            record(a, b, out=out)
            if fail and threading.get_ident() != caller:
                raise KeyError("helper")
        return product
    net = ne.init_network([64, 48], ["identity"], 62)
    x = np.random.default_rng(63).random((800, 64))
    g = np.ones((800, 48))
    worker_count, ne._worker_count = ne._worker_count, lambda jobs: 1
    _, trace = ne.forward_batch(net, x)
    serial = ne.backward(net, trace, g)
    ne._worker_count = worker_count
    into = ne.Gradients.empty(net, 800)
    _, trace = ne.forward_batch(net, x)
    started.clear()
    np.matmul = helper_first(True)
    try:
        ne.backward(net, trace, g, into=into)
    except KeyError:
        pass
    else:
        raise AssertionError("the helper's exception did not reach the caller")
    np.matmul = matmul
    assert into.flat.tobytes() == serial.flat.tobytes()
    inputs = into.scratch[0][: 800 * 64].reshape(800, 64)
    assert inputs.tobytes() == serial.wrt_input.tobytes()
    assert sorted(in_caller for in_caller, _ in products) == [False, True], products
    huge_x = np.full((800, 64), 1e306)  # x.T @ g overflows, g @ W.T does not
    net.params[:] = 1e-10
    for silenced in (False, True):
        _, trace = ne.forward_batch(net, huge_x)
        products.clear()
        started.clear()
        np.matmul = helper_first(False)
        try:
            if silenced:
                with np.errstate(over="ignore"):
                    grads = ne.backward(net, trace, g)
                assert np.isinf(grads.flat[: 64 * 48]).all()
            else:
                ne.backward(net, trace, g)
                raise AssertionError("an unsilenced overflow did not raise")
        except RuntimeWarning as exc:
            assert not silenced and "overflow" in str(exc), exc
        finally:
            np.matmul = matmul
        assert (False, (64, 48)) in products, products


def backward_busy_helper_loses_work_and_each_runs_once():
    np, ne, wm = _engine()
    caller, matmul, products = threading.get_ident(), np.matmul, []
    net = ne.init_network([256, 192, 64], ["tanh", "identity"], 64)
    x = np.random.default_rng(65).random((800, 256))
    g = np.random.default_rng(66).random((800, 64))
    _, trace = ne.forward_batch(net, x)  # starts the helper if none runs yet
    worker_count, ne._worker_count = ne._worker_count, lambda jobs: 1
    serial = ne.backward(net, trace, g).flat.copy()
    ne._worker_count = worker_count
    helper = ne._helpers[0]
    busy, release = threading.Event(), threading.Event()
    helper.submit(lambda: (busy.set(), release.wait(60)))
    assert busy.wait(60)
    _, trace = ne.forward_batch(net, x)
    np.matmul = _spy(products)
    grads = ne.backward(net, trace, g)
    np.matmul = matmul
    queued = []  # work queued behind the busy helper: the caller takes it
    ne._fork_join(1, int, lambda: queued.append(threading.get_ident()))
    release.set()
    ne._quiesce_helpers()  # the helper has reached the cancelled work
    assert queued == [caller], queued
    assert grads.flat.tobytes() == serial.tobytes()
    assert len(products) == 4 and all(in_caller for in_caller, _ in products), products
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(2000):
            ran = []
            runs.append(ran)
            # the caller's own work sleeps every other call: the helper may wake first
            own = (lambda: time.sleep(1e-4)) if i % 2 else int
            ne._fork_join(1, own, lambda ran=ran: ran.append(threading.get_ident()))
            assert len(ran) == 1, ran
    finally:
        sys.setswitchinterval(interval)
    ne._quiesce_helpers()  # the helper has seen every call
    assert all(len(ran) == 1 for ran in runs)
    takers = {ran[0] for ran in runs}
    assert takers == {caller, helper.submit(threading.get_ident).result()}, takers


def each_work_runs_once_at_1us_switches():
    # 0, 1, 3 or 7 helpers on two CPUs, with up to two works more than the
    # helpers take; the caller's work sometimes sleeps, so a helper may wake first
    np, ne, wm = _engine()
    caller, calls = threading.get_ident(), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(800):
            spare = (0, 1, 3, 7)[i % 4]
            ran = [[] for _ in range(spare + 1 + i % 3)]
            def work(ran, index):
                if index == 0 and i % 5 == 0:
                    time.sleep(1e-4)
                ran.append(threading.get_ident())
            ne._fork_join(spare, *[lambda r=r, k=k: work(r, k) for k, r in enumerate(ran)])
            assert all(len(r) == 1 for r in ran), (spare, ran)
            calls.append((spare, ran))
    finally:
        sys.setswitchinterval(interval)
    ne._quiesce_helpers()  # a work run again after its call returned shows now
    helpers = {helper.submit(threading.get_ident).result() for helper in ne._helpers}
    assert len(helpers) == 7, helpers
    for spare, ran in calls:
        assert all(len(r) == 1 for r in ran), (spare, ran)
        threads = [r[0] for r in ran]
        assert threads[0] == caller and set(threads[spare + 1 :]) <= {caller}, (spare, threads)
        assert set(threads) <= {caller} | helpers, threads
        if not spare:
            assert set(threads) == {caller}, threads
    assert any(set(r[0] for r in ran) - {caller} for _, ran in calls), "no helper took a work"


def first_exception_in_work_order_once_all_are_done():
    np, ne, wm = _engine()
    def run(spare, *fails):
        # work k raises KeyError(k) if fails[k]; work 0 waits for the helper
        # to start work 1, so work 1 raises first in time
        started, done = threading.Event(), []
        def work(k):
            if k == 0 and spare:
                assert started.wait(60), "the helper took no work"
            elif k == 1:
                started.set()
                time.sleep(0.01)
            done.append(k)
            if fails[k]:
                raise KeyError(k)
        try:
            ne._fork_join(spare, *[lambda k=k: work(k) for k in range(len(fails))])
        except KeyError as exc:
            assert sorted(done) == list(range(len(fails))), done
            return exc.args[0]
        assert sorted(done) == list(range(len(fails))), done
    assert run(1, False, True) == 1
    assert run(1, True, True) == 0
    assert run(1, False, False, True) == 2
    assert run(1, False, True, True) == 1
    assert run(1, False, False) is None
    assert run(0, False, True, True) == 1


def callers_errstate_holds_in_the_helper():
    # the child raises RuntimeWarnings as errors, so an overflow that the
    # caller's errstate does not silence raises from the helper's work
    np, ne, wm = _engine()
    huge, threads = np.full(8, 1e308), []
    for silenced in (False, True):
        started, out = threading.Event(), []
        def overflow():
            started.set()
            threads.append(threading.get_ident())
            out.append(huge * 10.0)
        wait = lambda: started.wait(60)
        try:
            if silenced:
                with np.errstate(over="ignore"):
                    ne._fork_join(1, wait, overflow)
                assert np.isinf(out[0]).all()
            else:
                ne._fork_join(1, wait, overflow)
                raise AssertionError("an unsilenced overflow did not raise")
        except RuntimeWarning as exc:
            assert not silenced and "overflow" in str(exc), exc
    assert len(threads) == 2 and threading.get_ident() not in threads, threads


def busy_helper_loses_unstarted_work():
    np, ne, wm = _engine()
    ne._fork_join(1, int, int)  # a helper runs
    busy, release, ran = threading.Event(), threading.Event(), []
    ne._helpers[0].submit(lambda: (busy.set(), release.wait(60)))
    assert busy.wait(60)
    ne._fork_join(1, *[lambda k=k: ran.append((k, threading.get_ident())) for k in range(2)])
    caller = threading.get_ident()
    assert ran == [(0, caller), (1, caller)], ran
    release.set()
    ne._quiesce_helpers()  # the helper has reached the cancelled work
    assert len(ran) == 2, ran


def started_work_holds_the_call():
    np, ne, wm = _engine()
    started, callers_done, order = threading.Event(), threading.Event(), []
    def own():
        assert started.wait(60), "the helper took no work"
        order.append("caller")
        callers_done.set()
    def helpers():
        started.set()
        callers_done.wait(60)
        time.sleep(0.1)  # the helper's work outlasts the caller's
        order.append("helper")
    ne._fork_join(1, own, helpers)
    order.append("returned")
    assert order == ["caller", "helper", "returned"], order


def no_work_runs_after_forward_or_backward_returns():
    # the caller waits in each piece of its own until the helper is inside a
    # piece of the same call, which then outlasts the caller's; each piece is
    # recorded with the call it started in, after it is done, so a piece that
    # ends after its call returned shows behind that call's return
    np, ne, wm = _engine()
    caller, matmul, layers, events, call = threading.get_ident(), np.matmul, ne._layers, [], [0]
    in_block, in_product = threading.Event(), threading.Semaphore(0)
    def piece(kind, run, *args, **kwargs):
        tag = call[0]
        if threading.get_ident() == caller:
            started = in_block.wait(60) if kind == "block" else in_product.acquire(timeout=60)
            assert started, f"the helper took no {kind}"
        else:
            (in_block.set if kind == "block" else in_product.release)()
            time.sleep(0.01)
        run(*args, **kwargs)
        events.append((tag, kind))
    def returned():
        events.append((call[0], "returned"))
        call[0] += 1
    net = ne.init_network([64, 48, 16], ["tanh", "identity"], 51)
    x, g = np.random.default_rng(52).random((1600, 64)), np.ones((1600, 16))
    try:
        for _ in range(3):
            in_block.clear()
            ne._layers = lambda *args: piece("block", layers, *args)
            _, trace = ne.forward_batch(net, x)
            ne._layers = layers
            returned()
            np.matmul = lambda a, b, out=None: piece("product", matmul, a, b, out=out)
            ne.backward(net, trace, g)
            np.matmul = matmul
            returned()
    finally:
        ne._layers, np.matmul = layers, matmul
    ne._quiesce_helpers()
    done = 0
    for tag, kind in events:
        assert tag == done, events
        done += kind == "returned"
    assert done == 6 and events[-1][1] == "returned", events


def fork_finds_idle_helpers_and_waits_for_a_busy_one():
    # after a call whose helper work ran long, a fork copies no running thread;
    # one that a helper is running work of another thread for waits for it
    np, ne, wm = _engine()
    done = []
    ne._fork_join(1, int, lambda: (time.sleep(0.1), done.append(1)))
    assert done == [1]
    started, finished = threading.Event(), threading.Event()
    def call():
        started.set()
        time.sleep(0.1)
        finished.set()
    ne._helpers[0].submit(call)
    assert started.wait(60)
    pid = os.fork()
    if pid == 0:  # the child has no helper, starts its own, and each work runs once
        ran = []
        ne._fork_join(1, *[lambda k=k: ran.append(k) for k in range(2)])
        os._exit(0 if sorted(ran) == [0, 1] and len(ne._helpers) == 1 else 1)
    assert finished.is_set(), "the fork copied a helper inside a call"
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def embed_that_raises_leaves_no_draw_behind():
    # an optimizer step that raises in the second epoch, once the helper has
    # started the third epoch's slowed noise draw: the embed raises only once
    # that draw is done, and no draw runs after it returned
    np, ne, wm = _engine()
    draw, optimizer_step, draws = wm._draw_noise, wm.optimizer_step, []
    def slow_draw(*args):
        draws.append("start")
        time.sleep(0.05)
        draw(*args)
        draws.append("end")
    steps = []
    def failing_step(net, grads, state):
        steps.append(1)
        if len(steps) == 4:
            while draws.count("start") < 3:
                time.sleep(1e-3)
            raise KeyError("step")
        optimizer_step(net, grads, state)
    triggers = _triggers(64, 16, 8, 11)  # 512 rows
    bundle = wm.ModelBundle.create(
        ne.init_network([16, 12, 6], ["tanh", "identity"], 13), 8, encoder_hidden=(16,),
        decoder_hidden=(12,), hyper=_hyper(epochs=5), seed=14,
    )
    wm._draw_noise, wm.optimizer_step = slow_draw, failing_step
    try:
        wm.embed_watermark(bundle, triggers)
    except KeyError:
        returned = list(draws)
    else:
        raise AssertionError("the optimizer step's exception did not reach the caller")
    finally:
        wm._draw_noise, wm.optimizer_step = draw, optimizer_step
    ne._quiesce_helpers()
    assert returned == ["start", "end"] * 3 and draws == returned, (returned, draws)


def divergence_raises_under_any_warnings_filter():
    np, ne, wm = _engine()
    from randmark import attacks as atk
    triggers = _triggers(16, 64, 8, 11)
    source = atk.make_independent(
        [64, 48, 16], seed=13, pretrain_data_seed=14, epochs=30, n_images=120
    )
    hyper = _hyper(k_train=4, epochs=5, learning_rate=1e200)
    bundle = wm.ModelBundle.create(
        source, 8, encoder_hidden=(48,), decoder_hidden=(24,), hyper=hyper, seed=22
    )
    trained = (bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
    before = [net.parameters_digest() for net in trained]
    try:
        wm.embed_watermark(bundle, triggers)
    except wm.TrainingDiverged as exc:
        assert "epoch 1" in str(exc), exc
    else:
        raise AssertionError("embedding did not diverge")
    assert [net.parameters_digest() for net in trained] == before


def no_thread_outlives_a_verify():
    # a verify decodes in the caller's thread alone, and an IndependentPool
    # opened after it still finds a worker per CPU, with no thread variable
    np, ne, wm = _engine()
    from randmark import attacks as atk
    from randmark.harness import verify_suspect
    triggers = _triggers(8, 16, 4, 1)
    source = ne.init_network([16, 12, 6], ["tanh", "identity"], 3)
    bundle = wm.ModelBundle.create(
        source, 4, encoder_hidden=(8,), decoder_hidden=(8,), hyper=_hyper(), seed=4
    )
    threads = set()
    def forward_spy(net, inputs):
        threads.add(threading.get_ident())
        return ne.forward_batch(net, inputs)
    wm.forward_batch = forward_spy
    verify_suspect(source, bundle, triggers, 1, 4, 5, "source")
    wm.forward_batch = ne.forward_batch
    assert threads == {threading.get_ident()}, threads
    assert ne._worker_count(2) == 2
    with atk.IndependentPool(2) as pool:
        models = pool.submit([16, 12, 6], [6, 7], [8, 9], 1, 10)
        assert len(multiprocessing.active_children()) == 2
        assert len(list(models)) == 2


def desk_decode_splits_in_the_caller():
    # at desk size the suspect and decoder passes are 1,600 rows each:
    # forward_batch shares their blocks with its helper, but every
    # forward_batch call, which a tracer would wrap, is the caller's
    np, ne, wm = _engine()
    from randmark.harness import ExperimentConfig, verify_suspect
    config = ExperimentConfig()
    triggers = _triggers(config.trigger_count, config.s, config.n, 1, config.sigma_scale)
    source = ne.init_network(config.backbone_dims, ["tanh", "identity"], 3)
    bundle = wm.ModelBundle.create(
        source, config.n, encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden, hyper=config.hyper(), seed=4,
    )
    calls, block_threads = [], set()
    forward, layers = ne.forward_batch, ne._layers
    def forward_spy(net, inputs):
        calls.append((threading.get_ident(), len(inputs)))
        return forward(net, inputs)
    def block_spy(*args):
        block_threads.add(threading.get_ident())
        layers(*args)
    wm.forward_batch, ne._layers = forward_spy, block_spy
    verify_suspect(source, bundle, triggers, config.tau, config.k_verify, 5, "source")
    wm.forward_batch, ne._layers = forward, layers
    rows = config.trigger_count * config.k_verify
    assert {thread for thread, _ in calls} == {threading.get_ident()}, calls
    assert [n for _, n in calls if n >= 512] == [rows, rows], calls
    [helper] = ne._helpers
    assert helper.submit(lambda: threading.current_thread().name).result() == "randmark-forward_0"
    assert block_threads <= {threading.get_ident(), helper.submit(threading.get_ident).result()}


def embed_bytes_equal_without_helper():
    np, ne, wm = _engine()
    from randmark.harness import ExperimentConfig
    draw, drawn_in = wm._draw_noise, set()
    def slow_draw(*args):
        drawn_in.add(threading.get_ident())
        time.sleep(0.005)
        draw(*args)
    wm._draw_noise = slow_draw
    def embed(config, worker_count):
        ne._worker_count = worker_count
        triggers = _triggers(config.trigger_count, config.s, config.n, 1, config.sigma_scale)
        source = ne.init_network(config.backbone_dims, ["tanh", "identity"], 3)
        bundle = wm.ModelBundle.create(
            source, config.n, encoder_hidden=config.encoder_hidden,
            decoder_hidden=config.decoder_hidden,
            hyper=dataclasses.replace(config.hyper(), epochs=10), seed=4,
        )
        bundle, log = wm.embed_watermark(bundle, triggers)
        nets = (bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
        return [net.parameters_digest() for net in nets], log.epochs
    worker_count = ne._worker_count
    for config in (ExperimentConfig(), ExperimentConfig(
        s=64, k=32, n=16, backbone_hidden=(96,), encoder_hidden=(80,), decoder_hidden=(48,),
        trigger_count=96, k_train=6,
    )):
        drawn_in.clear()
        split = embed(config, worker_count)
        assert drawn_in - {threading.get_ident()}, "the helper drew no noise"
        assert split == embed(config, lambda jobs: 1), config.s
    ne._worker_count = worker_count
    wm._draw_noise = draw


def one_helper_after_embeds_then_a_forked_pool():
    # an embed, and one that diverges and rolls back, leave only the helper,
    # idle, counted from a fresh process: an IndependentPool then forks its
    # two workers
    np, ne, wm = _engine()
    fork_pool = _forked_pool_check()
    started, start = _counted_starts()
    triggers = _triggers(64, 16, 8, 11)  # 512 rows
    source = ne.init_network([16, 12, 6], ["tanh", "identity"], 13)
    for lr in (2e-3, 1e200):
        hyper = _hyper(epochs=5, learning_rate=lr)
        bundle = wm.ModelBundle.create(
            source, 8, encoder_hidden=(16,), decoder_hidden=(12,), hyper=hyper, seed=14
        )
        nets = (bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
        before = [net.parameters_digest() for net in nets]
        try:
            wm.embed_watermark(bundle, triggers)
        except wm.TrainingDiverged as exc:
            assert lr == 1e200 and "epoch 1" in str(exc), exc
            assert [net.parameters_digest() for net in nets] == before
        else:
            assert lr == 2e-3, "embedding did not diverge"
    assert started == ["randmark-forward_0"], started
    threading.Thread.start = start
    assert len(ne._helpers) == 1
    assert ne._worker_count(2) == 2
    fork_pool()


def idle_helpers_never_hold_up_exit():
    # the helpers are executor threads, which the interpreter joins at exit:
    # a child that ran a split forward and an embed, whose helper is then
    # idle, exits at once after this check; a forward in an atexit callback,
    # after the helpers have stopped, runs serially and reports under
    # "at exit" whether its bytes are the split forward's. Returns the time
    # of the check's last statement.
    np, ne, wm = _engine()
    net = ne.init_network([64, 48, 16], ["tanh", "identity"], 42)
    x = np.random.default_rng(43).random((1600, 64))
    split = ne.forward_batch(net, x)[0].tobytes()
    atexit.register(lambda: _report("at exit", None, ne.forward_batch(net, x)[0].tobytes() == split))
    triggers = _triggers(64, 16, 8, 11)  # 512 rows
    source = ne.init_network([16, 12, 6], ["tanh", "identity"], 13)
    bundle = wm.ModelBundle.create(
        source, 8, encoder_hidden=(16,), decoder_hidden=(12,),
        hyper=_hyper(epochs=5), seed=14,
    )
    wm.embed_watermark(bundle, triggers)
    names = [thread.name for thread in threading.enumerate()]
    assert names == ["MainThread", "randmark-forward_0"], names
    return time.time()


def blas_core_is_the_kernel_that_runs():
    np, ne, wm = _engine()
    assert ne._blas_core() == os.environ["OPENBLAS_CORETYPE"], ne._blas_core()


if __name__ == "__main__":
    _main(*sys.argv[1:])
