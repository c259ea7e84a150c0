"""Engine tests: forward/backward against finite differences, AdamW
behavior, global magnitude pruning, and checkpoint format guarantees."""

import copy
import functools
import os
import pickle
import re
import struct
import tracemalloc

import numpy as np
import pytest

from randmark import attacks as atk
from randmark import nnengine as ne

from conftest import (
    TWO_CPUS, assert_pinned, gradient_check, kernel_check, run_checks, run_pinned, see_cpus,
    sparsity,
)
import test_training_pins

# (dims, n_images, digests by core) of each make_independent pin, seeds 5 and 6
# over 3 epochs
PINNED_INDEPENDENTS = next(
    mark.args[1]
    for mark in test_training_pins.TestMakeIndependent.test_parameters_digest.pytestmark
    if mark.name == "parametrize"
)


def _loss_quadratic(targets):
    """Squared-error loss against fixed targets, with its gradient."""

    def loss(net, x):
        out, _ = ne.forward_batch(net, x)
        return float(((out - targets) ** 2).sum())

    def grad(net, x):
        out, trace = ne.forward_batch(net, x)
        return ne.backward(net, trace, 2.0 * (out - targets))

    return loss, grad


def _payload(weights, biases):
    """Per-layer weight and bias arrays as one vector in the payload order
    of MlpNetwork.params: W0 row-major, b0, W1, b1, ..."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def _per_layer(net, vector):
    """[weight, bias] views into a params-shaped vector, one pair per layer
    of net."""
    pairs, offset = [], 0
    for layer in net.layers:
        w_end = offset + layer.weight.size
        end = w_end + layer.bias.size
        pairs.append([vector[offset:w_end].reshape(layer.weight.shape), vector[w_end:end]])
        offset = end
    return pairs


class TestForward:
    def test_identity_layer_passthrough(self):
        net = ne.MlpNetwork([ne.Layer(np.eye(4), np.zeros(4), "identity")])
        v = np.array([[0.3, -1.2, 5.0, 0.0]])
        out, _ = ne.forward_batch(net, v)
        assert np.array_equal(out, v)

    def test_hand_computed_affine(self):
        net = ne.MlpNetwork(
            [ne.Layer(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]), "identity")]
        )
        out, _ = ne.forward_batch(net, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[3.0, 2.0]])

    def test_relu_clamps_negatives(self):
        net = ne.MlpNetwork([ne.Layer(np.eye(3), np.zeros(3), "relu")])
        out, _ = ne.forward_batch(net, np.array([[-5.0, 0.0, 5.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 5.0]])

    def test_dimension_mismatch_rejected(self):
        net = ne.init_network([4, 2], ["identity"], 0)
        with pytest.raises(ValueError):
            ne.forward_batch(net, np.ones((1, 3)))
        with pytest.raises(ValueError):
            ne.forward_batch(net, np.ones(4))  # a bare vector is not a batch

    def test_deterministic_bit_identical(self):
        net = ne.init_network([6, 5, 3], ["tanh", "sigmoid"], 1)
        x = np.random.default_rng(2).random((1, 6))
        a, _ = ne.forward_batch(net, x)
        b, _ = ne.forward_batch(net, x)
        assert np.array_equal(a, b)


# Prepended to the code of a TestSplitForward process: the rows of `batch`
# that a block handed to _layers covers (the block is a view of the batch).
SPAN = """
def span(block, batch):
    start = (block.ctypes.data - batch.ctypes.data) // batch.strides[0]
    return start, start + len(block)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
class TestBlasPin:
    """Importing randmark pins numpy's OpenBLAS to one thread unless the user
    set a thread count; a process with BLAS on one thread and no other
    Python thread has one worker per CPU of its affinity mask."""

    def test_import_pins_blas_without_a_thread_variable(self):
        # and an affinity mask of one CPU, as taskset -c 0 sets, runs serially
        code = TWO_CPUS + """
from randmark import nnengine as ne
assert ne._blas_threads() == 1, ne._blas_threads()
print(ne._worker_count(2))
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
print(ne._worker_count(2))
"""
        assert run_pinned(code, blas_threads=None).split() == ["2", "1"]

    def test_host_that_loaded_numpy_first_forks_workers_with_pinned_bytes(self):
        # numpy, loaded unpinned, has started OpenBLAS's thread; the import
        # pins BLAS and leaves that thread parked, and the forked workers
        # train the bytes pinned in test_training_pins
        cases = [(dims, n_images) for dims, n_images, _ in PINNED_INDEPENDENTS]
        code = TWO_CPUS + f"""
import hashlib, multiprocessing
import numpy
tasks = lambda: len(os.listdir("/proc/self/task"))
assert tasks() == 2, tasks()
from randmark import attacks as atk, nnengine as ne
assert (tasks(), ne._blas_threads(), ne._worker_count(2)) == (2, 1, 2)
with atk.IndependentPool(len({cases!r})) as pool:
    models = [pool.submit(dims, [5], [6], 3, n_images) for dims, n_images in {cases!r}]
    assert len(multiprocessing.active_children()) == 2
    for model, in models:
        print(hashlib.sha256(model.parameters_digest().encode()).hexdigest())
"""
        digests = run_pinned(code, blas_threads=None).split()
        for digest, (_, _, expected) in zip(digests, PINNED_INDEPENDENTS, strict=True):
            assert_pinned(digest, expected)

    @pytest.mark.parametrize(
        "variable", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"]
    )
    def test_a_users_thread_count_keeps_the_process_serial(self, variable):
        # each variable that OpenBLAS reads, set before numpy loads
        code = TWO_CPUS + f"""
os.environ[{variable!r}] = "2"
import numpy as np
from randmark import attacks as atk, nnengine as ne
assert ne._blas_threads() == 2, ne._blas_threads()
assert ne._worker_count(2) == 1
with atk.IndependentPool(2) as pool:
    assert pool._executor is None
ne.forward_batch(ne.init_network([8, 4], ["tanh"], 1), np.ones((1600, 8)))
assert ne._helpers == []
print("ok")
"""
        assert run_pinned(code, blas_threads=None).strip() == "ok"

    def test_a_count_that_openblas_does_not_read_is_pinned(self):
        # OpenBLAS runs one thread per CPU for an empty value, 0 or no number
        code = TWO_CPUS + """
os.environ.update(OPENBLAS_NUM_THREADS="0", GOTO_NUM_THREADS="", OMP_NUM_THREADS="x")
from randmark import nnengine as ne
assert ne._blas_threads() == 1, ne._blas_threads()
print(ne._worker_count(2))
"""
        assert run_pinned(code, blas_threads=None).strip() == "2"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
class TestSplitForward:
    """A batch of at least 512 rows runs as blocks of at most 256 rows
    shared by the caller and a persistent helper thread, in a process with
    BLAS pinned and no other thread; each test runs in such a process of its
    own, the kernel check in its kernel's shared one."""

    def test_block_cuts_shrink_at_multiples_of_32(self):
        assert ne._block_cuts(1600, 2) == [0, 256, 512, 768, 1024, 1280, 1440, 1504, 1568, 1600]
        assert ne._block_cuts(513, 2) == [0, 256, 384, 448, 513]  # a one-row tail joins its block
        for workers in (2, 3, 8):
            for rows in range(512, 7000, 7):
                cuts = ne._block_cuts(rows, workers)
                sizes = [b - a for a, b in zip(cuts, cuts[1:])]
                assert cuts[0] == 0 and cuts[-1] == rows, (rows, workers)
                assert all(cut % 32 == 0 for cut in cuts[:-1]), (rows, workers)
                assert all(64 <= size <= 256 for size in sizes[:-1]), (rows, workers)
                assert sizes[:-1] == sorted(sizes[:-1], reverse=True), (rows, workers)
                assert 1 < sizes[-1] <= sizes[-2] + 1, (rows, workers)

    @kernel_check(SPAN + """
layers, blocks = ne._layers, []
def spy(net, x, outs):
    blocks.append((*span(x, batch), threading.get_ident() == caller))
    layers(net, x, outs)
ne._layers = spy
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
""")
    def test_split_bytes_equal_one_block(self, coretype):
        """Each thread writes its blocks in place, with the bytes of one
        product of the whole batch; each block runs once, in one thread."""

    def test_each_block_runs_once_under_thread_stress(self):
        # seven helpers on two CPUs, switching threads every microsecond: a
        # block handed out twice or never shows in the block list, and the
        # bytes hold
        code = SPAN + """
import os, sys
import numpy as np
from randmark import nnengine as ne

os.sched_getaffinity = lambda pid: set(range(8))
layers, blocks = ne._layers, []
def spy(net, x, outs):
    blocks.append(span(x, batch)[0])  # list.append is one atomic step
    layers(net, x, outs)
ne._layers = spy
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
assert len(ne._helpers) == 7
print("ok")
"""
        assert run_pinned(code, timeout=120).strip() == "ok"

    def test_one_persistent_helper_then_a_forked_pool(self):
        code = TWO_CPUS + """
import multiprocessing, threading
import numpy as np
from randmark import attacks as atk, nnengine as ne

seeds = [(6, 8), (7, 9)]
serial = [
    atk.make_independent([16, 12, 6], seed=s, pretrain_data_seed=d, epochs=1, n_images=10)
    .parameters_digest() for s, d in seeds
]
started, start = [], threading.Thread.start
def counted(thread):
    started.append(thread.name)
    start(thread)
threading.Thread.start = counted
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
with atk.IndependentPool(2) as pool:
    models = pool.submit([16, 12, 6], *zip(*seeds), 1, 10)
    assert len(multiprocessing.active_children()) == 2
    assert [model.parameters_digest() for model in models] == serial
print("ok")
"""
        assert run_pinned(code).strip() == "ok"

    def test_other_thread_keeps_forward_in_one_block(self):
        code = TWO_CPUS + SPAN + """
import threading
import numpy as np
from randmark import nnengine as ne

layers, blocks = ne._layers, []
def spy(net, x, outs):
    blocks.append((threading.get_ident(), *span(x, batch)))
    layers(net, x, outs)
ne._layers = spy
net = ne.init_network([64, 16], ["tanh"], 47)
batch = np.random.default_rng(48).random((1600, 64))
ne.forward_batch(net, batch)
cuts = ne._block_cuts(1600, 2)
assert {block[1:] for block in blocks} == set(zip(cuts, cuts[1:])), blocks  # split while no other thread runs
blocks.clear()
done = threading.Event()
other = threading.Thread(target=done.wait)
other.start()
ne.forward_batch(net, batch)
done.set()
other.join(60)
assert not other.is_alive()
assert blocks == [(threading.get_ident(), 0, 1600)], blocks
print("ok")
"""
        assert run_pinned(code).strip() == "ok"


def test_run_pinned_shows_where_a_hung_child_is_stuck():
    code = "import threading\nthreading.Event().wait()\n"
    with pytest.raises(AssertionError, match=r"(?s)most recent call first.*in wait"):
        run_pinned(code, timeout=2)


def test_run_checks_reports_each_check_undoes_its_patches_and_shows_a_hang():
    # a check that raises fails with its own traceback, source lines included,
    # and one that leaves a patch fails; the next check runs unpatched. A hung
    # check ends the child in run_pinned's stack dump, after the others reported.
    results = run_checks({
        "raises": "np.matmul = spy\nraise KeyError('raised here')\n",
        "passes": "assert np.matmul.__name__ == 'matmul' and products == []\n",
        "leaks": "ne._worker_count = lambda jobs: 1\n",
        "unpatched": "assert ne._worker_count.__name__ == '_worker_count'\n",
        "hangs": "threading.Event().wait()\n",
    }, timeout=3)
    assert results["passes"] is None and results["unpatched"] is None, results
    assert 'File "raises", line 2' in results["raises"], results["raises"]
    assert "raise KeyError('raised here')" in results["raises"], results["raises"]
    assert "left randmark.nnengine._worker_count patched" in results["leaks"], results["leaks"]
    assert re.search(r"(?s)before this check reported.*most recent call first.*in wait",
                     results["hangs"]), results["hangs"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
class TestSplitBackward:
    """A backward of at least 512 rows hands each layer's weight-gradient
    product, or for a first layer without an input gradient the columns
    from a 32-aligned cut on, to a helper (_fork_join), in a process with
    BLAS pinned and no other thread: each kernel's shared child of the
    kernel checks, where CHECK_PRELUDE's spy records the products."""

    @kernel_check("""
worker_count = ne._worker_count
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
                    ne._worker_count, np.matmul = count, spy
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
""")
    def test_split_bytes_equal_serial(self, coretype):
        """Split and serial backwards give the same bytes, every product
        where the split puts it."""

    @kernel_check("""
import time

started = threading.Event()
def helper_first(fail):
    def product(a, b, out=None):
        if threading.get_ident() == caller:
            if not started.wait(60):  # the helper takes its product before the caller
                raise AssertionError("the helper took no product")
        else:
            started.set()
            time.sleep(0.05)
        spy(a, b, out=out)
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
""")
    def test_helpers_exception_and_callers_errstate(self, coretype):
        """The helper's weight-gradient product raises after it wrote its
        output: the exception reaches the caller after the caller wrote the
        input gradient; an overflow in the helper's product obeys the
        caller's errstate."""

    @kernel_check("""
import sys, time

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
np.matmul = spy
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
""")
    def test_busy_helper_loses_work_and_each_runs_once(self, coretype):
        """While the helper runs something else, every product of a
        backward runs in the caller, with the same bytes; each piece of
        work handed to the helper runs once, also when threads switch every
        microsecond."""

# Each check of TestForkJoin, by name; they run in this order in one
# run_checks child on two CPUs, since none depends on the BLAS kernel.
# CHECK_PRELUDE gives each its imports and `caller`, the child's thread.
FORK_JOIN_CHECKS = {
    "each_work_runs_once_at_1us_switches": """
import sys, time
# 0, 1, 3 or 7 helpers on two CPUs, with up to two works more than the
# helpers take; the caller's work sometimes sleeps, so a helper may wake first
calls = []
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
""",
    "first_exception_in_work_order_once_all_are_done": """
import time
def run(spare, *fails):
    # work k raises KeyError(k) if fails[k]; work 0 waits for the helper to
    # start work 1, so work 1 raises first in time
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
""",
    "callers_errstate_holds_in_the_helper": """
# the child raises RuntimeWarnings as errors, so an overflow that the
# caller's errstate does not silence raises from the helper's work
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
assert len(threads) == 2 and caller not in threads, threads
""",
    "busy_helper_loses_unstarted_work": """
ne._fork_join(1, int, int)  # a helper runs
busy, release, ran = threading.Event(), threading.Event(), []
ne._helpers[0].submit(lambda: (busy.set(), release.wait(60)))
assert busy.wait(60)
ne._fork_join(1, *[lambda k=k: ran.append((k, threading.get_ident())) for k in range(2)])
assert ran == [(0, caller), (1, caller)], ran
release.set()
ne._quiesce_helpers()  # the helper has reached the cancelled work
assert len(ran) == 2, ran
""",
    "started_work_holds_the_call": """
import time
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
""",
    "no_work_runs_after_forward_or_backward_returns": """
import time
# the caller waits in each piece of its own until the helper is inside a
# piece of the same call, which then outlasts the caller's; each piece is
# recorded with the call it started in, after it is done, so a piece that
# ends after its call returned shows behind that call's return
layers, events, call = ne._layers, [], [0]
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
""",
    "fork_finds_idle_helpers_and_waits_for_a_busy_one": """
import os, time
# after a call whose helper work ran long, a fork copies no running thread;
# one that a helper is running work of another thread for waits for it
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
""",
    "embed_that_raises_leaves_no_draw_behind": """
import time
from randmark.harness import build_trigger_set
from randmark.synth import gen_synthetic_images

# an optimizer step that raises in the second epoch, once the helper has
# started the third epoch's slowed noise draw: the embed raises only once
# that draw is done, and no draw runs after it returned
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
triggers = build_trigger_set(gen_synthetic_images(64, 16, 11), 8, 0.1, 12)  # 512 rows
bundle = wm.ModelBundle.create(
    ne.init_network([16, 12, 6], ["tanh", "identity"], 13), 8, encoder_hidden=(16,),
    decoder_hidden=(12,), hyper=wm.HyperParams(k_train=8, epochs=5), seed=14,
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
""",
}


@functools.cache
def _fork_join_results() -> dict[str, str | None]:
    return run_checks(FORK_JOIN_CHECKS)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
class TestForkJoin:
    """nnengine._fork_join, the one way forward_batch, backward and
    embed_watermark reach a helper thread: each work runs once, the caller
    runs what a helper has not started, and the call returns or raises only
    once every work is done, with the caller's errstate in the helper."""

    @pytest.mark.parametrize("check", FORK_JOIN_CHECKS)
    def test_contract(self, check):
        failure = _fork_join_results()[check]
        if failure is not None:
            pytest.fail(failure, pytrace=False)


class TestBackward:
    def test_zero_output_gradient_gives_zero_grads(self):
        net = ne.init_network([4, 3, 2], ["tanh", "identity"], 3)
        _, trace = ne.forward_batch(net, np.ones((1, 4)))
        grads = ne.backward(net, trace, np.zeros(2))
        assert grads.flat.shape == net.params.shape
        assert np.all(grads.flat == 0.0)

    def test_linear_net_squared_error_matches_fd(self):
        rng = np.random.default_rng(4)
        net = ne.init_network([3, 2], ["identity"], rng)
        x = rng.random((1, 3))
        targets = rng.random((1, 2))
        loss, grad = _loss_quadratic(targets)
        err = gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
        assert err < 1e-6

    def test_three_layer_tanh_matches_fd(self):
        rng = np.random.default_rng(5)
        net = ne.init_network([4, 5, 4, 2], ["tanh", "tanh", "tanh"], rng)
        x = rng.random((3, 4))
        targets = rng.random((3, 2))
        loss, grad = _loss_quadratic(targets)
        err = gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
        assert err < 1e-5

    def test_random_small_nets_match_fd(self):
        rng = np.random.default_rng(6)
        acts = ["tanh", "sigmoid", "identity"]
        for trial in range(8):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
            layer_acts = [acts[int(rng.integers(0, 3))] for _ in range(depth)]
            net = ne.init_network(dims, layer_acts, rng)
            x = rng.standard_normal((2, dims[0]))
            targets = rng.standard_normal((2, dims[-1]))
            loss, grad = _loss_quadratic(targets)
            err = gradient_check(net, lambda n: loss(n, x), lambda n: grad(n, x))
            assert err < 1e-5, f"trial {trial}: {err}"

    def test_skipped_input_gradient_keeps_parameter_gradients(self):
        rng = np.random.default_rng(9)
        for dims, acts in (([5, 4, 3], ["tanh", "identity"]), ([6, 2], ["sigmoid"])):
            net = ne.init_network(dims, acts, rng)
            x = rng.standard_normal((7, dims[0]))
            g_out = rng.standard_normal((7, dims[-1]))
            full = ne.backward(net, ne.forward_batch(net, x)[1], g_out)
            skipped = ne.backward(net, ne.forward_batch(net, x)[1], g_out, wrt_input=False)
            assert full.flat.tobytes() == skipped.flat.tobytes()
            assert full.wrt_input.shape == (7, dims[0])
            assert skipped.wrt_input.shape == (7, 0)

    def test_trace_mismatch_rejected(self):
        net_a = ne.init_network([4, 3], ["tanh"], 7)
        net_b = ne.init_network([4, 4, 3], ["tanh", "identity"], 8)
        _, trace = ne.forward_batch(net_a, np.ones((1, 4)))
        with pytest.raises(ValueError):
            ne.backward(net_b, trace, np.ones(3))


def _ref_activate(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _ref_activation_grad(name, pre, activated):
    if name == "identity":
        return np.ones_like(pre)
    if name == "relu":
        return (pre > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - activated * activated
    return activated * (1.0 - activated)


def _ref_forward(net, x):
    """Reference forward pass, one fresh array per operation, keeping the
    pre-activations: (activations, pre-activations)."""
    activations, pres = [x], []
    for layer in net.layers:
        z = x @ layer.weight + layer.bias
        x = _ref_activate(layer.activation, z)
        pres.append(z)
        activations.append(x)
    return activations, pres


def _ref_backward(net, activations, pres, g):
    """Reference backward pass: (weight grads, bias grads, input grad)."""
    grads_w, grads_b = [None] * len(net.layers), [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        dz = g * _ref_activation_grad(layer.activation, pres[i], activations[i + 1])
        grads_w[i] = activations[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        g = dz @ layer.weight.T
    return grads_w, grads_b, g


# Row values that reach a layer's activation unchanged through an identity
# weight matrix and zero bias: signed zeros, magnitudes near the float64
# limit, ordinary values.
_SPECIAL_ROW = np.array([-0.0, 0.0, 1e300, -1e300, 0.5, -2.0])


def _engine_cases(act, rows):
    """(net, inputs) pairs for one activation and batch size: a random
    three-layer net, and a one-layer identity-weight net whose inputs are
    the special row, a NaN row and random rows."""
    rng = np.random.default_rng(100 + rows)
    net = ne.init_network([5, 4, 3, 2], [act] * 3, rng)
    yield net, 3.0 * rng.standard_normal((rows, 5))
    special = np.vstack([_SPECIAL_ROW, np.full(6, np.nan), 4.0 * rng.standard_normal((5, 6))])
    yield ne.MlpNetwork([ne.Layer(np.eye(6), np.zeros(6), act)]), special[:rows]


class TestInPlaceKernels:
    """forward_batch and backward write bias, activation and activation
    derivative in place; every result must equal the one-array-per-operation
    reference byte for byte."""

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_forward_and_backward_match_reference_bytes(self, act, rows):
        for net, x in _engine_cases(act, rows):
            ref_acts, ref_pres = _ref_forward(net, x)
            out, trace = ne.forward_batch(net, x)
            assert out.tobytes() == ref_acts[-1].tobytes()
            assert len(trace.activations) == len(ref_acts)
            for a, ref in zip(trace.activations, ref_acts):
                assert a.tobytes() == ref.tobytes()
            g = np.random.default_rng(rows).standard_normal(out.shape)
            ref_w, ref_b, ref_in = _ref_backward(net, ref_acts, ref_pres, g)
            grads = ne.backward(net, trace, g)
            assert grads.flat.tobytes() == _payload(ref_w, ref_b).tobytes()
            assert grads.wrt_input.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_backward_from_activation_at_special_pre_activations(self, act):
        # pre-activations no matmul produces (-0.0) next to infinities, NaN
        # and near-limit magnitudes, fed to backward through a hand-built trace
        # whose one buffer holds their activations
        pre = np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 0.7]])
        net = ne.MlpNetwork([ne.Layer(np.eye(8), np.zeros(8), act)])
        x = np.linspace(-1.0, 1.0, 8)[None, :]
        a = _ref_activate(act, pre.copy())
        g = np.array([[1.5, -1.5, 2.0, -2.0, 0.25, -0.25, 3.0, -0.0]])
        ref_w, ref_b, ref_in = _ref_backward(net, [x, a], [pre], g)
        grads = ne.backward(net, ne.ForwardTrace([x, a], [a]), g)
        assert grads.flat.tobytes() == _payload(ref_w, ref_b).tobytes()
        assert grads.wrt_input.tobytes() == ref_in.tobytes()

    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_inputs_and_output_gradient_left_unmodified(self, act):
        rng = np.random.default_rng(11)
        for net in (
            ne.init_network([4, 3, 3], [act, act], rng),
            ne.MlpNetwork([ne.Layer(np.eye(3), np.zeros(3), act)]),
        ):
            x = rng.standard_normal((7, net.input_dim))
            x_before = x.copy()
            for wrt_input in (True, False):
                _, trace = ne.forward_batch(net, x)
                g = rng.standard_normal((7, net.output_dim))
                g_before = g.copy()
                ne.backward(net, trace, g, wrt_input=wrt_input)
                assert g.tobytes() == g_before.tobytes()
                assert x.tobytes() == x_before.tobytes()
            one = rng.standard_normal(net.input_dim)
            _, trace = ne.forward_batch(net, one[None, :])
            g = rng.standard_normal(net.output_dim)
            g_before = g.copy()
            ne.backward(net, trace, g)
            assert g.tobytes() == g_before.tobytes()


def _buffer_nets(act, rng):
    """Nets for reused buffers: three layers of act with narrowing widths,
    and act before a sigmoid output wider than any layer input."""
    yield ne.init_network([9, 7, 5, 3], [act] * 3, rng)
    yield ne.init_network([4, 6, 11], [act, "sigmoid"], rng)


def _sealed(*arrays):
    """Bytes of every array, to show that a refused call wrote nothing."""
    return [a.tobytes() for a in arrays]


class TestBufferPath:
    """forward_batch and backward write the same bytes into reused
    caller-owned buffers as into fresh ones, whichever leading rows a batch
    uses."""

    @pytest.mark.parametrize("wrt_input", [True, False])
    @pytest.mark.parametrize("act", ne.ACTIVATIONS)
    def test_into_matches_allocating_bytes(self, act, wrt_input):
        rng = np.random.default_rng(12)
        for net in _buffer_nets(act, rng):
            trace = ne.ForwardTrace.empty(net, 64)
            grads = ne.Gradients.empty(net, 64, wrt_input=wrt_input)
            for rows in (64, 44, 1):  # a full batch, then partial leading slices
                x = 2.0 * rng.standard_normal((rows, net.input_dim))
                g = rng.standard_normal((rows, net.output_dim))
                out, fresh = ne.forward_batch(net, x)
                out = out.copy()  # the backward builds its derivative terms over it
                activations = [a.copy() for a in fresh.activations]
                expected = ne.backward(net, fresh, g, wrt_input=wrt_input)
                assert fresh.spent
                g_before = g.copy()

                into_out, filled = ne.forward_batch(net, x, into=trace)
                assert filled is trace and not trace.spent
                assert into_out.tobytes() == out.tobytes()
                assert _sealed(*trace.activations) == _sealed(*activations)
                assert ne.backward(net, trace, g, wrt_input=wrt_input, into=grads) is grads
                assert grads.flat.tobytes() == expected.flat.tobytes()
                assert grads.wrt_input.shape == expected.wrt_input.shape
                assert grads.wrt_input.tobytes() == expected.wrt_input.tobytes()
                assert trace.spent and g.tobytes() == g_before.tobytes()

    def test_spent_trace_refuses_reuse(self):
        rng = np.random.default_rng(13)
        net = ne.init_network([5, 4, 3], ["tanh", "sigmoid"], rng)
        reused = ne.ForwardTrace.empty(net, 8)
        grads = ne.Gradients.empty(net, 8)
        x, g = rng.standard_normal((8, 5)), rng.standard_normal((8, 3))
        ne.forward_batch(net, x, into=reused)
        first = ne.backward(net, reused, g, into=grads).flat.copy()
        _, fresh = ne.forward_batch(net, x)  # a fresh trace, spent by a default backward
        assert ne.backward(net, fresh, g).flat.tobytes() == first.tobytes()
        for trace in (reused, fresh):
            assert trace.spent
            for reuse in (
                lambda: trace.output,
                lambda: ne.backward(net, trace, g),
                lambda: ne.backward(net, trace, g, into=ne.Gradients.empty(net, 8)),
            ):
                with pytest.raises(ValueError, match="spent"):
                    reuse()
        ne.forward_batch(net, x, into=reused)  # a forward refills it
        assert ne.backward(net, reused, g, into=grads).flat.tobytes() == first.tobytes()

    def test_mismatched_forward_into_refused_before_writing(self):
        rng = np.random.default_rng(14)
        net = ne.init_network([5, 4, 3], ["tanh", "identity"], rng)
        x = rng.standard_normal((8, 5))
        for into in (
            ne.ForwardTrace.empty(ne.init_network([5, 6, 3], ["tanh", "identity"], 1), 8),
            ne.ForwardTrace.empty(net, 7),  # one row short
        ):
            for buffer in into.buffers:
                buffer.fill(np.nan)
            before = _sealed(*into.buffers)
            with pytest.raises(ValueError):
                ne.forward_batch(net, x, into=into)
            assert _sealed(*into.buffers) == before

    def test_mismatched_backward_into_refused_before_writing(self):
        rng = np.random.default_rng(15)
        net = ne.init_network([5, 4, 3], ["tanh", "sigmoid"], rng)
        x, g = rng.standard_normal((8, 5)), rng.standard_normal((8, 3))
        trace = ne.ForwardTrace.empty(net, 8)
        ne.forward_batch(net, x, into=trace)
        for into, output_gradient in (
            (ne.Gradients.empty(ne.init_network([5, 6, 3], ["tanh", "sigmoid"], 1), 8), g),
            (ne.Gradients.empty(net, 7), g),  # one row short
            (ne.Gradients.empty(net, 8, wrt_input=False), g),  # no room for wrt_input
            (ne.Gradients(np.empty_like(net.params)), g),  # owns no scratch
            (ne.Gradients.empty(net, 8), trace.output),  # g would be overwritten
        ):
            into.flat.fill(np.nan)
            before = _sealed(into.flat, *(into.scratch or ()), *trace.activations)
            with pytest.raises(ValueError):
                ne.backward(net, trace, output_gradient, into=into)
            assert _sealed(into.flat, *(into.scratch or ()), *trace.activations) == before
            assert not trace.spent


class TestGradientCheck:
    def test_linear_loss_near_machine_precision(self):
        rng = np.random.default_rng(9)
        net = ne.init_network([3, 2], ["identity"], rng)
        x = rng.random((1, 3))
        weights = rng.random(2)

        def loss(n):
            out, _ = ne.forward_batch(n, x)
            return float((out @ weights)[0])

        def grad(n):
            _, trace = ne.forward_batch(n, x)
            return ne.backward(n, trace, weights[None, :])

        assert gradient_check(net, loss, grad) < 1e-9

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(10)
        net = ne.init_network([3, 3, 2], ["tanh", "identity"], rng)
        x = rng.random((1, 3))
        targets = rng.random((1, 2))
        loss, grad = _loss_quadratic(targets)

        def corrupted(n):
            g = grad(n, x)
            g.flat[0] *= 2.0  # one entry, W0[0, 0], doubled
            return g

        assert gradient_check(net, lambda n: loss(n, x), corrupted) > 0.1

    def test_non_finite_loss_fatal(self):
        net = ne.init_network([2, 2], ["identity"], 11)
        with pytest.raises(ValueError):
            gradient_check(net, lambda n: float("nan"), lambda n: None)


class TestOptimizer:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = ne.init_network([3, 2], ["identity"], 12)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net, lr=0.1, weight_decay=0.0)
        grads = ne.Gradients(np.zeros_like(net.params))
        ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        # Bias-corrected moments make the very first update lr * sign(g).
        net = ne.MlpNetwork([ne.Layer(np.array([[1.0]]), np.zeros(1), "identity")])
        state = ne.OptimizerState.fresh(net, lr=0.05)
        grads = ne.Gradients(np.array([0.3, 0.0]))  # W0 = [[0.3]], b0 = [0]
        ne.optimizer_step(net, grads, state)
        drop = 1.0 - net.layers[0].weight[0, 0]
        assert abs(drop - 0.05) < 1e-6 * 0.05

    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(13)
        net = ne.MlpNetwork(
            [ne.Layer(rng.standard_normal((1, 8)), np.zeros(8), "identity")]
        )
        target = rng.standard_normal((1, 8))
        state = ne.OptimizerState.fresh(net, lr=0.05)
        losses = []
        for _ in range(500):
            diff = net.layers[0].weight - target
            losses.append(float((diff**2).sum()))
            grads = ne.Gradients(_payload([2.0 * diff], [np.zeros(8)]))
            ne.optimizer_step(net, grads, state)
        diff = net.layers[0].weight - target
        losses.append(float((diff**2).sum()))
        assert losses[-1] < 1e-6
        burn_in = 300
        tail = losses[burn_in:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_non_finite_gradients_rejected(self):
        net = ne.init_network([2, 2], ["identity"], 14)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net)
        grads = ne.Gradients(_payload([np.full((2, 2), np.nan)], [np.zeros(2)]))
        moments = _moment_bytes(state)
        with pytest.raises(ValueError, match="non-finite"):
            ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 0
        assert _moment_bytes(state) == moments

    def test_bias_list_of_wrong_length_rejected(self):
        net = ne.init_network([3, 2, 2], ["tanh", "identity"], 15)
        before = net.parameters_digest()
        state = ne.OptimizerState.fresh(net)
        moments = _moment_bytes(state)
        # every weight with the first bias only, and the first layer alone
        for grads in (
            ne.Gradients(_payload([l.weight for l in net.layers], [net.layers[0].bias])),
            ne.Gradients(_payload([net.layers[0].weight], [net.layers[0].bias])),
        ):
            with pytest.raises(ValueError, match="does not match network parameters"):
                ne.optimizer_step(net, grads, state)
            assert net.parameters_digest() == before
            assert state.step == 0
            assert _moment_bytes(state) == moments

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_rebinding_adamw_byte_for_byte(self, weight_decay):
        rng = np.random.default_rng(16)
        net = ne.init_network([5, 4, 3], ["tanh", "identity"], 16)
        ref_net = net.copy()
        state = ne.OptimizerState.fresh(net, lr=0.01, weight_decay=weight_decay)
        ref = _RebindingAdamW(ref_net, lr=0.01, weight_decay=weight_decay)
        x = rng.standard_normal((8, 5))
        targets = rng.standard_normal((8, 3))
        _, grad = _loss_quadratic(targets)
        for _ in range(60):
            # one gradient for both: the two networks are byte-equal here
            grads = grad(net, x)
            ne.optimizer_step(net, grads, state)
            ref.step_(ref_net, grads)
            assert net.parameters_digest() == ref_net.parameters_digest()
            assert _moment_bytes(state) == ref.moment_bytes()
            assert state.step == ref.step
        # the moments did move, and neither of them aliases a scratch buffer
        assert np.abs(state.m).max() > 0.0
        for moment in (state.m, state.v):
            assert not np.shares_memory(moment, state.scratch)

    def test_mismatched_state_rejected(self):
        net = ne.init_network([3, 2, 2], ["tanh", "identity"], 17)
        state = ne.OptimizerState.fresh(ne.init_network([3, 4, 2], ["tanh", "identity"], 17))
        before = net.parameters_digest()
        moments = _moment_bytes(state)
        grads = ne.Gradients(np.ones_like(net.params))
        with pytest.raises(ValueError, match="optimizer state"):
            ne.optimizer_step(net, grads, state)
        assert net.parameters_digest() == before
        assert state.step == 0
        assert _moment_bytes(state) == moments

    def test_step_allocates_no_parameter_sized_array(self):
        # the moments and parameters are updated through the state's scratch
        # buffers: ten steps must not allocate one 256 x 192 weight's worth
        rng = np.random.default_rng(18)
        net = ne.init_network([256, 192, 64], ["tanh", "identity"], 18)
        state = ne.OptimizerState.fresh(net, lr=1e-3, weight_decay=0.01)
        grads = ne.Gradients(rng.standard_normal(net.params.shape))
        ne.optimizer_step(net, grads, state)  # warm up any lazy module state
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                ne.optimizer_step(net, grads, state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert state.step == 11
        assert peak < net.layers[0].weight.nbytes, peak


def _assert_views(net):
    """Every layer array is a view into net.params, in payload order."""
    offset = 0
    for layer in net.layers:
        for array in (layer.weight, layer.bias):
            assert np.shares_memory(array, net.params)
            assert array.tobytes() == net.params[offset : offset + array.size].tobytes()
            offset += array.size
    assert offset == net.params.size


class TestParameterVector:
    def test_construction_copies_the_given_layers(self):
        layers = ne.init_network([4, 3, 2], ["tanh", "identity"], 30).layers
        net = ne.MlpNetwork(layers)
        _assert_views(net)
        for given, layer in zip(layers, net.layers):
            assert not np.shares_memory(given.weight, net.params)
            assert not np.shares_memory(given.bias, net.params)
            assert given.weight.tobytes() == layer.weight.tobytes()

    def test_copies_and_pickles_rebuild_the_views(self):
        net = ne.init_network([5, 4, 3], ["tanh", "sigmoid"], 31)
        for other in (
            net.copy(),
            pickle.loads(pickle.dumps(net)),
            copy.deepcopy(net),
            ne.network_from_checkpoint_bytes(ne.checkpoint_bytes(net)),
        ):
            _assert_views(other)
            assert not np.shares_memory(other.params, net.params)
            assert other.parameters_digest() == net.parameters_digest()

    def test_models_from_a_two_worker_pool_keep_their_views(self, monkeypatch):
        see_cpus(monkeypatch, 2)
        with atk.IndependentPool(2) as pool:
            models = list(pool.submit([16, 8, 4], [1, 2], [3, 4], 1, 10))
        for model in models:
            _assert_views(model)

    def test_optimizer_step_shows_through_the_layers(self):
        net = ne.init_network([4, 3, 2], ["tanh", "identity"], 32)
        before = [layer.weight.copy() for layer in net.layers]
        _, trace = ne.forward_batch(net, np.ones((3, 4)))
        grads = ne.backward(net, trace, np.ones((3, 2)))
        ne.optimizer_step(net, grads, ne.OptimizerState.fresh(net, lr=0.1))
        _assert_views(net)
        for layer, old in zip(net.layers, before):
            assert not np.array_equal(layer.weight, old)


class TestGradientsAdd:
    def _grads(self, dims, value):
        net = ne.init_network(dims, ["tanh"] * (len(dims) - 1), 0)
        return ne.Gradients(np.full_like(net.params, value))

    def test_same_shapes_add_in_place(self):
        total = self._grads([3, 2, 2], 1.0)
        flat = total.flat
        total.add_(self._grads([3, 2, 2], 0.5))
        assert total.flat is flat
        assert (total.flat == 1.5).all()

    @pytest.mark.parametrize("other_dims", [[3, 2], [3, 2, 2, 2], [3, 4, 2], [4, 2, 2]])
    def test_other_depth_or_shape_rejected(self, other_dims):
        total = self._grads([3, 2, 2], 1.0)
        with pytest.raises(ValueError, match="gradient sizes differ"):
            total.add_(self._grads(other_dims, 0.5))
        assert (total.flat == 1.0).all()


def _moment_bytes(state):
    return [state.m.tobytes(), state.v.tobytes()]


class _RebindingAdamW:
    """Reference AdamW with per-layer moments: each moment is rebound to a
    freshly computed array and each update is built in temporaries, as the
    expressions read."""

    def __init__(self, net, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = [[np.zeros_like(l.weight), np.zeros_like(l.bias)] for l in net.layers]
        self.v = [[np.zeros_like(l.weight), np.zeros_like(l.bias)] for l in net.layers]

    def step_(self, net, grads):
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step
        bc2 = 1.0 - b2**self.step
        for i, (layer, layer_grads) in enumerate(zip(net.layers, _per_layer(net, grads.flat))):
            if self.weight_decay:
                layer.weight *= 1.0 - self.lr * self.weight_decay
            for j, (param, grad) in enumerate(zip((layer.weight, layer.bias), layer_grads)):
                self.m[i][j] = b1 * self.m[i][j] + (1.0 - b1) * grad
                self.v[i][j] = b2 * self.v[i][j] + (1.0 - b2) * grad**2
                param -= self.lr * (self.m[i][j] / bc1) / (
                    np.sqrt(self.v[i][j] / bc2) + self.eps
                )

    def moment_bytes(self):
        """The moments laid out as the network's params vector."""
        return [
            np.concatenate([a.ravel() for pair in moments for a in pair]).tobytes()
            for moments in (self.m, self.v)
        ]


class TestPruning:
    def test_fraction_zero_is_identity(self):
        net = ne.init_network([5, 4, 3], ["tanh", "identity"], 15)
        assert ne.l1_unstructured_prune(net, 0.0).parameters_digest() == net.parameters_digest()

    def test_hand_ranked_example(self):
        net = ne.MlpNetwork(
            [ne.Layer(np.array([[0.1, -0.5], [0.3, -0.05]]), np.zeros(2), "identity")]
        )
        pruned = ne.l1_unstructured_prune(net, 0.5)
        assert np.array_equal(pruned.layers[0].weight, [[0.0, -0.5], [0.3, 0.0]])

    def test_desk_backbone_exact_sparsity(self):
        net = ne.init_network([256, 192, 64], ["tanh", "identity"], 16)
        for fraction in (0.2, 0.4):
            assert sparsity(ne.l1_unstructured_prune(net, fraction)) == fraction

    def test_biases_exempt(self):
        net = ne.init_network([4, 3], ["identity"], 17)
        net.layers[0].bias += 1e-9  # tiny biases would be pruned first otherwise
        pruned = ne.l1_unstructured_prune(net, 0.99)
        assert np.array_equal(pruned.layers[0].bias, net.layers[0].bias)

    def test_idempotent_at_same_fraction(self):
        net = ne.init_network([6, 5, 4], ["tanh", "identity"], 18)
        once = ne.l1_unstructured_prune(net, 0.3)
        twice = ne.l1_unstructured_prune(once, 0.3)
        assert once.parameters_digest() == twice.parameters_digest()

    def test_sparsity_monotone_in_fraction(self):
        net = ne.init_network([6, 5, 4], ["tanh", "identity"], 19)
        fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
        sparsities = [sparsity(ne.l1_unstructured_prune(net, q)) for q in fractions]
        assert all(a <= b for a, b in zip(sparsities, sparsities[1:]))

    @staticmethod
    def _argsort_prune(net, fraction):
        """Reference: kill the first floor(fraction * weight count) weights
        of a stable argsort of the magnitudes; each layer's pruned weights."""
        magnitudes = np.concatenate([np.abs(layer.weight).ravel() for layer in net.layers])
        mask = np.ones(magnitudes.size, dtype=bool)
        mask[np.argsort(magnitudes, kind="stable")[: int(fraction * magnitudes.size)]] = False
        weights, offset = [], 0
        for layer in net.layers:
            size = layer.weight.size
            weights.append(layer.weight * mask[offset : offset + size].reshape(layer.weight.shape))
            offset += size
        return weights

    @pytest.mark.parametrize("decimals", [1, 2, None], ids=["rounded-1", "rounded-2", "zeros"])
    def test_matches_stable_argsort_byte_for_byte(self, decimals):
        net = ne.init_network([256, 192, 64], ["tanh", "identity"], 22)
        for layer in net.layers:
            if decimals is None:  # every other weight exactly zero, some of them -0.0
                layer.weight[:, ::2] *= 0.0
            else:  # heavy ties at every rounded magnitude, -0.0 among them
                layer.weight[...] = np.round(layer.weight, decimals)
        count = net.weight_count()
        for fraction in (0.0, 1.5 / count, 0.2, 0.45, 1.0):
            pruned = ne.l1_unstructured_prune(net, fraction)
            for got, want in zip(pruned.layers, self._argsort_prune(net, fraction)):
                assert got.weight.tobytes() == want.tobytes(), fraction

    def test_fraction_out_of_range_rejected(self):
        net = ne.init_network([3, 2], ["identity"], 20)
        with pytest.raises(ValueError):
            ne.l1_unstructured_prune(net, 1.5)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = ne.init_network([7, 6, 5], ["relu", "sigmoid"], 21)
        path = tmp_path / "net.rmk"
        ne.save_checkpoint(net, path)
        loaded = ne.load_checkpoint(path)
        assert loaded.parameters_digest() == net.parameters_digest()
        assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]

    def test_header_layout(self):
        net = ne.init_network([2, 3], ["tanh"], 22)
        data = ne.checkpoint_bytes(net)
        assert data[:4] == b"RMK1"
        assert int.from_bytes(data[4:6], "little") == 1
        assert int.from_bytes(data[6:10], "little") == 1  # layer count
        assert int.from_bytes(data[10:14], "little") == 2  # rows = in_dim
        assert int.from_bytes(data[14:18], "little") == 3  # cols = out_dim
        assert data[18] == 2  # tanh code

    def test_checksum_detects_corruption(self):
        net = ne.init_network([3, 3], ["identity"], 23)
        data = bytearray(ne.checkpoint_bytes(net))
        data[25] ^= 0x01
        with pytest.raises(ne.CheckpointError, match="checksum"):
            ne.network_from_checkpoint_bytes(bytes(data))

    def test_bad_magic_rejected(self):
        net = ne.init_network([3, 3], ["identity"], 24)
        data = bytearray(ne.checkpoint_bytes(net))
        data[0] = ord("X")
        with pytest.raises(ne.CheckpointError, match="magic"):
            ne.network_from_checkpoint_bytes(bytes(data))

    def test_truncation_rejected(self):
        net = ne.init_network([3, 3], ["identity"], 25)
        data = ne.checkpoint_bytes(net)
        with pytest.raises(ne.CheckpointError):
            ne.network_from_checkpoint_bytes(data[: len(data) // 2])

    def test_truncation_at_every_offset_rejected(self):
        data = ne.checkpoint_bytes(ne.init_network([7, 6, 5], ["relu", "sigmoid"], 26))
        for cut in range(len(data)):
            with pytest.raises(ne.CheckpointError):
                ne.network_from_checkpoint_bytes(data[:cut])

    @staticmethod
    def _resealed(body: bytes) -> bytes:
        """body with a valid checksum appended, so parsing gets past it."""
        return body + struct.pack("<Q", sum(body))

    # [3, 3] identity network: 10-byte header, 9-byte layer header at 10,
    # 12 float64 parameters from 19, 8-byte checksum
    @pytest.mark.parametrize("edit, message", [
        (lambda body: body[:4] + struct.pack("<H", 2) + body[6:], "unsupported version 2"),
        (lambda body: body[:18] + bytes([9]) + body[19:], "unknown activation code 9"),
        (lambda body: body[:6] + struct.pack("<I", 2) + body[10:], "truncated layer header"),
        (lambda body: body[:10] + struct.pack("<I", 4) + body[14:], "truncated layer payload"),
        (lambda body: body + b"\0", "trailing bytes in checkpoint"),
        (lambda body: body[:9], "checkpoint too short"),
    ], ids=["version", "activation-code", "layer-header", "layer-payload", "trailing-bytes",
            "too-short"])
    def test_structural_check_messages(self, edit, message):
        body = ne.checkpoint_bytes(ne.init_network([3, 3], ["identity"], 27))[:-8]
        assert len(body) == 10 + 9 + 8 * 12
        with pytest.raises(ne.CheckpointError, match=message):
            ne.network_from_checkpoint_bytes(self._resealed(edit(body)))

    @pytest.mark.parametrize("edit, message", [
        (lambda body: body[:6] + struct.pack("<I", 0), "network needs at least one layer"),
        (lambda body: body[:6] + struct.pack("<I", 2) + body[10:]
         + struct.pack("<IIB", 4, 1, 0) + bytes(8 * 5), "layer dimensions do not chain: 3 -> 4"),
        (lambda body: body[:19] + struct.pack("<d", np.nan) + body[27:],
         "layer parameters must be finite"),
    ], ids=["no-layers", "unchained-layers", "nan-parameter"])
    def test_well_sealed_bad_network_is_a_checkpoint_error(self, edit, message):
        # the checksum holds, but the layers do not make a network
        body = ne.checkpoint_bytes(ne.init_network([3, 3], ["identity"], 28))[:-8]
        with pytest.raises(ne.CheckpointError, match=message):
            ne.network_from_checkpoint_bytes(self._resealed(edit(body)))
