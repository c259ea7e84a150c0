"""Minimal dense neural-network engine on 64-bit numpy arrays.

Networks are plain values: each layer has an (in_dim, out_dim) float64
weight matrix (row-major), a bias vector of length out_dim, and one of
four scalar activations. A network keeps all of them in one contiguous
parameter vector in checkpoint payload order (W0, b0, W1, b1, ...), and
each layer's weight and bias are views into it. Gradients and the Adam
moments share that layout, so an optimizer step, a gradient sum, a finite
check or a copy is one numpy pass over one vector. Forward and backward
write into buffers (ForwardTrace.empty, Gradients.empty) that a training
loop makes once and reuses every step, as numpy's out= does, or into fresh
ones; backward spends the trace by building its derivative terms over the
trace's activations. Optimizer state lives outside the network so
networks stay copyable and hashable by content.

Helper threads. forward_batch, backward and watermark.embed_watermark reach
other threads only through _fork_join(spare, *works), which runs works[0] in
the caller and others on up to spare helpers, and returns or raises once
every work is done: no work of an engine call is pending on a helper once
the call returns. The helpers are one-thread executors started at first use
and kept. A batch of at least 512 rows gets one helper per spare CPU (_spare,
by _worker_count); a process whose BLAS does not report one thread, or that
runs any other Python thread (an IndependentPool's included), has none, and
_fork_join(0, ...) runs every work in the caller. A helper runs whole BLAS
products, or blocks of them cut at multiples of 32 rows or columns, which
OpenBLAS sums as one product of the whole operands, so the bytes are those
of a serial pass whatever thread runs them.
"""

from __future__ import annotations

import contextvars
import ctypes
import hashlib
import math
import os
import re
import struct
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid")

_ACTIVATION_CODE = {"identity": 0, "relu": 1, "tanh": 2, "sigmoid": 3}
_CODE_ACTIVATION = {code: name for name, code in _ACTIVATION_CODE.items()}

CHECKPOINT_MAGIC = b"RMK1"
CHECKPOINT_VERSION = 1
# RMK1 layout: header, then per layer a layer header and its float64 payload
# (weight row-major, then bias), then the checksum of all bytes before it.
_HEADER = struct.Struct("<4sHI")  # magic, version, layer count
_LAYER_HEADER = struct.Struct("<IIB")  # in_dim (rows), out_dim (cols), activation code
_CHECKSUM = struct.Struct("<Q")  # byte sum modulo 2**64


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or fails its checksum."""


@dataclass
class Layer:
    """One dense layer: y = activation(x @ weight + bias)."""

    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weight = np.ascontiguousarray(np.asarray(self.weight, dtype=np.float64))
        self.bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight columns "
                f"{self.weight.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not np.isfinite(self.weight).all() or not np.isfinite(self.bias).all():
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(eq=False)
class MlpNetwork:
    """A chain of dense layers with matching inner dimensions.

    All parameters live in one contiguous float64 vector, params, in the
    checkpoint payload order: W0 row-major, b0, W1, b1, ... Each layer's
    weight and bias are views into it, so a single numpy pass over params
    updates, copies or checks the whole network. Construction copies the
    given layers' values into a fresh vector; copy(), pickling and deepcopy
    build the views anew over their own vector. Update parameters in place:
    rebinding a layer's array or the layer list detaches it from params.
    """

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [a.ravel() for layer in self.layers for a in (layer.weight, layer.bias)]
        self._bind(np.concatenate(arrays) if arrays else np.empty(0), self.spec)

    def _bind(self, params: np.ndarray, spec) -> None:
        """Adopt params (not copied) and build one view layer per
        (in_dim, out_dim, activation) entry of spec over it."""
        if not spec:
            raise ValueError("network needs at least one layer")
        for (_, out_dim, _), (in_dim, _, _) in zip(spec, spec[1:]):
            if out_dim != in_dim:
                raise ValueError(f"layer dimensions do not chain: {out_dim} -> {in_dim}")
        self.params = params
        self.layers = [
            Layer(weight, bias, activation)
            for (weight, bias), (_, _, activation) in zip(_layer_views(params, spec), spec)
        ]

    @property
    def spec(self) -> list[tuple[int, int, str]]:
        """(in_dim, out_dim, activation) of each layer."""
        return [(layer.in_dim, layer.out_dim, layer.activation) for layer in self.layers]

    def __reduce__(self):
        return _network, (self.params, self.spec)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "MlpNetwork":
        return _network(self.params.copy(), self.spec)

    def weight_count(self) -> int:
        """Number of weight entries, biases excluded."""
        return sum(layer.weight.size for layer in self.layers)

    def parameters_digest(self) -> str:
        """SHA-256 over all parameter bytes; identical digests mean
        bit-identical parameters."""
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(layer.activation.encode())
            h.update(layer.weight.tobytes())
            h.update(layer.bias.tobytes())
        return h.hexdigest()


def _network(params: np.ndarray, spec) -> MlpNetwork:
    """The network of spec over params, which it adopts without a copy.
    Module-level, so that pickle finds it by name."""
    net = object.__new__(MlpNetwork)
    net._bind(params, spec)
    return net


def init_network(dims, activations, seed_or_rng) -> MlpNetwork:
    """Glorot-uniform weights and zero biases.

    dims is the full dimension chain [in, hidden..., out]; activations has
    one entry per layer (len(dims) - 1).
    """
    rng = np.random.default_rng(seed_or_rng)  # a Generator is returned as it is
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(weight, np.zeros(fan_out), act))
    return MlpNetwork(layers)


@dataclass
class ForwardTrace:
    """Per-layer values kept from a forward pass for the matching backward.

    activations[i] is the input to layer i; activations[-1] is the network
    output. All arrays are (B, dim). Every activation's derivative is taken
    from the activated value, so no pre-activation is kept.

    The trace owns one (rows, out_dim) buffer per layer, and activations[1:]
    are leading rows of them. backward overwrites those with the derivative
    terms and marks the trace spent; a spent trace refuses its output and a
    second backward until the next forward_batch refills it.
    """

    activations: list[np.ndarray]
    buffers: list[np.ndarray] = field(repr=False)
    spent: bool = False

    @classmethod
    def empty(cls, net: MlpNetwork, rows: int) -> "ForwardTrace":
        """A trace with buffers for batches of up to rows rows through net."""
        return cls([], [np.empty((rows, layer.out_dim)) for layer in net.layers])

    @property
    def output(self) -> np.ndarray:
        if self.spent:
            raise ValueError("trace was spent by backward; run forward_batch again")
        return self.activations[-1]


# forward_batch cuts a batch of at least _SPLIT_ROWS rows into blocks of at
# most _BLOCK_ROWS and, the last aside, at least _MIN_BLOCK_ROWS rows, every
# cut at a multiple of 32 rows, and never leaves a one-row block: OpenBLAS's
# dgemm kernels then sum each row of a block as in one product of the whole
# batch.
_SPLIT_ROWS = 512
_BLOCK_ROWS = 256
_MIN_BLOCK_ROWS = 64


def _block_cuts(rows: int, workers: int) -> list[int]:
    """The row offsets 0 < ... < rows that cut a batch into blocks for
    `workers` threads: each block is the rows left over workers, rounded down
    to a multiple of 32 and held between _MIN_BLOCK_ROWS and _BLOCK_ROWS, and
    a tail of at most one row more than that joins it. The blocks shrink
    towards the end, so a thread that runs slower than the others, or starts
    late, holds up the last one for a short block at most. For 1600 rows and
    2 workers: five blocks of 256 rows, then 160, 64, 64 and 32."""
    cuts = [0]
    while cuts[-1] < rows:
        left = rows - cuts[-1]
        size = min(_BLOCK_ROWS, max(_MIN_BLOCK_ROWS, left // workers // 32 * 32))
        cuts.append(rows if left <= size + 1 else cuts[-1] + size)
    return cuts


def forward_batch(
    net: MlpNetwork, inputs: np.ndarray, into: ForwardTrace | None = None
) -> tuple[np.ndarray, ForwardTrace]:
    """Run a (B, input_dim) batch through the network into a trace.

    Each layer writes its matmul, then its bias and activation, into the
    leading B rows of its buffer in into, which is returned as the trace; the
    input is not modified. into is a ForwardTrace.empty of this network for
    at least B rows, which a training loop makes once and reuses every step;
    without it a fresh one is made. An into that does not fit the network and
    batch raises ValueError before anything is written.

    With helpers (_spare), the batch runs as blocks of at most 256 rows
    (_block_cuts) that the caller and each helper take from one shared
    iterator under _fork_join, each writing its blocks' rows straight into
    the trace; without, it runs as one block. The bytes are those of a
    serial pass.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"expected batch of shape (B, {net.input_dim}), got {x.shape}"
        )
    if into is None:
        into = ForwardTrace.empty(net, len(x))
    if [b.shape[1] for b in into.buffers] != [layer.out_dim for layer in net.layers]:
        raise ValueError("into is not a ForwardTrace.empty trace of this network")
    rows = len(x)
    if rows > len(into.buffers[0]):
        raise ValueError(f"batch of {rows} rows exceeds into's {len(into.buffers[0])}")
    spare = _spare(rows)
    cuts = _block_cuts(rows, spare + 1) if spare else [0, rows]
    blocks = iter(range(len(cuts) - 1))  # next() holds the GIL: each block is taken once

    def run() -> None:
        for index in blocks:
            start, stop = cuts[index], cuts[index + 1]
            _layers(net, x[start:stop], [buffer[start:stop] for buffer in into.buffers])

    _fork_join(spare, *[run] * (spare + 1))
    into.activations = [x, *(buffer[:rows] for buffer in into.buffers)]
    into.spent = False
    return into.activations[-1], into


def _layers(net: MlpNetwork, x: np.ndarray, outs) -> None:
    """Run the rows of x through every layer of net, writing each layer's
    output into its array of outs, which has as many rows as x."""
    for layer, out in zip(net.layers, outs):
        x = np.matmul(x, layer.weight, out=out)
        x += layer.bias
        if layer.activation == "relu":
            np.maximum(x, 0.0, out=x)
        elif layer.activation == "tanh":
            np.tanh(x, out=x)
        elif layer.activation == "sigmoid":
            # 0.5 * (1 + tanh(0.5 * z)): the stable logistic, op for op
            x *= 0.5
            np.tanh(x, out=x)
            x += 1.0
            x *= 0.5


# _fork_join's helpers, one-thread executors started at first use and kept;
# _worker_count tells their threads by this name prefix
_helpers: list[ThreadPoolExecutor] = []
_HELPER_NAME = "randmark-forward"


def _quiesce_helpers() -> None:
    """Before a fork, wait until each helper, one thread that runs its work
    in submission order, has run a no-op submitted now: a fork must copy no
    thread that is inside numpy or BLAS, and a helper may still be running
    work of a _fork_join call in a thread other than the forking one."""
    for helper in _helpers:
        helper.submit(int).result()


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads."""
    _helpers.clear()


os.register_at_fork(before=_quiesce_helpers, after_in_child=_forget_helpers)


def _spare(rows: int) -> int:
    """The helpers that a batch of rows gets beside the caller: for at least
    _SPLIT_ROWS rows, one per worker of _worker_count beyond the caller;
    otherwise none."""
    return _worker_count(-(-rows // _BLOCK_ROWS)) - 1 if rows >= _SPLIT_ROWS else 0


def _fork_join(spare: int, *works: Callable[[], object]) -> None:
    """Run each work once and return when all are done: works[0] in the
    caller, works[1:spare + 1] each on a helper of its own, in a copy of the
    caller's context (so its np.errstate holds there too). The caller then
    goes through the other works in order: a helper's work that has not
    started, its helper busy or not yet woken, the caller cancels and runs
    itself; one that has started holds the call until it is done; a work
    beyond the helpers the caller runs. Once every work is done, raises the
    exception of the first work, in the order given, that raised. With
    spare = 0 every work runs in the caller, in order. Works are np.matmul or
    private code, never a traced public function."""
    while len(_helpers) < min(spare, len(works) - 1):
        _helpers.append(ThreadPoolExecutor(1, thread_name_prefix=_HELPER_NAME))
    futures = [
        helper.submit(contextvars.copy_context().run, work)
        for helper, work in zip(_helpers[:spare], works[1:])
    ]
    errors: list[BaseException] = []
    for work, future in zip_longest(works, [None, *futures]):
        if future is None or future.cancel():
            try:
                work()
            except BaseException as exc:  # raised below, once every work is done
                errors.append(exc)
        elif (exc := future.exception()) is not None:
            errors.append(exc)
    if errors:
        raise errors[0]


def _scipy_openblas() -> ctypes.CDLL | None:
    """numpy's OpenBLAS, opened from among this process's mapped files, or
    None if numpy runs on a BLAS other than scipy-openblas."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        library = ctypes.CDLL(min(paths, key=lambda path: "numpy" not in path))
        library.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        library.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    except (OSError, ValueError, AttributeError):
        return None
    return library


def _chosen_blas_threads() -> int:
    """The thread count OpenBLAS takes from the environment when it loads,
    or 1 where the environment chooses none: the package spreads its work
    over the CPUs itself. OpenBLAS reads the first of these variables whose
    value C's atoi reads as a count above 0 (an empty value, 0 or one that
    starts with no digit chooses none) and caps it at the CPUs of the
    affinity mask; a number of more than 9 digits is above that cap too."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        count = re.match(r"\s*\+?0*([1-9][0-9]{0,8})", os.environ.get(var, ""))
        if count:
            return min(int(count[1]), len(os.sched_getaffinity(0)))
    return 1


# set as OpenBLAS would have set it at load, also after a host program loaded
# numpy before it set a variable
_BLAS = _scipy_openblas()
if _BLAS is not None:
    _BLAS.scipy_openblas_set_num_threads64_(_chosen_blas_threads())


def _blas_core() -> str:
    """The OpenBLAS core numpy's products run on (SkylakeX, ...), or "unknown"."""
    return "unknown" if _BLAS is None else _BLAS.scipy_openblas_get_corename64_().decode()


def _blas_threads() -> int:
    """The threads that numpy's OpenBLAS runs a product on (0: unknown)."""
    return 0 if _BLAS is None else _BLAS.scipy_openblas_get_num_threads64_()


def _worker_count(jobs: int) -> int:
    """Workers for `jobs` parallel jobs, the caller included: one per CPU in
    the affinity mask, at most one per job, if BLAS runs one thread, no
    Python thread runs besides the caller and _fork_join's helpers, and the
    main thread has not stopped (at exit no executor takes work); otherwise
    1, which runs everything in the caller. It sizes an IndependentPool's
    worker processes and an engine call's helpers (_spare) alike.

    So a user's BLAS thread count above 1, a one-CPU mask (taskset -c 0), a
    BLAS other than scipy-openblas, or a running IndependentPool's threads
    keep the process serial. No thread runs at a fork: the helpers are idle
    (_quiesce_helpers), and OpenBLAS stops its own.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity mask: stay serial
        return 1
    threads = sum(not thread.name.startswith(_HELPER_NAME) for thread in threading.enumerate())
    alone = threads == 1 and threading.main_thread().is_alive()
    return min(jobs, cpus) if _blas_threads() == 1 and alone else 1


@dataclass
class Gradients:
    """The loss gradient w.r.t. every network parameter, in one vector laid
    out as MlpNetwork.params, plus the gradient w.r.t. the input batch
    (needed when networks are chained).

    Gradients made by Gradients.empty(net, rows, wrt_input) also own the two
    flat scratch buffers that backward writes input gradients to, layer by
    layer in turn, so its wrt_input is a view into one of them.
    """

    flat: np.ndarray
    wrt_input: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def empty(cls, net: MlpNetwork, rows: int, wrt_input: bool = True) -> "Gradients":
        """Gradients for backward(net, ..., wrt_input, into=...) over batches
        of up to rows rows."""
        return cls(
            np.empty_like(net.params),
            scratch=tuple(np.empty(rows * width) for width in _scratch_widths(net, wrt_input)),
        )

    def add_(self, other: "Gradients") -> "Gradients":
        """In-place accumulation of another gradient of the same network
        layout, in one pass; a gradient of another size raises ValueError."""
        if other.flat.shape != self.flat.shape:
            raise ValueError(
                f"gradient sizes differ: {other.flat.shape} vs {self.flat.shape}"
            )
        self.flat += other.flat
        return self

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _layer_views(vector: np.ndarray, spec):
    """(weight, bias) views into vector for each (in_dim, out_dim, ...)
    entry of spec, in the payload order of MlpNetwork.params."""
    offset = 0
    for in_dim, out_dim, *_ in spec:
        end = offset + in_dim * out_dim
        yield vector[offset:end].reshape(in_dim, out_dim), vector[end : end + out_dim]
        offset = end + out_dim


def _scratch_widths(net: MlpNetwork, wrt_input: bool) -> tuple[int, int]:
    """Row widths of the two scratch buffers of backward: layer i,
    counted from the last, writes buffer i % 2 with its input gradient
    (skipped for the first layer without wrt_input) and, for a sigmoid, first
    with 1 - a."""
    widths = [0, 0]
    for i, layer in enumerate(reversed(net.layers)):
        first = i == len(net.layers) - 1
        widths[i % 2] = max(
            widths[i % 2],
            layer.in_dim if wrt_input or not first else 0,
            layer.out_dim if layer.activation == "sigmoid" else 0,
        )
    return widths[0], widths[1]


def _leading(buffer: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leading entries of a flat buffer as a C-contiguous array of shape."""
    return buffer[: shape[0] * shape[1]].reshape(shape)


def _derivative_term(activation: str, a, g, scratch):
    """dz = g * activation'(z), taken from the activated value a and written
    over a; scratch, of a's shape, holds 1 - a for a sigmoid. g is never
    written, and is dz itself for the identity. Each element is rounded as
    g * (a > 0), (1 - a*a) * g and ((1 - a) * a) * g read."""
    if activation == "identity":
        return g
    if activation == "relu":
        np.greater(a, 0.0, out=a)
        return np.multiply(g, a, out=a)
    if activation == "tanh":
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
    else:  # sigmoid
        np.subtract(1.0, a, out=scratch)
        np.multiply(scratch, a, out=a)
    return np.multiply(a, g, out=a)


def backward(
    net: MlpNetwork,
    trace: ForwardTrace,
    output_gradient: np.ndarray,
    wrt_input: bool = True,
    into: Gradients | None = None,
) -> Gradients:
    """Backpropagate d(loss)/d(output) through the traced forward pass.

    output_gradient is (out_dim,) or (B, out_dim) matching the trace; the
    returned gradients are summed over the batch and written straight into
    one vector laid out as net.params. With wrt_input=False the first
    layer's input gradient, a full (B, in) x (in, out) product, is not
    computed: the result's wrt_input is then an empty (B, 0) array, which
    keeps the batch size readable but fails any use as a gradient. Weight
    and bias gradients are the same bytes either way.

    The parameter gradients go to into.flat, each derivative term is built
    in place over the trace's output activation of its layer, which spends
    the trace, and input gradients go to into's scratch buffers; into is
    returned, and output_gradient is not written. into is a Gradients.empty
    for this network, at least B rows and this wrt_input, which a training
    loop makes once and reuses every step; without it a fresh one is made.
    An into or output_gradient that does not fit, or an output_gradient that
    overlaps the trace or into's scratch, raises ValueError before anything
    is written.

    Each layer is one _fork_join: the caller's bias sum and input-gradient
    product beside the weight-gradient product, which a helper (_spare)
    takes. With a helper, the first layer under wrt_input=False cuts its
    weight gradient at out_dim // 2 rounded down to a multiple of 32 columns
    instead, the caller taking the left part. The bytes are those of a
    serial pass.
    """
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if len(trace.activations) != len(net.layers) + 1:
        raise ValueError("trace does not match network depth")
    if g.shape != trace.output.shape:  # a spent trace refuses its output
        raise ValueError(
            f"output gradient shape {g.shape} does not match trace {trace.output.shape}"
        )
    for layer, act_in, act_out in zip(net.layers, trace.activations, trace.activations[1:]):
        if act_out.shape[1] != layer.out_dim or act_in.shape[1] != layer.in_dim:
            raise ValueError("trace does not match network shapes")
    rows = g.shape[0]
    if into is None:
        into = Gradients.empty(net, rows, wrt_input)
    widths = _scratch_widths(net, wrt_input)
    if into.flat.shape != net.params.shape or into.scratch is None or any(
        rows * width > buffer.size for width, buffer in zip(widths, into.scratch)
    ):
        raise ValueError(
            f"into is not a Gradients.empty of this network for {rows} rows "
            f"and wrt_input={wrt_input}"
        )
    if any(np.may_share_memory(g, a) for a in (*trace.activations[1:], *into.scratch)):
        raise ValueError("output gradient overlaps the trace or into's scratch")
    spare = _spare(rows)
    views = list(_layer_views(into.flat, net.spec))
    for step, i in enumerate(range(len(net.layers) - 1, -1, -1)):
        layer = net.layers[i]
        a = trace.activations[i + 1]
        # a sigmoid's 1 - a goes where this layer's input gradient goes next
        buffer = into.scratch[step % 2]
        scratch = _leading(buffer, a.shape) if layer.activation == "sigmoid" else None
        dz = _derivative_term(layer.activation, a, g, scratch)
        a_in_t, (weight_grad, bias_grad) = trace.activations[i].T, views[i]
        input_grad = i > 0 or wrt_input
        g = _leading(buffer, (rows, layer.in_dim)) if input_grad else np.empty((rows, 0))
        # the helper takes the weight gradient's columns from cut on; a
        # 32-aligned cut keeps each column's bytes those of one product
        cut = 0 if input_grad or not spare else layer.out_dim // 2 // 32 * 32

        def own() -> None:
            if cut:
                np.matmul(a_in_t, dz[:, :cut], out=weight_grad[:, :cut])
            dz.sum(axis=0, out=bias_grad)
            if input_grad:
                np.matmul(dz, layer.weight.T, out=g)

        # joined before the next layer's derivative term overwrites a_in_t
        _fork_join(spare, own, partial(np.matmul, a_in_t, dz[:, cut:], out=weight_grad[:, cut:]))
    trace.spent = True
    into.wrt_input = g
    return into


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam state: the learning rate, first and second moment accumulators
    m and v, laid out as the network's params vector, and the step counter.
    The moments decay at beta1 = 0.9 and beta2 = 0.999, and eps = 1e-8.

    scratch holds two params-sized buffers that optimizer_step works in, so
    a step allocates no parameter-sized array.
    """

    lr: float
    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)

    @classmethod
    def fresh(cls, net: MlpNetwork, lr: float) -> "OptimizerState":
        return cls(
            lr=lr,
            step=0,
            m=np.zeros_like(net.params),
            v=np.zeros_like(net.params),
            scratch=np.empty((2, net.params.size)),
        )


def optimizer_step(net: MlpNetwork, grads: Gradients, state: OptimizerState) -> None:
    """One bias-corrected Adam update, in place on the network and state.

    Rejects the step (raises, nothing mutated) if a gradient or moment does
    not match the network or any gradient entry is non-finite. Otherwise
    m = m*beta1 + g*(1-beta1); v = v*beta2 + (1-beta2)*(g*g);
    params -= lr*(m/bc1) / (sqrt(v/bc2) + eps) with bc = 1 - beta**step,
    each in place over the whole params vector and rounded op for op as the
    expressions read.
    """
    if grads.flat.shape != net.params.shape:
        raise ValueError(
            f"gradient of shape {grads.flat.shape} does not match network "
            f"parameters {net.params.shape}"
        )
    if not (
        state.m.shape == state.v.shape == net.params.shape
        and state.scratch.shape == (2, net.params.size)
    ):
        raise ValueError("optimizer state does not match network")
    if not grads.is_finite():
        raise ValueError("non-finite gradient entries; step rejected")

    state.step += 1
    bc1 = 1.0 - _BETA1**state.step
    bc2 = 1.0 - _BETA2**state.step
    grad, m, v = grads.flat, state.m, state.v
    num, den = state.scratch
    m *= _BETA1
    np.multiply(grad, 1.0 - _BETA1, out=num)
    m += num
    v *= _BETA2
    np.multiply(grad, grad, out=num)
    num *= 1.0 - _BETA2
    v += num
    np.divide(m, bc1, out=num)
    num *= state.lr
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += _EPS
    num /= den
    net.params -= num


def l1_unstructured_prune(net: MlpNetwork, fraction: float) -> MlpNetwork:
    """Zero the floor(fraction * weight_count) smallest-magnitude weights.

    Magnitudes are ranked globally across all weight matrices; biases are
    exempt. Ties break by (layer index, row-major flat index), so repeated
    pruning at the same fraction is a no-op. Returns a new network.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    pruned = net.copy()
    n_zero = int(math.floor(fraction * net.weight_count()))
    if n_zero == 0:
        return pruned
    magnitudes = np.concatenate(
        [np.abs(layer.weight).ravel() for layer in pruned.layers]
    )
    # the n_zero smallest as a stable argsort ranks them: every magnitude
    # below the n_zero-th smallest, then the first of those equal to it
    threshold = np.partition(magnitudes, n_zero - 1)[n_zero - 1]
    mask = magnitudes > threshold
    ties = np.flatnonzero(magnitudes == threshold)
    mask[ties[n_zero - np.count_nonzero(magnitudes < threshold):]] = True
    offset = 0
    for layer in pruned.layers:
        size = layer.weight.size
        layer.weight *= mask[offset : offset + size].reshape(layer.weight.shape)
        offset += size
    return pruned


def _checksum(data: bytes) -> int:
    return int(np.frombuffer(data, dtype=np.uint8).sum(dtype=np.uint64))


def checkpoint_bytes(net: MlpNetwork) -> bytes:
    """Serialize a network to the binary checkpoint format."""
    buf = bytearray(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(net.layers)))
    for layer in net.layers:
        buf += _LAYER_HEADER.pack(layer.in_dim, layer.out_dim, _ACTIVATION_CODE[layer.activation])
        buf += np.ascontiguousarray(layer.weight, dtype="<f8").tobytes()
        buf += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
    buf += _CHECKSUM.pack(_checksum(bytes(buf)))
    return bytes(buf)


def save_checkpoint(net: MlpNetwork, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(net))


def network_from_checkpoint_bytes(data: bytes) -> MlpNetwork:
    end = len(data) - _CHECKSUM.size  # where the layers end and the checksum starts
    if end < _HEADER.size:
        raise CheckpointError("checkpoint too short")
    magic, version, n_layers = _HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes")
    if _checksum(data[:end]) != _CHECKSUM.unpack_from(data, end)[0]:
        raise CheckpointError("checksum mismatch")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    offset = _HEADER.size
    spec, payloads = [], []
    for _ in range(n_layers):
        if offset + _LAYER_HEADER.size > end:
            raise CheckpointError("truncated layer header")
        rows, cols, code = _LAYER_HEADER.unpack_from(data, offset)
        offset += _LAYER_HEADER.size
        if code not in _CODE_ACTIVATION:
            raise CheckpointError(f"unknown activation code {code}")
        count = rows * cols + cols
        if offset + 8 * count > end:
            raise CheckpointError("truncated layer payload")
        spec.append((rows, cols, _CODE_ACTIVATION[code]))
        payloads.append(np.frombuffer(data, dtype="<f8", count=count, offset=offset))
        offset += 8 * count
    if offset != end:
        raise CheckpointError("trailing bytes in checkpoint")
    params = np.concatenate(payloads, dtype=np.float64) if payloads else np.empty(0)
    try:  # no layers, layers that do not chain, a non-finite parameter
        return _network(params, spec)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None


def load_checkpoint(path) -> MlpNetwork:
    with open(path, "rb") as fh:
        data = fh.read()
    return network_from_checkpoint_bytes(data)

