"""Minimal dense neural-network engine on 64-bit numpy arrays.

Networks are plain values: each layer owns an (in_dim, out_dim) float64
weight matrix (row-major), a bias vector of length out_dim, and one of
four scalar activations. Forward/backward are pure functions of their
inputs; optimizer state lives outside the network so networks stay
copyable and hashable by content.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid")

_ACTIVATION_CODE = {"identity": 0, "relu": 1, "tanh": 2, "sigmoid": 3}
_CODE_ACTIVATION = {code: name for name, code in _ACTIVATION_CODE.items()}

CHECKPOINT_MAGIC = b"RMK1"
CHECKPOINT_VERSION = 1


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

    def copy(self) -> "Layer":
        return Layer(self.weight.copy(), self.bias.copy(), self.activation)


@dataclass
class MlpNetwork:
    """A chain of dense layers with matching inner dimensions."""

    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "MlpNetwork":
        return MlpNetwork([layer.copy() for layer in self.layers])

    def weight_count(self) -> int:
        """Number of weight entries, biases excluded."""
        return sum(layer.weight.size for layer in self.layers)

    def sparsity(self) -> float:
        """Fraction of exactly-zero weight entries, biases excluded."""
        zeros = sum(int(np.count_nonzero(layer.weight == 0.0)) for layer in self.layers)
        return zeros / self.weight_count()

    def parameters_digest(self) -> str:
        """SHA-256 over all parameter bytes; identical digests mean
        bit-identical parameters."""
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(layer.activation.encode())
            h.update(np.ascontiguousarray(layer.weight).tobytes())
            h.update(np.ascontiguousarray(layer.bias).tobytes())
        return h.hexdigest()


def init_network(dims, activations, seed_or_rng) -> MlpNetwork:
    """Glorot-uniform weights and zero biases.

    dims is the full dimension chain [in, hidden..., out]; activations has
    one entry per layer (len(dims) - 1).
    """
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator
    ) else seed_or_rng
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
    """

    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def batch_size(self) -> int:
        return self.activations[0].shape[0]


def forward_batch(net: MlpNetwork, inputs: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Run a (B, input_dim) batch through the network.

    Each layer's bias and activation are written into its matmul's output,
    so a layer allocates one (B, out_dim) array; the input is not modified.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"expected batch of shape (B, {net.input_dim}), got {x.shape}"
        )
    activations = [x]
    for layer in net.layers:
        x = x @ layer.weight
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
        activations.append(x)
    return x, ForwardTrace(activations)


@dataclass
class Gradients:
    """Per-layer weight/bias gradients plus the gradient w.r.t. the input
    batch (needed when networks are chained)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    wrt_input: np.ndarray | None = None

    def add_(self, other: "Gradients") -> "Gradients":
        """In-place accumulation of another gradient of the same shape."""
        for gw, ow in zip(self.weights, other.weights):
            gw += ow
        for gb, ob in zip(self.biases, other.biases):
            gb += ob
        return self

    def is_finite(self) -> bool:
        return all(np.isfinite(g).all() for g in self.weights) and all(
            np.isfinite(g).all() for g in self.biases
        )

    def max_abs(self) -> float:
        vals = [np.abs(g).max(initial=0.0) for g in self.weights]
        vals += [np.abs(g).max(initial=0.0) for g in self.biases]
        return max(vals)


def backward(
    net: MlpNetwork,
    trace: ForwardTrace,
    output_gradient: np.ndarray,
    wrt_input: bool = True,
) -> Gradients:
    """Backpropagate d(loss)/d(output) through the traced forward pass.

    output_gradient is (out_dim,) or (B, out_dim) matching the trace; the
    returned gradients are summed over the batch. With wrt_input=False the
    first layer's input gradient, a full (B, in) x (in, out) product, is not
    computed: the result's wrt_input is then an empty (B, 0) array, which
    keeps the batch size readable but fails any use as a gradient. Weight
    and bias gradients are the same bytes either way.
    """
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if len(trace.activations) != len(net.layers) + 1:
        raise ValueError("trace does not match network depth")
    if g.shape != trace.output.shape:
        raise ValueError(
            f"output gradient shape {g.shape} does not match trace {trace.output.shape}"
        )
    for layer, act_in, act_out in zip(net.layers, trace.activations, trace.activations[1:]):
        if act_out.shape[1] != layer.out_dim or act_in.shape[1] != layer.in_dim:
            raise ValueError("trace does not match network shapes")
    grads_w: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a = trace.activations[i + 1]
        # dz = g * activation'(z), the derivative taken from a and built in
        # one fresh buffer; g, possibly the caller's array, is never written
        if layer.activation == "identity":
            dz = g
        elif layer.activation == "relu":
            dz = g * (a > 0.0)
        elif layer.activation == "tanh":
            dz = a * a
            np.subtract(1.0, dz, out=dz)
            dz *= g
        else:  # sigmoid
            dz = 1.0 - a
            dz *= a
            dz *= g
        grads_w[i] = trace.activations[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0 or wrt_input:
            g = dz @ layer.weight.T
        else:
            g = np.empty((g.shape[0], 0))
    return Gradients(grads_w, grads_b, wrt_input=g)


@dataclass
class OptimizerState:
    """AdamW state: first/second moment accumulators, step counter, and
    hyperparameters. Weight decay is decoupled and applied to weights only."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float
    step: int
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]

    @classmethod
    def fresh(
        cls,
        net: MlpNetwork,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> "OptimizerState":
        return cls(
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            weight_decay=weight_decay,
            step=0,
            m_w=[np.zeros_like(l.weight) for l in net.layers],
            v_w=[np.zeros_like(l.weight) for l in net.layers],
            m_b=[np.zeros_like(l.bias) for l in net.layers],
            v_b=[np.zeros_like(l.bias) for l in net.layers],
        )


def optimizer_step(net: MlpNetwork, grads: Gradients, state: OptimizerState) -> None:
    """One AdamW update, in place on the network and state.

    Rejects the step (raises, nothing mutated) if any gradient entry is
    non-finite.
    """
    if not len(grads.weights) == len(grads.biases) == len(net.layers):
        raise ValueError("gradient does not match network depth")
    for layer, gw, gb in zip(net.layers, grads.weights, grads.biases):
        if gw.shape != layer.weight.shape or gb.shape != layer.bias.shape:
            raise ValueError("gradient shapes do not match network")
    if not grads.is_finite():
        raise ValueError("non-finite gradient entries; step rejected")

    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for i, layer in enumerate(net.layers):
        if state.weight_decay:
            layer.weight *= 1.0 - state.lr * state.weight_decay
        state.m_w[i] = b1 * state.m_w[i] + (1.0 - b1) * grads.weights[i]
        state.v_w[i] = b2 * state.v_w[i] + (1.0 - b2) * grads.weights[i] ** 2
        layer.weight -= state.lr * (state.m_w[i] / bc1) / (
            np.sqrt(state.v_w[i] / bc2) + state.eps
        )
        state.m_b[i] = b1 * state.m_b[i] + (1.0 - b1) * grads.biases[i]
        state.v_b[i] = b2 * state.v_b[i] + (1.0 - b2) * grads.biases[i] ** 2
        layer.bias -= state.lr * (state.m_b[i] / bc1) / (
            np.sqrt(state.v_b[i] / bc2) + state.eps
        )


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
    order = np.argsort(magnitudes, kind="stable")
    kill = order[:n_zero]
    mask = np.ones(magnitudes.shape[0], dtype=bool)
    mask[kill] = False
    offset = 0
    for layer in pruned.layers:
        size = layer.weight.size
        layer.weight *= mask[offset : offset + size].reshape(layer.weight.shape)
        offset += size
    return pruned


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

    def _check_array(param: np.ndarray, grad: np.ndarray) -> None:
        nonlocal worst
        flat = param.ravel()
        gflat = grad.ravel()
        for idx in range(flat.shape[0]):
            saved = flat[idx]
            flat[idx] = saved + fd_step
            up = float(loss_fn(net))
            flat[idx] = saved - fd_step
            down = float(loss_fn(net))
            flat[idx] = saved
            fd = (up - down) / (2.0 * fd_step)
            a = gflat[idx]
            err = abs(a - fd) / max(abs(a), abs(fd), floor)
            if err > worst:
                worst = err

    for layer, gw, gb in zip(net.layers, analytic.weights, analytic.biases):
        _check_array(layer.weight, gw)
        _check_array(layer.bias, gb)
    return worst


def _checksum(data: bytes) -> int:
    return int(np.frombuffer(data, dtype=np.uint8).sum(dtype=np.uint64))


def checkpoint_bytes(net: MlpNetwork) -> bytes:
    """Serialize a network to the binary checkpoint format."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<H", CHECKPOINT_VERSION)
    buf += struct.pack("<I", len(net.layers))
    for layer in net.layers:
        buf += struct.pack(
            "<IIB", layer.in_dim, layer.out_dim, _ACTIVATION_CODE[layer.activation]
        )
        buf += np.ascontiguousarray(layer.weight, dtype="<f8").tobytes()
        buf += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
    buf += struct.pack("<Q", _checksum(bytes(buf)))
    return bytes(buf)


def save_checkpoint(net: MlpNetwork, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(net))


def network_from_checkpoint_bytes(data: bytes) -> MlpNetwork:
    if len(data) < 18:
        raise CheckpointError("checkpoint too short")
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes")
    stored = struct.unpack("<Q", data[-8:])[0]
    if _checksum(data[:-8]) != stored:
        raise CheckpointError("checksum mismatch")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    (n_layers,) = struct.unpack_from("<I", data, 6)
    offset = 10
    layers = []
    for _ in range(n_layers):
        if offset + 9 > len(data) - 8:
            raise CheckpointError("truncated layer header")
        rows, cols, code = struct.unpack_from("<IIB", data, offset)
        offset += 9
        if code not in _CODE_ACTIVATION:
            raise CheckpointError(f"unknown activation code {code}")
        w_bytes = rows * cols * 8
        b_bytes = cols * 8
        if offset + w_bytes + b_bytes > len(data) - 8:
            raise CheckpointError("truncated layer payload")
        weight = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset)
        offset += w_bytes
        bias = np.frombuffer(data, dtype="<f8", count=cols, offset=offset)
        offset += b_bytes
        layers.append(
            Layer(weight.reshape(rows, cols).copy(), bias.copy(), _CODE_ACTIVATION[code])
        )
    if offset != len(data) - 8:
        raise CheckpointError("trailing bytes in checkpoint")
    return MlpNetwork(layers)


def load_checkpoint(path) -> MlpNetwork:
    with open(path, "rb") as fh:
        data = fh.read()
    return network_from_checkpoint_bytes(data)
