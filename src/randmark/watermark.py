"""Embed binary messages into trigger representations and extract them back.

The owner holds a trigger set, kept as three stacked arrays (TriggerSet):
N secret images (N, s), a random n-bit message for each (N, n) and a noise
scale for each (N,). Every layer reads rows of those arrays: the embedding
loss, the shared stego batch, decoding, and the RMTS file, which stores one
record per trigger. The owner also holds a frozen reference backbone f and
three trainable networks: the watermarked backbone, an encoder that hides
the message in a noisy trigger image, and a decoder that reads it from the
backbone's embedding. Training minimizes a
fidelity term (keep the watermarked backbone close to the reference on the
clean triggers) plus a message term (decoded soft bits close to the assigned
message under fresh Gaussian input noise). Verification replays the encoder
and decoder around any suspect backbone and counts bit errors.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .nnengine import (
    ForwardTrace,
    Gradients,
    MlpNetwork,
    OptimizerState,
    _fork_join,
    _spare,
    backward,
    forward_batch,
    init_network,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)

TRIGGER_MAGIC = b"RMTS"
TRIGGER_VERSION = 1
# RMTS v1 header: magic, version, trigger count, s, n, master seed
_TRIGGER_HEADER = struct.Struct("<4sHIIIQ")

# Gradient of a vector norm at the origin is taken as 0 (subgradient choice).
_NORM_FLOOR = 1e-300

_MASK64 = 0xFFFFFFFFFFFFFFFF


class VerificationRefused(RuntimeError):
    """Suspect model is architecturally incompatible with the verifier."""


class TrainingDiverged(RuntimeError):
    """A training loss or output went non-finite. embed_watermark rolls the
    bundle back to the last good parameters before raising it."""


@dataclass(eq=False)
class TriggerSet:
    """The owner's secret trigger set as stacked rows: N flat images (N, s)
    with pixels in [0, 1], a message of n bits for each (N, n), and a
    Gaussian noise scale for each (N,). Equal sets hold equal arrays and
    master seeds."""

    images: np.ndarray
    messages: np.ndarray
    sigmas: np.ndarray
    master_seed: int

    def __post_init__(self):
        messages = np.asarray(self.messages)
        self.images = np.asarray(self.images, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if self.images.ndim != 2 or messages.ndim != 2 or self.sigmas.ndim != 1:
            raise ValueError("trigger set needs images (N, s), messages (N, n) and sigmas (N,)")
        if not len(self.images) == len(messages) == len(self.sigmas):
            raise ValueError("images, messages and sigmas must have one row per trigger")
        if 0 in (len(self.images), self.images.shape[1], messages.shape[1]):
            raise ValueError("trigger set needs at least one trigger, pixel and message bit")
        # a NaN fails both comparisons, so it is rejected with the range
        if not ((self.images >= 0.0) & (self.images <= 1.0)).all():
            raise ValueError("trigger pixel intensities must be finite and lie in [0, 1]")
        if not ((messages == 0) | (messages == 1)).all():
            raise ValueError("message entries must be 0 or 1")
        self.messages = messages.astype(np.int8)
        if not ((self.sigmas > 0.0) & (self.sigmas < math.inf)).all():
            raise ValueError("sigma must be positive and finite")
        self.master_seed = int(self.master_seed) & _MASK64

    @property
    def n(self) -> int:
        return self.messages.shape[1]

    @property
    def s(self) -> int:
        return self.images.shape[1]

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriggerSet):
            return NotImplemented
        return self.master_seed == other.master_seed and all(map(
            np.array_equal,
            (self.images, self.messages, self.sigmas),
            (other.images, other.messages, other.sigmas),
        ))

    def __getitem__(self, rows: slice) -> "TriggerSet":
        """The triggers of a row slice, as a set of their own."""
        return TriggerSet(
            self.images[rows], self.messages[rows], self.sigmas[rows], self.master_seed
        )


def _trigger_record(s: int, n: int) -> np.dtype:
    """One trigger of an RMTS v1 file: its pixels and sigma as little-endian
    float64, then its bits packed LSB-first into ceil(n/8) bytes."""
    return np.dtype([
        ("image", "<f8", (s,)), ("sigma", "<f8"), ("message", "u1", ((n + 7) // 8,)),
    ])


def save_trigger_set(triggers: TriggerSet, path) -> None:
    records = np.empty(len(triggers), _trigger_record(triggers.s, triggers.n))
    records["image"] = triggers.images
    records["sigma"] = triggers.sigmas
    records["message"] = np.packbits(triggers.messages.astype(np.uint8), axis=1, bitorder="little")
    header = _TRIGGER_HEADER.pack(
        TRIGGER_MAGIC, TRIGGER_VERSION, len(triggers), triggers.s, triggers.n,
        triggers.master_seed,
    )
    with open(path, "wb") as fh:
        fh.write(header + records.tobytes())


def load_trigger_set(path) -> TriggerSet:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(TRIGGER_MAGIC):
        raise ValueError("bad trigger-set magic bytes")
    if len(data) < _TRIGGER_HEADER.size:
        raise ValueError(
            f"truncated trigger-set header: {len(data)} of {_TRIGGER_HEADER.size} bytes"
        )
    _, version, count, s, n, master_seed = _TRIGGER_HEADER.unpack_from(data)
    if version != TRIGGER_VERSION:
        raise ValueError(f"unsupported trigger-set version {version}")
    record = _trigger_record(s, n)
    expected = _TRIGGER_HEADER.size + count * record.itemsize
    if len(data) < expected:
        raise ValueError(
            f"truncated trigger-set file: {len(data)} bytes, header needs {expected}"
        )
    if len(data) != expected:
        raise ValueError("trailing bytes in trigger-set file")
    records = np.frombuffer(data, dtype=record, count=count, offset=_TRIGGER_HEADER.size)
    messages = np.unpackbits(records["message"], axis=1, count=n, bitorder="little")
    return TriggerSet(records["image"].copy(), messages, records["sigma"].copy(), master_seed)


@dataclass
class HyperParams:
    """Training knobs for watermark embedding; a run takes them from its
    ExperimentConfig (hyper()), which alone holds their defaults."""

    lam: float  # weight of the message term
    k_train: int  # noise draws per trigger per epoch
    epochs: int
    learning_rate: float
    delta_scale: float  # amplitude of the encoder's bounded perturbation
    weight_decay: float = 0.0  # of the watermarked backbone; no config field sets it

    def __post_init__(self):
        # a NaN fails every comparison, so it is rejected with the range
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be non-negative and finite")
        if self.k_train < 1 or self.epochs < 0:
            raise ValueError("k_train >= 1 and epochs >= 0 required")
        if not 0.0 < self.delta_scale < math.inf:
            raise ValueError("delta_scale must be positive and finite")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")


# A bundle directory: one <name>.rmk checkpoint per network, and manifest.txt
# with one key=value line per HyperParams field (manifest key, field, type),
# then s, k and n.
_BUNDLE_NETWORKS = ("frozen_f", "watermarked_f", "encoder_e", "decoder_d")
_BUNDLE_HYPER_KEYS = (
    ("lambda", "lam", float), ("k_train", "k_train", int), ("epochs", "epochs", int),
    ("learning_rate", "learning_rate", float), ("delta_scale", "delta_scale", float),
    ("weight_decay", "weight_decay", float),
)


@dataclass
class ModelBundle:
    """Frozen reference backbone, watermarked backbone, encoder, decoder."""

    frozen_f: MlpNetwork  # s -> k, never updated
    watermarked_f: MlpNetwork  # s -> k
    encoder_e: MlpNetwork  # s + n -> s, bounded output
    decoder_d: MlpNetwork  # k -> n, sigmoid output
    hyper: HyperParams

    def __post_init__(self):
        s, k, n = self.s, self.k, self.n
        if self.watermarked_f.input_dim != s or self.watermarked_f.output_dim != k:
            raise ValueError("watermarked backbone does not match reference dims")
        if self.encoder_e.input_dim != s + n or self.encoder_e.output_dim != s:
            raise ValueError("encoder must map s+n -> s")
        if self.decoder_d.input_dim != k or self.decoder_d.output_dim != n:
            raise ValueError("decoder must map k -> n")
        if self.encoder_e.layers[-1].activation != "tanh":
            raise ValueError("encoder output layer must be tanh")
        if self.decoder_d.layers[-1].activation != "sigmoid":
            raise ValueError("decoder output layer must be sigmoid")

    @property
    def s(self) -> int:
        return self.frozen_f.input_dim

    @property
    def k(self) -> int:
        return self.frozen_f.output_dim

    @property
    def n(self) -> int:
        return self.decoder_d.output_dim

    @property
    def backbone_dims(self) -> list[int]:
        """Dimension chain [s, hidden..., k] of the reference backbone."""
        return [self.s] + [layer.out_dim for layer in self.frozen_f.layers]

    @classmethod
    def create(
        cls, source_f: MlpNetwork, n: int, encoder_hidden: tuple[int, ...],
        decoder_hidden: tuple[int, ...], hyper: HyperParams, seed: int,
    ) -> "ModelBundle":
        """Build a fresh bundle around an existing backbone. The watermarked
        backbone starts as an exact copy of the reference."""
        s, k = source_f.input_dim, source_f.output_dim
        rng = np.random.default_rng(seed)
        enc_dims = [s + n, *encoder_hidden, s]
        encoder = init_network(enc_dims, ["tanh"] * (len(enc_dims) - 1), rng)
        dec_dims = [k, *decoder_hidden, n]
        decoder = init_network(
            dec_dims, ["tanh"] * (len(dec_dims) - 2) + ["sigmoid"], rng
        )
        return cls(
            frozen_f=source_f.copy(),
            watermarked_f=source_f.copy(),
            encoder_e=encoder,
            decoder_d=decoder,
            hyper=hyper,
        )

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name in _BUNDLE_NETWORKS:
            save_checkpoint(getattr(self, name), directory / f"{name}.rmk")
        lines = [f"{key}={getattr(self.hyper, name)}" for key, name, _ in _BUNDLE_HYPER_KEYS]
        lines += [f"s={self.s}", f"k={self.k}", f"n={self.n}"]
        (directory / "manifest.txt").write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, directory) -> "ModelBundle":
        """Read a bundle written by save. A manifest.txt that lacks a key or
        holds a line that is not key=value, an unknown or repeated key, a
        value that is not a finite number of the key's type, one out of
        HyperParams' range, or an s, k or n other than the networks' raises
        ValueError naming the file and the line or key."""
        directory = Path(directory)
        manifest = directory / "manifest.txt"
        known = [key for key, _, _ in _BUNDLE_HYPER_KEYS] + ["s", "k", "n"]
        kv = {}

        def number(key: str, cast):
            if key not in kv:
                raise ValueError(f"missing key {key!r}")
            try:
                value = cast(kv[key])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{key}={kv[key]!r} is not a finite {cast.__name__}")
            return value

        try:
            for line in manifest.read_text().splitlines():
                key, sep, value = (part.strip() for part in line.partition("="))
                if not sep:
                    raise ValueError(f"line {line!r} is not key=value")
                if key not in known:
                    raise ValueError(f"unknown key {key!r}")
                if key in kv:
                    raise ValueError(f"repeated key {key!r}")
                kv[key] = value
            hyper = HyperParams(**{
                name: number(key, cast) for key, name, cast in _BUNDLE_HYPER_KEYS
            })
            dims = {key: number(key, int) for key in ("s", "k", "n")}
        except ValueError as exc:
            raise ValueError(f"{manifest}: {exc}") from None
        bundle = cls(
            **{name: load_checkpoint(directory / f"{name}.rmk") for name in _BUNDLE_NETWORKS},
            hyper=hyper,
        )
        for key, value in dims.items():
            if getattr(bundle, key) != value:
                raise ValueError(
                    f"{manifest}: {key}={value} does not match the networks' "
                    f"{getattr(bundle, key)}"
                )
        return bundle


def sample_noise(image: np.ndarray, sigma: float, k_draws: int, stream_seed: int) -> np.ndarray:
    """K perturbed copies of one trigger image (s,): x + eps with eps iid
    Gaussian of per-coordinate std sigma. Deterministic for a fixed seed."""
    if k_draws < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(stream_seed)
    eps = rng.standard_normal((k_draws, image.shape[0]))
    return image[None, :] + sigma * eps


def encoder_perturbation(
    encoder: MlpNetwork, noisy_images: np.ndarray, message: np.ndarray
) -> np.ndarray:
    """Raw bounded output of the encoder network for a (B, s) batch of noisy
    images that all carry one message of n bits."""
    bits = np.broadcast_to(message.astype(np.float64), (noisy_images.shape[0], message.shape[0]))
    out, _ = forward_batch(encoder, np.concatenate([noisy_images, bits], axis=1))
    return out


@dataclass
class TrainingLog:
    """Per-epoch records from embedding: fidelity/message/total are means
    per trigger, bit_accuracy is over all draws and bits."""

    epochs: list[dict] = field(default_factory=list)

    def final(self) -> dict:
        if not self.epochs:
            raise ValueError("empty training log")
        return self.epochs[-1]


class _EmbedStep:
    """The embedding loss summed over triggers, and its analytic gradients,
    computed in buffers allocated once for a trigger set's (N, n) message
    bits and K noise draws per trigger: the (N * K, s + n) encoder input,
    whose bit columns are filled here; the (N * K, s) stego batch, whose
    (N, K, s) view noise may take each epoch's noise draw, since a call
    reads the draw before it builds the stego and needs the stego no more
    once it returns, so the next draw may fill it between calls; the
    message error; and a ForwardTrace and a Gradients per pass. Each call
    overwrites all of them, the gradients it returned before included, with
    the bytes that fresh arrays would hold.
    """

    def __init__(self, watermarked_f, encoder_e, decoder_d, messages: np.ndarray, k_draws: int):
        self.nets = (watermarked_f, encoder_e, decoder_d)
        n_trig, n = messages.shape
        s, rows = encoder_e.output_dim, n_trig * k_draws
        self.encoder_input = np.empty((rows, s + n))
        self.noisy = self.encoder_input[:, :s]
        self.noisy_draws = self.encoder_input.reshape(n_trig, k_draws, s + n)[:, :, :s]
        self.bits = self.encoder_input[:, s:]
        self.bits[:] = np.repeat(messages, k_draws, axis=0)
        self.bit_is_one = self.bits >= 0.5
        self.stego = np.empty((rows, s))
        self.noise = self.stego.reshape(n_trig, k_draws, s)
        self.error = np.empty((rows, n))
        self.squared = np.empty((rows, n))
        self.traces = {
            "encoder": ForwardTrace.empty(encoder_e, rows),
            "message": ForwardTrace.empty(watermarked_f, rows),
            "decoder": ForwardTrace.empty(decoder_d, rows),
            "fidelity": ForwardTrace.empty(watermarked_f, n_trig),
        }
        self.grads = {
            "encoder": Gradients.empty(encoder_e, rows, wrt_input=False),
            "message": Gradients.empty(watermarked_f, rows),
            "decoder": Gradients.empty(decoder_d, rows),
            "fidelity": Gradients.empty(watermarked_f, n_trig, wrt_input=False),
        }

    def __call__(
        self,
        out_ref: np.ndarray,  # (N, k) frozen reference embeddings of images
        images: np.ndarray,  # (N, s)
        noise: np.ndarray,  # (N, K, s), possibly self.noise
        lam: float,
        delta_scale: float,
    ):
        """(fidelity_sum, message_sum, bit_accuracy, grads) where grads is
        (g_watermarked, g_encoder, g_decoder)."""
        watermarked_f, encoder_e, decoder_d = self.nets
        traces, grads = self.traces, self.grads
        k_draws = noise.shape[1]
        np.add(images[:, None, :], noise, out=self.noisy_draws)

        e_out, tr_e = forward_batch(encoder_e, self.encoder_input, into=traces["encoder"])
        stego = np.multiply(delta_scale, e_out, out=self.stego)
        np.add(self.noisy, stego, out=stego)
        emb, tr_fm = forward_batch(watermarked_f, stego, into=traces["message"])
        soft, tr_d = forward_batch(decoder_d, emb, into=traces["decoder"])

        diff_soft = np.subtract(soft, self.bits, out=self.error)
        message_sum = (lam / k_draws) * float(np.square(diff_soft, out=self.squared).sum())
        hard = soft >= 0.5
        bit_accuracy = float((hard == self.bit_is_one).mean())

        out_w, tr_fc = forward_batch(watermarked_f, images, into=traces["fidelity"])
        diff_fid = out_w - out_ref
        norms = np.sqrt((diff_fid**2).sum(axis=1))
        fidelity_sum = float(norms.sum())

        g_soft = np.multiply(2.0 * lam / k_draws, diff_soft, out=diff_soft)
        g_dec = backward(decoder_d, tr_d, g_soft, into=grads["decoder"])
        g_f_msg = backward(watermarked_f, tr_fm, g_dec.wrt_input, into=grads["message"])
        g_emb_in = np.multiply(delta_scale, g_f_msg.wrt_input, out=g_f_msg.wrt_input)
        g_enc = backward(encoder_e, tr_e, g_emb_in, wrt_input=False, into=grads["encoder"])

        safe = np.maximum(norms, _NORM_FLOOR)
        g_fid_out = np.where(norms[:, None] > 0.0, diff_fid / safe[:, None], 0.0)
        g_f_fid = backward(
            watermarked_f, tr_fc, g_fid_out, wrt_input=False, into=grads["fidelity"]
        )
        g_f_msg.add_(g_f_fid)

        return fidelity_sum, message_sum, bit_accuracy, (g_f_msg, g_enc, g_dec)


@np.errstate(over="ignore", invalid="ignore")
def embed_watermark(bundle: ModelBundle, triggers: TriggerSet) -> tuple[ModelBundle, TrainingLog]:
    """Jointly train the watermarked backbone, encoder, and decoder on the
    trigger set. The frozen reference is never touched.

    Noise draws are fresh each epoch, derived deterministically from the
    trigger set's master seed. Every epoch runs in the buffers of one
    _EmbedStep and the optimizer states, allocated before the first, so
    the loop allocates no batch-sized array. On a non-finite loss or gradient
    the bundle is rolled back to the last finite epoch and TrainingDiverged
    is raised, whatever floating-point warnings the diverging step gave: the
    function runs under np.errstate(over="ignore", invalid="ignore").

    Each epoch ends in one _fork_join: the caller checks the epoch and steps
    the optimizers while a helper (_spare, for at least 512 stego rows
    N * K) draws the next epoch's noise, from the same generator in the same
    order, so the bytes are those of a serial run.
    """
    if triggers.s != bundle.s or triggers.n != bundle.n:
        raise ValueError("trigger set dimensions do not match bundle")
    hyper = bundle.hyper
    messages = triggers.messages.astype(np.float64)
    n_trig = len(triggers)

    rng = np.random.default_rng(triggers.master_seed)
    trained = (bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
    states = (
        OptimizerState.fresh(
            bundle.watermarked_f, lr=hyper.learning_rate, weight_decay=hyper.weight_decay
        ),
        OptimizerState.fresh(bundle.encoder_e, lr=hyper.learning_rate),
        OptimizerState.fresh(bundle.decoder_d, lr=hyper.learning_rate),
    )
    log = TrainingLog()
    snapshot = [net.params.copy() for net in trained]
    out_ref, _ = forward_batch(bundle.frozen_f, triggers.images)  # frozen: the same every epoch
    step = _EmbedStep(*trained, messages, hyper.k_train)
    spare = _spare(len(step.stego))
    draw = partial(_draw_noise, rng, step.noise, triggers.sigmas)

    def finish_epoch(epoch: int, fid: float, msg: float, acc: float, grads) -> None:
        total = fid + msg
        if not (math.isfinite(total) and all(g.is_finite() for g in grads)):
            for net, saved in zip(trained, snapshot):
                np.copyto(net.params, saved)
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}; restored last good parameters"
            )
        for net, saved in zip(trained, snapshot):
            np.copyto(saved, net.params)
        for net, g, state in zip(trained, grads, states):
            optimizer_step(net, g, state)
        log.epochs.append(
            {
                "epoch": epoch,
                "fidelity": fid / n_trig,
                "message": msg / n_trig,
                "total": total / n_trig,
                "bit_accuracy": acc,
            }
        )

    draw()
    for epoch in range(hyper.epochs):
        losses = step(out_ref, triggers.images, step.noise, hyper.lam, hyper.delta_scale)
        works = [partial(finish_epoch, epoch, *losses)]
        if epoch + 1 < hyper.epochs:  # step is done with the noise
            works.append(draw)
        _fork_join(spare, *works)
    return bundle, log


def _draw_noise(rng: np.random.Generator, noise: np.ndarray, sigmas: np.ndarray) -> None:
    """One epoch's (N, K, s) noise draw from rng, written into noise and
    scaled by each trigger's sigma."""
    rng.standard_normal(out=noise)
    noise *= sigmas[:, None, None]


def trigger_stream_seed(seed: int, index: int) -> int:
    """Noise stream seed of trigger `index` in an extraction run: the run
    seed XOR the trigger index, modulo 2**64."""
    return (seed ^ index) & _MASK64


def _build_stego(
    encoder_e: MlpNetwork, triggers: TriggerSet, k_draws: int, seed: int, delta_scale: float,
) -> np.ndarray:
    """Stego inputs for every trigger and draw, (N * K, s), trigger-major.

    Each trigger gets its own encoder pass: a one-row product (K = 1) runs a
    different BLAS kernel than a many-row one, so this keeps a trigger's
    block the same bytes whatever batch it is built in.
    """
    stego = np.empty((len(triggers) * k_draws, triggers.s))
    for index, (image, message, sigma) in enumerate(
        zip(triggers.images, triggers.messages, triggers.sigmas)
    ):
        noisy = sample_noise(image, sigma, k_draws, trigger_stream_seed(seed, index))
        stego[index * k_draws : (index + 1) * k_draws] = noisy + delta_scale * (
            encoder_perturbation(encoder_e, noisy, message)
        )
    return stego


# The one shared stego batch: (run parameters and encoder layout, a copy of
# the encoder's parameter vector, a copy of the trigger set, read-only
# (N * K, s) array).
_stego_memo: tuple[tuple, np.ndarray, TriggerSet, np.ndarray] | None = None


def stego_batch(
    encoder_e: MlpNetwork, triggers: TriggerSet, k_draws: int, seed: int, delta_scale: float,
) -> np.ndarray:
    """The suspect-independent stego inputs of an extraction run, read-only.

    The last batch built stays in memory (N * K * s * 8 bytes, plus copies
    of the encoder and the triggers) and is returned again while encoder
    parameters, the trigger set, K, seed and delta_scale compare equal to
    those it was built from, so every suspect verified against one bundle
    and trigger set shares it. The comparison is by content, never by id():
    optimizer_step updates weights in place.
    """
    global _stego_memo
    run = (k_draws, seed & _MASK64, float(delta_scale), tuple(encoder_e.spec))
    if (
        _stego_memo is None
        or _stego_memo[0] != run
        or not np.array_equal(encoder_e.params, _stego_memo[1])
        or _stego_memo[2] != triggers
    ):
        _stego_memo = None  # free the old batch before building the new one
        stego = _build_stego(encoder_e, triggers, k_draws, seed, delta_scale)
        stego.flags.writeable = False
        _stego_memo = (run, encoder_e.params.copy(), copy.deepcopy(triggers), stego)
    return _stego_memo[3]


def decode_triggers(
    suspect: MlpNetwork, bundle: ModelBundle, triggers: TriggerSet, k_draws: int, seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode K messages per trigger from a suspect backbone in one pass.

    The bundle's encoder and decoder wrap the suspect in place of the
    watermarked backbone. Returns soft bits (N, K, n), hard bits (N, K, n),
    where a soft bit of exactly 0.5 reads as 1, and Hamming distances to each
    trigger's message (N, K). A trigger set whose s or n is not the bundle's
    raises ValueError, and a suspect whose input/output dimensions do not fit
    the bundle raises VerificationRefused, both before any stego work.

    One chain over the whole stego batch of stego_batch: suspect forward,
    decoder forward, hard bits, distances. Each forward of 512 rows or more
    (the desk decode's 1,600) shares its 256-row blocks with forward_batch's
    helpers (_spare), which all join before that forward returns; the rest
    runs in the caller's thread.
    """
    s, n, n_trig = triggers.s, triggers.n, len(triggers)
    if (s, n) != (bundle.s, bundle.n):
        raise ValueError(
            f"trigger set has s = {s}, n = {n}; the bundle needs s = {bundle.s}, n = {bundle.n}"
        )
    if suspect.input_dim != s or suspect.output_dim != bundle.k:
        raise VerificationRefused(
            f"suspect maps {suspect.input_dim} -> {suspect.output_dim}, verifier "
            f"needs {s} -> {bundle.k}"
        )
    stego = stego_batch(bundle.encoder_e, triggers, k_draws, seed, bundle.hyper.delta_scale)
    emb = forward_batch(suspect, stego)[0]
    soft = forward_batch(bundle.decoder_d, emb)[0].reshape(n_trig, k_draws, n)
    hard = (soft >= 0.5).astype(np.int8)
    distances = (hard != triggers.messages[:, None, :]).sum(axis=2, dtype=np.int64)
    return soft, hard, distances


def extract_messages(
    suspect: MlpNetwork, bundle: ModelBundle, triggers: TriggerSet, index: int, k_draws: int,
    stream_seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode K messages from a suspect backbone for trigger `index` of the
    set, with noise draws from stream_seed (modulo 2**64): decode_triggers'
    row for it, as soft bits (K, n), hard bits (K, n) and distances (K,)."""
    index = range(len(triggers))[index]
    soft, hard, distances = decode_triggers(
        suspect, bundle, triggers[index : index + 1], k_draws, stream_seed
    )
    return soft[0], hard[0], distances[0]
