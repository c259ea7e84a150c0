"""Span tracer that wraps randmark's public functions from outside the package.

The package modules import each other's functions by name
(``from .nnengine import forward_batch``), so a wrapper is installed on every
``randmark`` module that binds the original function object, and restored on
exit. Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _matmul_size(net) -> int:
    return sum(layer.in_dim * layer.out_dim for layer in net.layers)


def _flop_forward(args, kwargs, result):
    rows = result[0].shape[0]
    return {"flop": 2 * rows * _matmul_size(_arg(args, kwargs, 0, "net"))}


def _flop_backward(args, kwargs, result):
    # weight gradient and input gradient: two matmuls per layer
    rows = result.wrt_input.shape[0]
    return {"flop": 4 * rows * _matmul_size(_arg(args, kwargs, 0, "net"))}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _images(args, kwargs, result):
    return {"images": result.shape[0]}


def _population(args, kwargs, result):
    if _arg(args, kwargs, 1, "kind") != "omega":
        return {}
    requested = _arg(args, kwargs, 2, "m_models")
    return {
        "omega_requested": requested,
        "omega_delivered": len(result.models),
        "omega_excluded": result.excluded,
    }


def _bit_accuracy(args, kwargs, result):
    return {"last_bit_accuracy": result[1].final()["bit_accuracy"]}


# (module, attribute, span name, extra-quantity hook). Attributes with a dot
# are methods, patched on their class.
TARGETS = [
    ("nnengine", "forward_batch", "nnengine.forward_batch", _flop_forward),
    ("nnengine", "backward", "nnengine.backward", _flop_backward),
    ("nnengine", "optimizer_step", "nnengine.optimizer_step", None),
    ("nnengine", "save_checkpoint", "nnengine.save_checkpoint", _bytes_written),
    ("nnengine", "load_checkpoint", "nnengine.load_checkpoint", _bytes_read),
    ("nnengine", "l1_unstructured_prune", "nnengine.l1_unstructured_prune", None),
    ("attacks", "make_independent", "attacks.make_independent", None),
    ("attacks", "apply_attack", "attacks.apply_attack", None),
    ("attacks", "sample_model_population", "attacks.sample_model_population", _population),
    ("synth", "gen_synthetic_images", "synth.gen_synthetic_images", _images),
    ("watermark", "extract_messages", "watermark.extract_messages", None),
    ("watermark", "encoder_perturbation", "watermark.encoder_perturbation", None),
    ("watermark", "sample_noise", "watermark.sample_noise", None),
    ("watermark", "embed_watermark", "watermark.embed_watermark", _bit_accuracy),
    ("stats", "VerificationReport.from_batches", "stats.VerificationReport.from_batches", None),
    ("stats", "covariance_delta", "stats.covariance_delta", None),
    ("stats", "sweep_rows", "stats.sweep_rows", None),
    ("bounds", "build_bound_report", "bounds.build_bound_report", None),
    ("bounds", "collision_estimate", "bounds.collision_estimate", None),
    ("bounds", "poisson_binomial_cdf", "bounds.poisson_binomial_cdf", None),
    ("harness", "verify_suspect", "harness.verify_suspect", None),
    ("harness", "population_distances", "harness.population_distances", None),
    ("harness", "compute_bound_report", "harness.compute_bound_report", None),
    ("harness", "run_pipeline", "harness.run_pipeline", None),
]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    operation id and self time (duration minus time covered by children)."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, op, start, end, parent, self_s)
        self.extras: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = "setup"
        self._stack: list[list] = []  # [span index, child seconds]
        self._active = False
        self._patches: list[tuple] = []

    def _wrap(self, name, func, hook):
        def traced(*args, **kwargs):
            if not self._active:
                return func(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (name, self.op, start, end, parent, duration - frame[1])
            if hook is not None:
                # a "last_" quantity keeps its latest value; the others are summed
                for key, value in hook(args, kwargs, result).items():
                    if key.startswith("last_"):
                        self.extras[name][key] = value
                    else:
                        self.extras[name][key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Record spans while inside the block; outside it the package runs
        its own, unwrapped functions."""
        self._install()
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            self._uninstall()

    @contextmanager
    def paused(self):
        """Run output checks without recording their library calls."""
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active

    def _install(self):
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "randmark" or name.startswith("randmark.")
        ]
        for module_name, attribute, name, hook in TARGETS:
            owner = sys.modules[f"randmark.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self._wrap(name, original.__func__, hook)))
                self._patches.append((cls, method, original))
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patches.append((module, key, original))

    def _uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for name, _, start, end, _, self_s in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: one header line, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, op, start, end, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "op": op, "start": start,
                    "end": end, "parent": parent, "self_s": self_s,
                }) + "\n")
