"""Spans around calls into cascadesr's public functions, made from outside.

Each traced function is replaced, in every cascadesr module that holds a
reference to it, by a wrapper that records a span: name, start, end, parent
span and the workload part it ran in. A function imported by name
(`model` and `evaluate` import `conv2d_forward` and `forward`, `cli` imports
`load_model`) is patched under that name too, so every caller is seen.
Spans stay in memory until the run ends. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import Counter

# cascadesr module -> its functions that get a span, named module.function
TRACED = {
    "ops": ["conv2d_forward", "conv2d_forward_cols", "conv2d_backward_from_cols", "relu_backward",
            "mse_loss", "sgd_step"],
    "model": ["forward", "insert_layers", "save_model", "load_model"],
    "training": ["run_epoch"],
    "trimming": ["cascade_trim", "trim_filters"],
    "data": ["build_patches", "degrade", "save_patches", "load_patches", "load_image"],
    "evaluate": ["infer_image", "ssim", "psnr", "benchmark"],
    "synth": ["make_corpus"],
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._nets: list[dict] = []  # id(layer weights) -> layer index, innermost net last
        self.part = ""
        self.paused = False
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        if self.paused:
            yield None
            return
        record = {"name": name, "start": time.perf_counter(), "end": 0.0, "index": len(self.spans),
                  "parent": self._stack[-1] if self._stack else -1, "part": self.part}
        record.update(tags)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _tags(self, name: str, args, kwargs) -> dict:
        """Layer index, depth and multiply count of conv calls; depth of net calls."""
        if name in ("ops.conv2d_forward", "ops.conv2d_forward_cols"):
            x, kernel, pad = args[0], args[1], args[3]
            co, ci, k, _ = kernel.shape
            oh, ow = x.shape[2] + 2 * pad - k + 1, x.shape[3] + 2 * pad - k + 1
            return self._layer_tags(kernel, x.shape[0] * co * ci * k * k * oh * ow)
        if name == "ops.conv2d_backward_from_cols":
            x_shape, kernel, grad_out = args[0], args[1], args[2]
            co, ci, k, _ = kernel.shape
            n, _, oh, ow = grad_out.shape
            mults = n * co * ci * k * k * oh * ow  # kernel gradient
            if kwargs.get("need_grad_input", args[5] if len(args) > 5 else True):
                # the input gradient is a full conv back to the input size
                mults += n * ci * co * k * k * x_shape[2] * x_shape[3]
            return self._layer_tags(kernel, mults)
        if name == "model.forward":
            return {"depth": args[0].depth}
        if name == "training.run_epoch":
            return {"depth": args[0].depth, "batches": -(-len(args[1]) // args[2].batch_size)}
        return {}

    def _layer_tags(self, kernel, mults: int) -> dict:
        tags = {"mults": mults}
        if self._nets and id(kernel) in self._nets[-1]:
            tags["layer"] = self._nets[-1][id(kernel)]
            tags["depth"] = len(self._nets[-1])
        return tags

    def _wrap(self, name: str, fn):
        takes_net = name in ("model.forward", "training.run_epoch")

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if takes_net:
                self._nets.append({id(l.weights): i for i, l in enumerate(args[0].layers)})
            try:
                with self.span(name, **self._tags(name, args, kwargs)) as record:
                    result = fn(*args, **kwargs)
                    if name == "model.save_model":
                        path = args[1]
                        sidecar = (path[:-5] if path.endswith(".ctsr") else path) + ".json"
                        record["bytes"] = os.path.getsize(path) + os.path.getsize(sidecar)
                    return result
            finally:
                if takes_net:
                    self._nets.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every loaded cascadesr module that holds a traced function."""
        for owner in TRACED:
            importlib.import_module(f"cascadesr.{owner}")
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("cascadesr.")}
        for owner, names in TRACED.items():
            for fname in names:
                original = getattr(modules[f"cascadesr.{owner}"], fname)
                wrapper = self._wrap(f"{owner}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def call_counts(self) -> dict:
        return dict(sorted(Counter(s["name"] for s in self.spans).items()))

    def write(self, path: str, extra: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": extra, "call_counts": self.call_counts()}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def per_layer_metrics(tracer: Tracer, startup_s: float) -> dict:
    """The per-layer metrics, each from the workload part that exercises it."""
    spans = tracer.spans
    selfs = tracer.self_times()

    def pick(part, name, **where):
        return [s for s in spans if s["part"] == part and s["name"] == name
                and all(s.get(k) == v for k, v in where.items())]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def mean(ss, unit=1.0):
        return dur(ss) / len(ss) * unit if ss else float("nan")

    def gflops(ss):
        return sum(s["mults"] for s in ss) / dur(ss) / 1e9 if ss else float("nan")

    m = {}
    fwd = [s for s in pick("train-cascade", "ops.conv2d_forward_cols", depth=7) if "layer" in s]
    bwd = [s for s in pick("train-cascade", "ops.conv2d_backward_from_cols", depth=7) if "layer" in s]
    inf = [s for s in pick("infer-large", "ops.conv2d_forward", depth=7) if "layer" in s]
    for i in range(7):
        m[f"ops.train_fwd.l{i}.ms"] = mean([s for s in fwd if s["layer"] == i], 1e3)
        m[f"ops.train_bwd.l{i}.ms"] = mean([s for s in bwd if s["layer"] == i], 1e3)
        m[f"ops.infer_fwd.l{i}.ms"] = mean([s for s in inf if s["layer"] == i], 1e3)
    m["ops.train_fwd.gflops"] = gflops(fwd)
    m["ops.train_bwd.gflops"] = gflops(bwd)
    m["ops.infer_fwd.gflops"] = gflops(inf)
    for f in ("sgd_step", "relu_backward", "mse_loss"):
        m[f"ops.{f}.ms"] = mean(pick("train-cascade", f"ops.{f}"), 1e3)
    # top-level conv calls only: a backward call's count already holds its nested forward
    conv_names = {"ops.conv2d_forward", "ops.conv2d_forward_cols", "ops.conv2d_backward_from_cols"}
    m["ops.conv.multiplies"] = sum(
        s["mults"] for s in spans
        if s["name"] in conv_names and (s["parent"] < 0 or spans[s["parent"]]["name"] not in conv_names)
    )

    epochs = pick("train-cascade", "training.run_epoch")
    for d in (3, 5, 7):
        m[f"training.run_epoch.d{d}.s"] = mean([s for s in epochs if s["depth"] == d])
    epoch_self = sum(selfs[s["index"]] for s in epochs)
    m["training.run_epoch.self_ms_per_batch"] = epoch_self / sum(s["batches"] for s in epochs) * 1e3

    m["model.forward.d7.s"] = mean(pick("infer-large", "model.forward", depth=7))
    m["model.forward.trim13.s"] = mean(pick("infer-large", "model.forward", depth=13))
    m["model.insert_layers.ms"] = mean(pick("train-cascade", "model.insert_layers"), 1e3)
    saves = pick("pipeline-cli", "model.save_model")
    m["model.save_model.ms"] = mean(saves, 1e3)
    m["model.load_model.ms"] = mean(pick("pipeline-cli", "model.load_model"), 1e3)
    m["model.bytes_written"] = sum(s.get("bytes", 0) for s in saves)

    m["trimming.cascade_trim.s"] = mean(pick("pipeline-cli", "trimming.cascade_trim"))
    m["trimming.trim_filters.ms"] = mean(pick("pipeline-cli", "trimming.trim_filters"), 1e3)

    m["data.build_patches.s"] = mean(pick("train-cascade", "data.build_patches"))
    m["data.degrade.ms"] = mean(pick("train-cascade", "data.degrade"), 1e3)
    for f in ("save_patches", "load_patches", "load_image"):
        m[f"data.{f}.ms"] = mean(pick("pipeline-cli", f"data.{f}"), 1e3)

    m["evaluate.infer_image.ms"] = mean(pick("pipeline-cli", "evaluate.infer_image"), 1e3)
    m["evaluate.ssim.ms"] = mean(pick("pipeline-cli", "evaluate.ssim"), 1e3)
    m["evaluate.psnr.ms"] = mean(pick("pipeline-cli", "evaluate.psnr"), 1e3)
    m["evaluate.benchmark.s"] = mean(pick("pipeline-cli", "evaluate.benchmark"))

    for cmd in ("prepare", "train", "trim", "eval"):
        m[f"cli.{cmd}.s"] = mean(pick("pipeline-cli", f"cli.{cmd}"))
    m["cli.startup.s"] = startup_s
    m["synth.make_corpus.s"] = mean(pick("train-cascade", "synth.make_corpus"))
    return m
