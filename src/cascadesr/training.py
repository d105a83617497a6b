"""Staged (cascade) and single-phase training loops.

Cascade training starts from the 3-layer base, trains until the per-epoch
loss improvement falls under the plateau threshold, inserts two
identity-initialized 3x3 layers before the last one (see
model.insert_layers), and repeats until the target depth. The learning
rate is one fixed constant for every step of every stage.

Seed discipline: every random draw is derived from the master seed through
namespaced child streams, so a run is reproducible byte-for-byte:
  (1, stage)        weight init (stage 0 = base/full build, else insertion)
  (2, stage, epoch) per-epoch shuffle order
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import ops
from .data import PatchSet
from .model import ACT_RELU, NetworkModel, StageLog, build_network, insert_layers, param_count, save_model


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    plateau_threshold: float = 0.03
    target_depth: int = 3
    batch_size: int = 64
    max_epochs_per_stage: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.plateau_threshold < 1):
            raise ValueError(f"plateau_threshold must be in (0, 1), got {self.plateau_threshold}")
        if self.target_depth < 3 or self.target_depth % 2 == 0:
            raise ValueError(f"target_depth must be odd and >= 3, got {self.target_depth}")
        # learning_rate 0 is allowed as an evaluation-only pass
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.max_epochs_per_stage < 0:
            raise ValueError("batch_size >= 1 and max_epochs_per_stage >= 0 required")


class NonFiniteLossError(ValueError):
    """An epoch's mean loss is NaN or infinite: the run diverged."""


def plateau_reached(prev_loss: float, curr_loss: float, threshold: float) -> bool:
    """True when the relative loss drop is below threshold (or loss rose)."""
    if prev_loss <= 0:
        raise ValueError(f"prev_loss must be > 0, got {prev_loss}")
    return (prev_loss - curr_loss) / prev_loss < threshold


def _workspaces(net: NetworkModel):
    """One workspace per layer for what the tape keeps (padded input, columns,
    pre- and post-activation), and one that every layer's backward pass
    shares in turn."""
    return [ops.Workspace() for _ in net.layers], ops.Workspace()


def _forward_tape(net: NetworkModel, x: np.ndarray, layer_ws):
    """Forward pass keeping pre-activations and unfolded columns per layer.

    Accumulates in the storage dtype (float32): the SGD path trades
    conv2d_forward's 64-bit accumulation for speed; determinism is unaffected.
    """
    tape = []
    h = x
    for layer, ws in zip(net.layers, layer_ws):
        pre, cols = ops.conv2d_forward_cols(h, layer.weights, layer.bias, layer.spec.pad, ws=ws)
        post = pre
        if layer.spec.activation == ACT_RELU:
            post = np.maximum(pre, 0, out=ws.array("post", pre.shape, pre.dtype))
        tape.append((h.shape, cols, pre))
        h = post
    return h, tape


def _train_batch(net: NetworkModel, x: np.ndarray, y: np.ndarray, lr: float, ws) -> float:
    """One SGD step on a batch; ws is _workspaces(net), reused from batch to batch."""
    layer_ws, backward_ws = ws
    pred, tape = _forward_tape(net, x, layer_ws)
    loss, grad = ops.mse_loss(pred, y)
    if lr == 0:
        return loss
    for index in reversed(range(len(net.layers))):
        layer = net.layers[index]
        x_shape, cols, pre = tape[index]
        if layer.spec.activation == ACT_RELU:
            grad = ops.relu_backward(pre, grad, out=grad)
        grad, grad_w, grad_b = ops.conv2d_backward_from_cols(
            x_shape, layer.weights, grad, layer.spec.pad, cols, need_grad_input=index > 0, ws=backward_ws
        )
        ops.sgd_step([layer.weights, layer.bias], [grad_w, grad_b], lr)
    return loss


def run_epoch(
    net: NetworkModel, patches: PatchSet, cfg: TrainConfig, epoch: int = 0, stage: int = 0
):
    """One full pass over the patches in a seed-determined shuffled order.

    Returns (net, mean per-element training loss over the epoch). The epoch
    and stage indices select the shuffle sub-stream so that repeated runs
    reproduce exactly while successive epochs see different orders. The
    column and gradient arrays are made in the first batch and reused by
    the rest of the epoch, which gives the same weights as fresh arrays.
    """
    n = patches.lr.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty patch set (0 patch pairs)")
    order = ops.RngState(cfg.seed).child(2, stage, epoch).permutation(n)
    ws = _workspaces(net)
    total = 0.0
    for start in range(0, n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        loss = _train_batch(net, patches.lr[idx], patches.hr[idx], cfg.learning_rate, ws)
        total += loss * len(idx)
    return net, total / n


def _train_stage(net, patches, cfg, stage, log_writer=None):
    """Train until the plateau rule or the epoch cap ends the stage.

    A previous-epoch loss of 0 is a perfect fit and ends the stage as a
    plateau; a non-finite epoch loss raises NonFiniteLossError.
    """
    log = StageLog(depth=net.depth)
    for epoch in range(cfg.max_epochs_per_stage):
        t0 = time.perf_counter()
        net, loss = run_epoch(net, patches, cfg, epoch=epoch, stage=stage)
        seconds = time.perf_counter() - t0
        log.losses.append(loss)
        if log_writer is not None:
            log_writer.writerow([stage, net.depth, epoch, f"{loss:.8e}", f"{seconds:.3f}"])
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"non-finite loss {loss} at depth {net.depth}, stage {stage}, epoch {epoch}")
        if epoch >= 1 and (log.losses[-2] == 0 or plateau_reached(log.losses[-2], loss, cfg.plateau_threshold)):
            log.terminated_by = "plateau"
            break
    log.param_count_after = param_count(net)
    return net, log


class _TrainLogger:
    def __init__(self, log_dir):
        self.fh = None
        self.writer = None
        if log_dir is not None:
            os.makedirs(log_dir, exist_ok=True)
            self.fh = open(os.path.join(log_dir, "train_log.csv"), "w", newline="")
            self.writer = csv.writer(self.fh)
            self.writer.writerow(["stage_index", "depth", "epoch", "mean_loss", "wall_seconds"])

    def close(self):
        if self.fh is not None:
            self.fh.close()


def _grow(net, rng, patches, cfg, log_dir, checkpoint_stem):
    """Train stage after stage, inserting layers between stages, until
    cfg.target_depth; log and checkpoint every stage."""
    logger = _TrainLogger(log_dir)
    try:
        stage = 0
        while True:
            net, log = _train_stage(net, patches, cfg, stage, logger.writer)
            net.stage_history.append(log)
            if checkpoint_stem is not None:
                save_model(net, f"{checkpoint_stem}-d{net.depth}.ctsr")
            if net.depth >= cfg.target_depth:
                break
            stage += 1
            net = insert_layers(net, rng.child(1, stage))
    finally:
        logger.close()
    return net, list(net.stage_history)


def cascade_train(
    patches: PatchSet,
    cfg: TrainConfig,
    log_dir: str | None = None,
    checkpoint_stem: str | None = None,
    scale: int = 2,
    first_filters: int = 64,
    mid_filters: int = 32,
):
    """Grow from 3 layers to cfg.target_depth, training each stage to plateau.

    Returns (net, stage logs). Writes a per-stage CSV log and a model
    checkpoint at every stage boundary when the optional paths are given.
    """
    rng = ops.RngState(cfg.seed)
    net = build_network(3, rng.child(1, 0), scale=scale, first_filters=first_filters, mid_filters=mid_filters)
    return _grow(net, rng, patches, cfg, log_dir, checkpoint_stem)


def one_shot_train(
    patches: PatchSet,
    cfg: TrainConfig,
    log_dir: str | None = None,
    checkpoint_stem: str | None = None,
    scale: int = 2,
):
    """Control arm: build cfg.target_depth at once and train a single stage.

    Returns (net, the stage's log).
    """
    rng = ops.RngState(cfg.seed)
    net = build_network(cfg.target_depth, rng.child(1, 0), scale=scale)
    net, logs = _grow(net, rng, patches, cfg, log_dir, checkpoint_stem)
    return net, logs[0]
