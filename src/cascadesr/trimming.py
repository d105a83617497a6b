"""Structured filter removal: importance scoring, surgery, and `trim`, one
stage loop for both trimming schedules (trim-train, the slim net grown from
scratch, is training.train's trim_train mode).

Removing output filter j from layer i deletes its kernel slab and bias and
the matching input-channel slices of layer i+1, so both layers get cheaper.
Both schedules remove each trimmed layer's lowest-importance filters, scored
on the network as the stage begins; TrimPlan.mode picks only the stages.
One-shot trimming trims every layer in one stage; cascade trimming trims two
adjacent layers per stage, starting from the deepest trimmable pair (the
single-filter output layer is never trimmed). Every stage fine-tunes the
whole network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import PatchSet
from .model import Layer, NetworkModel, StageLog, clone, param_count, save_model
from .training import TrainConfig, _train_stage

MODES = ["cascade", "one_shot_independent"]
MODE_CASCADE_TRIM, MODE_ONE_SHOT_INDEPENDENT = MODES

# fine-tune epochs draw shuffles from stage keys offset far above training stages
FINETUNE_STAGE_BASE = 1000


@dataclass
class TrimPlan:
    """Trim floor(rate * n_i) of the n_i filters of each layer a stage trims, in mode's stages."""

    mode: str = MODE_CASCADE_TRIM
    rate: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"trim mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.rate < 1:
            raise ValueError(f"trim rate must lie in [0, 1), got {self.rate}")


def default_plan(depth: int, mode: str, seed: int = 0) -> TrimPlan:  # perfbench's older call; depth and seed unread
    return TrimPlan(mode)


def importance_scores(net: NetworkModel, layer_index: int) -> np.ndarray:
    """Per-filter importance for one layer: the square sum of each filter's
    weights as they stand (Li et al., arXiv:1608.08710), in float64."""
    if not 0 <= layer_index < net.depth:
        raise IndexError(f"layer index {layer_index} out of range for depth {net.depth}")
    return np.sum(net.layers[layer_index].weights.astype(np.float64) ** 2, axis=(1, 2, 3))


def trim_filters(net: NetworkModel, layer_index: int, filter_indices) -> NetworkModel:
    """Remove the named output filters from a layer and the matching input
    slices from the next layer. Returns a new model; the input is untouched."""
    if not 0 <= layer_index < net.depth - 1:
        raise IndexError(f"layer {layer_index} not trimmable (depth {net.depth}; last layer untouchable)")
    indices = sorted(set(int(i) for i in filter_indices))
    out = clone(net)
    if not indices:
        return out
    layer = out.layers[layer_index]
    n = layer.spec.out_filters
    if indices[0] < 0 or indices[-1] >= n:
        raise IndexError(f"filter indices {indices} out of range for {n} filters")
    if len(indices) >= n:
        raise ValueError(f"cannot remove all {n} filters of layer {layer_index}")
    nxt = out.layers[layer_index + 1]
    out.layers[layer_index] = Layer(
        replace(layer.spec, out_filters=n - len(indices)),
        np.delete(layer.weights, indices, axis=0),
        np.delete(layer.bias, indices),
    )
    out.layers[layer_index + 1] = Layer(
        replace(nxt.spec, in_channels=n - len(indices)),
        np.ascontiguousarray(np.delete(nxt.weights, indices, axis=1)),
        nxt.bias,
    )
    return out.validate()


def cascade_trim_pairs(depth: int) -> list[tuple[int, int]]:
    """Stage-ordered trimmed layer pairs, deepest first (0-based indices)."""
    return [(hi - 1, hi) for hi in range(depth - 2, 0, -2)]


def trim(
    net: NetworkModel,
    patches: PatchSet | None,
    cfg: TrainConfig | None,
    plan: TrimPlan,
    checkpoint_stem: str | None = None,
):
    """Trim the network in plan.mode's stages, fine-tuning between them.

    One-shot is one stage over layers 0..depth-2; cascade runs the
    cascade_trim_pairs stages. Stage n (from 1) scores every layer i it
    trims on the network as the stage began, removes its floor(plan.rate *
    n_i) lowest-importance filters, ties broken toward the lower filter
    index, then fine-tunes the whole network to plateau when patches and cfg
    are given (both or neither), appends the stage's log to the network's
    stage_history after the training stages, and writes the -trimS{n}
    checkpoint. Returns (net, stage logs).
    """
    if (patches is None) != (cfg is None):
        raise ValueError("fine-tuning needs both patches and cfg; give neither to trim without fine-tuning")
    stages = [range(net.depth - 1)] if plan.mode == MODE_ONE_SHOT_INDEPENDENT else cascade_trim_pairs(net.depth)
    current = clone(net)
    logs = []
    for stage, layers in enumerate(stages):
        # every layer of the stage is ranked before any of the stage's surgery
        ranked = {i: np.argsort(importance_scores(current, i), kind="stable") for i in layers}
        counts = {i: math.floor(plan.rate * len(r)) for i, r in ranked.items()}
        removed = {i: sorted(ranked[i][:count].tolist()) for i, count in counts.items() if count}
        for i, victims in removed.items():
            current = trim_filters(current, i, victims)
        if cfg is None:
            log = StageLog(depth=current.depth)
        else:
            current, log = _train_stage(current, patches, cfg, FINETUNE_STAGE_BASE + stage)
        log.removed_filters = removed
        log.param_count_after = param_count(current)
        logs.append(log)
        current.stage_history.append(log)
        if checkpoint_stem is not None:
            save_model(current, f"{checkpoint_stem}-trimS{stage + 1}.ctsr")
    return current, logs


cascade_trim = trim  # the older name, which perfbench calls and traces
