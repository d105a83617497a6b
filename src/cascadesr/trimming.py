"""Structured filter removal: importance scoring, surgery, and the one-shot /
cascade / trim-train pipelines.

Removing output filter j from layer i deletes its kernel slab and bias and
the matching input-channel slices of layer i+1, so both layers get cheaper.
One-shot trimming removes the lowest-importance filters from every layer at
once and fine-tunes; cascade trimming removes a random half from two adjacent
layers per stage, fine-tuning the whole network between stages, starting from
the deepest trimmable pair (the single-filter output layer is never trimmed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PatchSet
from .model import Layer, LayerSpec, NetworkModel, StageLog, clone, param_count, save_model
from .ops import RngState
from .training import TrainConfig, _train_stage, cascade_train

MODE_ONE_SHOT_INDEPENDENT = "one_shot_independent"
MODE_CASCADE_TRIM = "cascade"

# fine-tune epochs draw shuffles from stage keys offset far above training stages
FINETUNE_STAGE_BASE = 1000


@dataclass
class TrimPlan:
    rates: list[float]
    mode: str = MODE_ONE_SHOT_INDEPENDENT
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_ONE_SHOT_INDEPENDENT, MODE_CASCADE_TRIM):
            raise ValueError(f"unknown trim mode {self.mode!r}")
        if any(not (0 <= r < 1) for r in self.rates):
            raise ValueError(f"trim rates must lie in [0, 1), got {self.rates}")
        if self.rates and self.rates[-1] != 0:
            raise ValueError("the final layer's trim rate must be 0 (single output filter)")


def default_plan(depth: int, mode: str, rate: float = 0.5, seed: int = 0) -> TrimPlan:
    """Uniform-rate plan over all trimmable layers (last layer pinned to 0)."""
    return TrimPlan(rates=[rate] * (depth - 1) + [0.0], mode=mode, seed=seed)


def filter_importance(weights: np.ndarray) -> float:
    """Relative importance of one filter: the square sum of its weights."""
    if weights.size == 0:
        raise ValueError("empty weight set")
    return float(np.sum(weights.astype(np.float64) ** 2))


def importance_scores(net: NetworkModel, layer_index: int) -> np.ndarray:
    """Per-filter importance for one layer, scoring the kernels as they stand
    (Li et al., arXiv:1608.08710)."""
    if not 0 <= layer_index < net.depth:
        raise IndexError(f"layer index {layer_index} out of range for depth {net.depth}")
    w = net.layers[layer_index].weights
    return np.array([filter_importance(w[j]) for j in range(w.shape[0])])


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
    keep = [j for j in range(n) if j not in set(indices)]
    spec = layer.spec
    out.layers[layer_index] = Layer(
        LayerSpec(spec.kernel_size, spec.in_channels, len(keep), spec.pad, spec.activation),
        np.ascontiguousarray(layer.weights[keep]),
        np.ascontiguousarray(layer.bias[keep]),
    )
    nxt = out.layers[layer_index + 1]
    nspec = nxt.spec
    out.layers[layer_index + 1] = Layer(
        LayerSpec(nspec.kernel_size, len(keep), nspec.out_filters, nspec.pad, nspec.activation),
        np.ascontiguousarray(nxt.weights[:, keep]),
        nxt.bias.copy(),
    )
    return out.validate()


def _trim_stages(net, plan, stages, choose, patches, cfg, checkpoint_stem):
    """Stage loop shared by one-shot and cascade trimming.

    Stage n (from 1) removes floor(rate_i * n_i) filters, picked by
    choose(current, stage, i, count), from each layer i of stages[n - 1], then
    fine-tunes the whole network to plateau when patches and cfg are given,
    appends the stage's log to the network's stage_history after the
    training stages, and writes the -trimS{n} checkpoint.
    """
    if len(plan.rates) != net.depth:
        raise ValueError(f"plan has {len(plan.rates)} rates for depth {net.depth}")
    current = clone(net)
    logs = []
    for stage, layers in enumerate(stages):
        removed: dict[int, list[int]] = {}
        for i in layers:
            count = math.floor(plan.rates[i] * current.layers[i].spec.out_filters)
            if count == 0:
                continue
            victims = choose(current, stage, i, count)
            current = trim_filters(current, i, victims)
            removed[i] = victims
        if patches is None or cfg is None:
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


def one_shot_trim(
    net: NetworkModel,
    plan: TrimPlan,
    patches: PatchSet | None = None,
    cfg: TrainConfig | None = None,
    checkpoint_stem: str | None = None,
):
    """Trim every layer at once by importance score, then fine-tune.

    Filter counts come from the original layer widths: floor(rate_i * n_i)
    lowest-scoring filters go, ties broken toward the lower filter index,
    every layer scored on the untrimmed network. Returns (net, the one
    stage's log).
    """
    if plan.mode != MODE_ONE_SHOT_INDEPENDENT:
        raise ValueError(f"one_shot_trim needs a one-shot plan, got mode {plan.mode!r}")

    def lowest_importance(current, stage, i, count):
        scores = importance_scores(net, i)
        return sorted(np.argsort(scores, kind="stable")[:count].tolist())

    stages = [range(net.depth - 1)]
    current, logs = _trim_stages(net, plan, stages, lowest_importance, patches, cfg, checkpoint_stem)
    return current, logs[0]


def cascade_trim_pairs(depth: int) -> list[tuple[int, int]]:
    """Stage-ordered trimmed layer pairs, deepest first (0-based indices)."""
    pairs = []
    hi = depth - 2
    while hi >= 1:
        pairs.append((hi - 1, hi))
        hi -= 2
    return pairs


def cascade_trim(
    net: NetworkModel,
    patches: PatchSet | None,
    cfg: TrainConfig | None,
    plan: TrimPlan,
    checkpoint_stem: str | None = None,
):
    """Stagewise trimming: random half of two adjacent layers per stage,
    whole-network fine-tune to plateau between stages."""
    if plan.mode != MODE_CASCADE_TRIM:
        raise ValueError(f"cascade_trim needs a cascade plan, got mode {plan.mode!r}")
    rng = RngState(plan.seed)

    def seeded_random(current, stage, i, count):
        n = current.layers[i].spec.out_filters
        return sorted(rng.child(3, stage, i).choice(n, size=count, replace=False).tolist())

    stages = cascade_trim_pairs(net.depth)
    return _trim_stages(net, plan, stages, seeded_random, patches, cfg, checkpoint_stem)


def trim_train(
    patches: PatchSet,
    cfg: TrainConfig,
    log_dir: str | None = None,
    checkpoint_stem: str | None = None,
    scale: int = 2,
):
    """Slim-first alternative: cascade-train the halved architecture
    (32-16-...-16-1 filters) from scratch to the target depth."""
    return cascade_train(
        patches,
        cfg,
        log_dir=log_dir,
        checkpoint_stem=checkpoint_stem,
        scale=scale,
        first_filters=32,
        mid_filters=16,
    )
