"""Desk-scale experiment protocol: small-corpus reruns of the training and
trimming comparisons (cascade vs one-shot training, trimming strategies).

Absolute benchmark numbers need tens of millions of training patches; this
protocol checks the directional claims on a ~2,000-patch synthetic corpus in
minutes. The learning rate is raised to 0.1: the production default of 1e-4
needs orders of magnitude more steps than a desk run can afford. A network
built whole (the 3-layer base of every cascade and trim-train run, and the
one-shot control) starts from sigma=0.001 weights, whose gradients are
proportional to products of near-zero weights, so its escape time scales
inversely with the rate. Layers inserted by cascade growth start as identity
maps and do not need that escape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import evaluate, model, training, trimming
from .data import DatasetManifest, PatchParams, PatchSet, build_patches
from .synth import make_corpus

DESK_PATCH = PatchParams(lr_size=21, stride=12, hr_size=5)
DESK_SCALE = 3  # x3 upscaling leaves more recoverable detail than x2, so depth pays
DESK_LEARNING_RATE = 0.1
DESK_BATCH = 8
DESK_PLATEAU = 0.002
DESK_STAGE_EPOCH_CAP = 20
DESK_FINETUNE_EPOCH_CAP = 10  # per cascade-trim stage; the other arms get 3x in one run
DESK_SEEDS = (1, 2, 3)


def desk_corpus(out_dir: str, corpus_seed: int = 99):
    """Synthetic 20-train / 6-test corpus and its extracted patch set."""
    manifest_path = make_corpus(
        out_dir, n_train=20, n_test=6, image_size=180, seed=corpus_seed, scale=DESK_SCALE, patch=DESK_PATCH
    )
    manifest = DatasetManifest.from_json(manifest_path)
    patches, warnings = build_patches(manifest)
    if warnings:
        raise RuntimeError(f"corpus generation produced warnings: {warnings}")
    return manifest, patches


def desk_train_config(seed: int, target_depth: int = 7, epoch_cap: int | None = None):
    return training.TrainConfig(
        learning_rate=DESK_LEARNING_RATE,
        plateau_threshold=DESK_PLATEAU,
        target_depth=target_depth,
        batch_size=DESK_BATCH,
        max_epochs_per_stage=epoch_cap if epoch_cap is not None else DESK_STAGE_EPOCH_CAP,
        seed=seed,
    )


def heldout_psnr(net, manifest: DatasetManifest) -> float:
    return evaluate.benchmark(net, manifest).mean_psnr


@dataclass
class SeedResult:
    seed: int
    cascade_psnr: dict = field(default_factory=dict)  # depth -> heldout PSNR
    cascade_epochs: dict = field(default_factory=dict)  # depth -> epochs used
    one_shot5_psnr: float = float("nan")
    trim_psnr: dict = field(default_factory=dict)  # method -> heldout PSNR


def run_training_arms(patches: PatchSet, manifest: DatasetManifest, seed: int, workdir: str) -> SeedResult:
    """Cascade to depth 7 (scoring the 3/5/7 checkpoints), then a one-shot
    5-layer control with the same epoch budget the cascade spent through
    depth 5."""
    os.makedirs(workdir, exist_ok=True)
    result = SeedResult(seed=seed)
    stem = os.path.join(workdir, f"casc-s{seed}")
    cfg = desk_train_config(seed)
    net, logs = training.cascade_train(patches, cfg, checkpoint_stem=stem)
    for log in logs:
        checkpoint = model.load_model(f"{stem}-d{log.depth}.ctsr")
        result.cascade_psnr[log.depth] = heldout_psnr(checkpoint, manifest)
        result.cascade_epochs[log.depth] = log.epochs
        print(
            f"  seed {seed} cascade d{log.depth}: {log.epochs} epochs, "
            f"heldout {result.cascade_psnr[log.depth]:.2f} dB"
        )
    budget = result.cascade_epochs[3] + result.cascade_epochs[5]
    os_cfg = desk_train_config(seed, target_depth=5, epoch_cap=budget)
    os_net, os_log = training.one_shot_train(patches, os_cfg)
    result.one_shot5_psnr = heldout_psnr(os_net, manifest)
    print(f"  seed {seed} one-shot d5: {os_log.epochs}/{budget} epochs, heldout {result.one_shot5_psnr:.2f} dB")
    return result


def run_trimming_arms(
    patches: PatchSet, manifest: DatasetManifest, seed: int, workdir: str, result: SeedResult
) -> SeedResult:
    """Three routes to the same slim depth-7 architecture, equal post-parent
    epoch budgets: cascade trim, one-shot trim, trim-train."""
    parent = model.load_model(os.path.join(workdir, f"casc-s{seed}-d7.ctsr"))
    stages = len(trimming.cascade_trim_pairs(parent.depth))
    total_budget = stages * DESK_FINETUNE_EPOCH_CAP

    ft_cfg = desk_train_config(seed, epoch_cap=DESK_FINETUNE_EPOCH_CAP)
    plan = trimming.default_plan(parent.depth, trimming.MODE_CASCADE_TRIM, seed=seed)
    casc_net, casc_logs = trimming.cascade_trim(parent, patches, ft_cfg, plan)
    result.trim_psnr["cascade_trim"] = heldout_psnr(casc_net, manifest)
    print(f"    cascade_trim fine-tune epochs per stage: {[l.epochs for l in casc_logs]}")

    os_cfg = desk_train_config(seed, epoch_cap=total_budget)
    os_plan = trimming.default_plan(parent.depth, trimming.MODE_ONE_SHOT_INDEPENDENT, seed=seed)
    os_net, os_log = trimming.one_shot_trim(parent, os_plan, patches, os_cfg)
    result.trim_psnr["one_shot"] = heldout_psnr(os_net, manifest)
    print(f"    one_shot fine-tune epochs: {os_log.epochs}")

    tt_cfg = desk_train_config(
        seed, target_depth=parent.depth, epoch_cap=total_budget // stages
    )
    tt_net, tt_logs = trimming.trim_train(patches, tt_cfg)
    result.trim_psnr["trim_train"] = heldout_psnr(tt_net, manifest)
    print(f"    trim_train stage epochs: {[l.epochs for l in tt_logs]}")

    if casc_net.filter_counts() != os_net.filter_counts() or casc_net.filter_counts() != tt_net.filter_counts():
        raise RuntimeError("trimming arms disagree on the final architecture")
    print(
        f"  seed {seed} trim: one_shot {result.trim_psnr['one_shot']:.2f}, "
        f"trim_train {result.trim_psnr['trim_train']:.2f}, "
        f"cascade_trim {result.trim_psnr['cascade_trim']:.2f} dB"
    )
    return result


def run_seed(patches: PatchSet, manifest: DatasetManifest, seed: int, workdir: str) -> SeedResult:
    result = run_training_arms(patches, manifest, seed, workdir)
    return run_trimming_arms(patches, manifest, seed, workdir, result)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)
