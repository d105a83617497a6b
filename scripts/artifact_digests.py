#!/usr/bin/env python3
"""Write a fixed-seed set of trained and trimmed artifacts and inference
outputs, and print their sha256.

    PYTHONPATH=src python scripts/artifact_digests.py OUT_DIR

Trains and trims on a small synthetic corpus with fixed seeds and writes 28
files under OUT_DIR: the patch cache (.ctpd); the cascade d3/d5/d7, one-shot
d5 and trim-train d3/d5/d7 checkpoints; every stage of trimming.trim in
its cascade and one-shot modes, each with and without fine-tuning; and the
outputs of the CLI commands prepare, train (modes cascade, one_shot and
trim_train) and trim (cascade). The CLI configs name the x3 corpus manifest
and no top-level scale, so the CLI models take the manifest's scale. Beside
them it writes
20 inference outputs as .npy: model.forward of a He-scaled d7 and a
cascade-trimmed He-scaled d13 at batch 1 and 2, on a 512-px input, a tall
narrow one (13,146 x 20) and a short wide one (48 x 2,100) that crosses
many of forward's row chunks, and the float64 conv2d_forward and
conv2d_backward results at pad 0 and pad 1, and
2 eval outputs as .npy: the (PSNR, SSIM) of each test image from
evaluate.benchmark of the CLI-trained cascade model and of the bicubic
baseline. It also digests the JSON sidecar (layer specs and stage history)
that each of the 26 .ctsr models has, so 76 files in all. It prints
"sha256  name" per file, then the sha256 of that sorted list.

Run it at two commits to show that a change keeps every artifact
byte-identical. The digests depend on the numpy/BLAS build and the BLAS
thread count, so compare runs made on one machine with one setting.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
from dataclasses import replace

import numpy as np

from cascadesr import cli, data, evaluate, model, ops, synth, training, trimming

SEED = 5
CORPUS = dict(n_train=3, n_test=1, image_size=96, seed=11, scale=3, patch=data.PatchParams(21, 12, 5))
TRAIN = dict(learning_rate=0.05, plateau_threshold=0.03, batch_size=8, max_epochs_per_stage=2, seed=SEED)


def library_artifacts(out: str, patches: data.PatchSet):
    cfg = training.TrainConfig(target_depth=7, **TRAIN)
    d7, _ = training.train(patches, cfg, checkpoint_stem=f"{out}/cascade")
    training.train(patches, training.TrainConfig(target_depth=5, mode="one_shot", **TRAIN),
                   checkpoint_stem=f"{out}/one_shot")
    training.train(patches, replace(cfg, mode="trim_train"), checkpoint_stem=f"{out}/trim_train")
    for tuned, fine, fine_cfg in (("", None, None), ("_ft", patches, cfg)):
        trimming.trim(d7, fine, fine_cfg, trimming.TrimPlan(7, trimming.MODE_CASCADE_TRIM, seed=SEED),
                      checkpoint_stem=f"{out}/cascade_trim{tuned}")
        trimming.trim(d7, fine, fine_cfg, trimming.TrimPlan(7, trimming.MODE_ONE_SHOT_INDEPENDENT),
                      checkpoint_stem=f"{out}/{trimming.MODE_ONE_SHOT_INDEPENDENT}{tuned}")


def cli_artifacts(out: str, manifest: str):
    # one config per train mode, in a subdirectory so that they are not digested
    configs = os.path.join(out, "cli")
    os.makedirs(configs)
    for mode in ("cascade", "one_shot", "trim_train"):
        with open(os.path.join(configs, f"{mode}.json"), "w") as fh:
            json.dump({"seed": SEED, "manifest": manifest, "patches": f"{out}/cli_prepare.ctpd",
                       "train": {"mode": mode, "target_depth": 5,
                                 **{k: v for k, v in TRAIN.items() if k != "seed"}}}, fh)
    commands = [
        ("cascade", ["prepare"]),
        ("cascade", ["train", "--out", f"{out}/cli_train.ctsr"]),
        ("one_shot", ["train", "--out", f"{out}/cli_one_shot.ctsr"]),
        ("trim_train", ["train", "--out", f"{out}/cli_trim_train.ctsr"]),
        ("cascade", ["trim", "--model", f"{out}/cli_train.ctsr", "--out", f"{out}/cli_cascade_trim.ctsr"]),
    ]
    for mode, argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--config", os.path.join(configs, f"{mode}.json")])
        if code != 0:
            raise SystemExit(f"cascadesr {' '.join(argv)} exited {code}")


def eval_outputs(out: str, manifest: str):
    test_set = data.DatasetManifest.from_json(manifest)
    for name, net in (("cli_train", model.load_model(f"{out}/cli_train.ctsr")), ("bicubic", None)):
        report = evaluate.benchmark(net, test_set)
        np.save(f"{out}/eval_{name}.npy", np.array([(r.psnr_db, r.ssim) for r in report.rows]))


def he_scaled(net: model.NetworkModel, gen: np.random.Generator) -> model.NetworkModel:
    """Fan-in-scaled weights keep activations near unit scale, as in a trained net."""
    for layer in net.layers:
        layer.weights[:] = gen.standard_normal(layer.weights.shape, np.float32) * np.sqrt(2 / layer.weights[0].size)
        layer.bias[:] = gen.standard_normal(layer.bias.shape, np.float32) * 0.05
    return net


def inference_outputs(out: str):
    gen = np.random.default_rng(SEED)
    d7 = he_scaled(model.build_network(7, ops.RngState(SEED)), gen)
    d13 = he_scaled(model.build_network(13, ops.RngState(SEED)), gen)
    trim13, _ = trimming.trim(d13, None, None, trimming.TrimPlan(13, trimming.MODE_CASCADE_TRIM, seed=SEED))
    # fixed shapes, so the inputs do not depend on model.BAND_BUDGET; the wide
    # input has its own generator, so adding it moved no other draw
    inputs = {"square": gen.random((2, 1, 512, 512), np.float32),
              "tall": gen.random((2, 1, 13_146, 20), np.float32),
              "wide": np.random.default_rng(SEED + 1).random((2, 1, 48, 2_100), np.float32)}
    for net_name, net in (("d7", d7), ("trim13", trim13)):
        for input_name, x in inputs.items():
            for batch in (1, 2):
                np.save(f"{out}/forward_{net_name}_{input_name}_b{batch}.npy", model.forward(net, x[:batch]))
    x = gen.uniform(-1, 1, (2, 16, 200, 40))  # 16 channels: conv2d_forward's one-product-per-kernel-row form
    kernel, bias = gen.uniform(-1, 1, (8, 16, 5, 5)), gen.uniform(-1, 1, 8)
    for pad in (0, 1):
        y = ops.conv2d_forward(x, kernel, bias, pad)
        np.save(f"{out}/conv64_forward_pad{pad}.npy", y)
        grads = ops.conv2d_backward(x, kernel, gen.uniform(-1, 1, y.shape), pad)
        for name, g in zip(("input", "kernel", "bias"), grads):
            np.save(f"{out}/conv64_backward_pad{pad}_{name}.npy", g)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir", help="new or empty directory for the artifacts")
    out = parser.parse_args().out_dir
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        raise SystemExit(f"{out} is not empty")
    manifest = synth.make_corpus(os.path.join(out, "corpus"), **CORPUS)
    patches, _ = data.build_patches(data.DatasetManifest.from_json(manifest), role="train")
    data.save_patches(patches, f"{out}/patches.ctpd")
    library_artifacts(out, patches)
    cli_artifacts(out, manifest)
    eval_outputs(out, manifest)
    inference_outputs(out)

    # every artifact and model sidecar; the corpus and the CLI configs are in subdirectories
    names = sorted(f for f in os.listdir(out) if f.endswith((".ctsr", ".ctpd", ".npy", ".json")))
    lines = []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    print("\n".join(lines))
    print(f"{len(names)} files, sha256 of the list: {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")


if __name__ == "__main__":
    main()
