"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

The desk-scale comparisons (criteria 5-7) share one session-scoped fixture
that runs every arm of DESK_ARMS through the cascadesr command line for three
seeds, the seeds at the same time; expect it to take about ten minutes on two
cores. Its run directories stay under pytest's basetemp (--basetemp places
them) with each run's models, sidecars, train_log.csv and eval reports.
Criterion 4 needs the five standard benchmark images supplied by the user
(CASCADESR_SET5_DIR or ./data/set5, 8-bit grayscale PGM) and is skipped with
instructions when they are absent.
"""

import glob
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from cascadesr import cli, data, evaluate, model, ops, training, trimming
from cascadesr.synth import make_corpus
from conftest import central_differences, relative_error

TABLE1 = [57_184, 75_616, 94_048, 112_480, 130_912, 149_344, 167_776, 186_208, 204_640]
TABLE4_S1_S4 = [137_424, 123_600, 109_776, 95_952]


def report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def mean(values: list) -> float:
    return sum(values) / len(values)


def cascadesr(config: dict, config_path, *commands, **env):
    """Write config to config_path, then run each cascadesr argv with it, in
    turn, each in a fresh process whose working directory is config_path's
    directory and whose environment adds env. Returns the finished processes."""
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in sys.path), **env)
    done = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "cascadesr.cli", *argv, "--config", str(config_path)],
            cwd=config_path.parent, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"cascadesr {' '.join(argv)} failed:\n{proc.stderr}"
        done.append(proc)
    return done


def seed_detail(bicubic: float, arms: dict) -> str:
    """Report-only noise detail for a mean ordering over seeds: each arm's
    per-seed values and its mean's margin over bicubic, then for each step
    between neighbouring arms the per-seed paired margins and how many seeds
    order the two arms as their means do."""
    parts = [
        f"{name} per seed {'/'.join(f'{v:.2f}' for v in vals)} ({mean(vals) - bicubic:+.2f} vs bicubic)"
        for name, vals in arms.items()
    ]
    names = list(arms)
    for lo, hi in zip(names, names[1:]):
        margins = [h - l for l, h in zip(arms[lo], arms[hi])]
        agree = sum((m >= 0) == (mean(margins) >= 0) for m in margins)
        parts.append(
            f"{hi} - {lo} per seed {'/'.join(f'{m:+.2f}' for m in margins)}, "
            f"{agree}/{len(margins)} seeds agree with the means"
        )
    return f"; bicubic {bicubic:.2f} dB; " + "; ".join(parts)


class TestCriterion1ParamCounts:
    def test_param_count_regression(self):
        built = [model.param_count(model.build_network(d, ops.RngState(0))) for d in range(3, 21, 2)]
        net = model.build_network(3, ops.RngState(1))
        grown = [model.param_count(net)]
        for _ in range(8):
            net = model.insert_layers(net, ops.RngState(2))
            grown.append(model.param_count(net))
        net13 = model.build_network(13, ops.RngState(3))
        plan = trimming.TrimPlan(trimming.MODE_CASCADE_TRIM)
        _, logs = trimming.trim(net13, None, None, plan)
        trim_counts = [log.param_count_after for log in logs[:4]]
        ok = built == TABLE1 and grown == TABLE1 and trim_counts == TABLE4_S1_S4
        report(
            "1 param-count regression",
            ok,
            f"depths 3-19 {built} == reference; cascade-trim stages 1-4 {trim_counts} == reference",
        )
        assert built == TABLE1
        assert grown == TABLE1
        assert trim_counts == TABLE4_S1_S4


class TestCriterion2Gradients:
    def test_100_random_configs(self):
        worst = 0.0
        r = np.random.default_rng(2024)
        for _ in range(100):
            ci, co = int(r.integers(1, 4)), int(r.integers(1, 4))
            k = int(r.choice([1, 3, 5]))
            pad = int(r.integers(0, 2)) if k == 3 else 0
            hw = int(r.integers(k, k + 3))
            x = r.uniform(-1, 1, (1, ci, hw, hw))
            kern = r.uniform(-1, 1, (co, ci, k, k))
            bias = r.uniform(-1, 1, co)
            oh = hw + 2 * pad - k + 1
            proj = r.uniform(-1, 1, (1, co, oh, oh))

            def conv_loss():
                return float(np.sum(ops.conv2d_forward(x, kern, bias, pad) * proj))

            gi, gk, gb = ops.conv2d_backward(x, kern, proj, pad)
            worst = max(worst, relative_error(gi, central_differences(conv_loss, x)))
            worst = max(worst, relative_error(gk, central_differences(conv_loss, kern)))
            worst = max(worst, relative_error(gb, central_differences(conv_loss, bias)))

            pred = r.uniform(-1, 1, (1, 1, 4, 4))
            target = r.uniform(-1, 1, (1, 1, 4, 4))

            def mse_value():
                return ops.mse_loss(pred, target)[0]

            _, grad = ops.mse_loss(pred, target)
            worst = max(worst, relative_error(grad, central_differences(mse_value, pred)))
        report("2 gradient correctness", worst < 1e-4, f"worst relative error {worst:.2e} over 100 configs")
        assert worst < 1e-4


class TestCriterion3TrimEquivalence:
    def test_50_random_masking_checks(self):
        r = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            depth = int(r.choice([3, 5, 7]))
            net = model.build_network(depth, ops.RngState(int(r.integers(1 << 30))))
            for layer in net.layers:
                layer.weights[:] = r.standard_normal(layer.weights.shape).astype(np.float32) * 0.2
                layer.bias[:] = r.standard_normal(layer.bias.shape).astype(np.float32) * 0.05
            layer_index = int(r.integers(0, depth - 1))
            n = net.layers[layer_index].spec.out_filters
            count = int(r.integers(1, n))
            victims = sorted(r.choice(n, size=count, replace=False).tolist())
            trimmed = trimming.trim_filters(net, layer_index, victims)
            masked = model.clone(net)
            masked.layers[layer_index].weights[victims] = 0
            masked.layers[layer_index].bias[victims] = 0
            x = r.random((1, 1, 25, 25), dtype=np.float32)
            diff = np.abs(model.forward(trimmed, x) - model.forward(masked, x)).max()
            worst = max(worst, float(diff))
        report("3 trim-surgery equivalence", worst < 1e-6, f"worst forward deviation {worst:.2e} over 50 nets")
        assert worst < 1e-6


def _set5_manifest():
    root = os.environ.get("CASCADESR_SET5_DIR", os.path.join("data", "set5"))
    paths = sorted(glob.glob(os.path.join(root, "*.pgm")))
    if len(paths) != 5:
        pytest.skip(
            f"criterion 4 needs the five standard benchmark images as 8-bit grayscale PGM in "
            f"{root!r} (or set CASCADESR_SET5_DIR); found {len(paths)}"
        )
    return data.DatasetManifest(images=[data.ManifestEntry(p, "test") for p in paths], scale=2)


class TestCriterion4BicubicBaseline:
    def test_set5_x2_reference(self):
        manifest = _set5_manifest()
        rep = evaluate.benchmark(None, manifest)
        ok = abs(rep.mean_psnr - 33.66) <= 0.1 and abs(rep.mean_ssim - 0.9299) <= 0.005
        report(
            "4 bicubic baseline",
            ok,
            f"mean PSNR {rep.mean_psnr:.3f} dB (want 33.66 +/- 0.1), SSIM {rep.mean_ssim:.4f} (want 0.9299 +/- 0.005)",
        )
        assert abs(rep.mean_psnr - 33.66) <= 0.1
        assert abs(rep.mean_ssim - 0.9299) <= 0.005


# Desk-scale protocol (criteria 5-7). Absolute benchmark numbers need tens of
# millions of training patches; the desk protocol checks the directional claims
# on a 3,920-patch synthetic corpus in minutes. The learning rate is raised to
# 0.1: the production default of 1e-4 needs orders of magnitude more steps than
# a desk run can afford. A network built whole (the 3-layer base of every
# cascade and trim-train run, and the one-shot control) starts from
# sigma=0.001 weights, whose gradients are proportional to products of
# near-zero weights, so its escape time scales inversely with the rate. Layers
# inserted by cascade growth start as identity maps and do not need that escape.
DESK_CORPUS_SEED = 99
DESK_PATCH = data.PatchParams(lr_size=21, stride=12, hr_size=5)
DESK_SCALE = 3  # x3 upscaling leaves more recoverable detail than x2, so depth pays
DESK_LEARNING_RATE = 0.1
DESK_BATCH = 8
DESK_PLATEAU = 0.002
DESK_STAGE_EPOCH_CAP = 20
DESK_FINETUNE_EPOCH_CAP = 10  # per cascade-trim and trim-train stage; one-shot trimming gets 3x in one run
DESK_SEEDS = (1, 2, 3)

DESK_TRAIN = {
    "mode": "cascade",
    "learning_rate": DESK_LEARNING_RATE,
    "plateau_threshold": DESK_PLATEAU,
    "target_depth": 7,
    "batch_size": DESK_BATCH,
    "max_epochs_per_stage": DESK_STAGE_EPOCH_CAP,
}
# one-shot trimming fine-tunes its d7 parent for as many epochs as cascade trimming may
TRIM_BUDGET = len(trimming.cascade_trim_pairs(7)) * DESK_FINETUNE_EPOCH_CAP


@dataclass(frozen=True)
class Arm:
    """One desk arm: its config's train/trim sections, its cascadesr argv (run
    in the seed's run directory, after the arms before it), and the models
    that eval scores, by score name."""

    config: dict
    argv: tuple
    scores: dict

    def commands(self):
        """The arm's argv, then one eval per scored model, each into its own directory."""
        evals = [("eval", "--model", path, "--out", f"eval-{name}") for name, path in self.scores.items()]
        return [self.argv, *evals]


DESK_ARMS = {
    # cascade to depth 7, scoring the 3/5/7 checkpoints
    "cascade": Arm(
        {"train": DESK_TRAIN},
        ("train", "--out", "cascade/net.ctsr"),
        {"d3": "cascade/net-d3.ctsr", "d5": "cascade/net-d5.ctsr", "d7": "cascade/net.ctsr"},
    ),
    # the one-shot 5-layer control; the fixture sets its max_epochs_per_stage
    # to the epochs the cascade spent through depth 5
    "one_shot5": Arm(
        {"train": {**DESK_TRAIN, "mode": "one_shot", "target_depth": 5}},
        ("train", "--out", "one_shot5/net.ctsr"),
        {"one_shot5": "one_shot5/net.ctsr"},
    ),
    # three routes to the same slim depth-7 architecture at equal post-parent epoch budgets
    "cascade_trim": Arm(
        {"train": {**DESK_TRAIN, "max_epochs_per_stage": DESK_FINETUNE_EPOCH_CAP}, "trim": {"mode": "cascade"}},
        ("trim", "--model", "cascade/net.ctsr", "--out", "cascade_trim/net.ctsr"),
        {"cascade_trim": "cascade_trim/net.ctsr"},
    ),
    "one_shot": Arm(
        {"train": {**DESK_TRAIN, "max_epochs_per_stage": TRIM_BUDGET}, "trim": {"mode": "one_shot_independent"}},
        ("trim", "--model", "cascade/net.ctsr", "--out", "one_shot/net.ctsr"),
        {"one_shot": "one_shot/net.ctsr"},
    ),
    "trim_train": Arm(
        {"train": {**DESK_TRAIN, "mode": "trim_train", "max_epochs_per_stage": DESK_FINETUNE_EPOCH_CAP}},
        ("train", "--out", "trim_train/net.ctsr"),
        {"trim_train": "trim_train/net.ctsr"},
    ),
}


def arm_config(name: str, seed: int, shared: dict) -> dict:
    """An arm's config: the seed, the data files all arms share, the arm's
    directory for its train_log.csv, and the arm's train/trim sections."""
    return {"seed": seed, **shared, "log_dir": name, **DESK_ARMS[name].config}


def eval_psnr(out_dir) -> float:
    (path,) = out_dir.glob("eval_*.json")
    return json.loads(path.read_text())["mean_psnr_db"]


def run_desk_seed(run, seed: int, shared: dict) -> dict:
    """Run every arm of DESK_ARMS for one seed, in table order, in the run
    directory, each command with one BLAS thread; returns score name -> held-out PSNR."""
    run.mkdir()
    scores = {}
    for name, arm in DESK_ARMS.items():
        config = arm_config(name, seed, shared)
        if name == "one_shot5":  # the epochs the cascade spent at depths 3 and 5, from its sidecar
            stages = json.loads((run / "cascade" / "net.json").read_text())["stage_history"]
            budget = sum(len(s["losses"]) for s in stages if s["depth"] in (3, 5))
            config["train"] = {**config["train"], "max_epochs_per_stage": budget}
        # OpenBLAS reads this once, when a command first loads numpy
        cascadesr(config, run / f"{name}.config.json", *arm.commands(), OPENBLAS_NUM_THREADS="1")
        scores.update({score: eval_psnr(run / f"eval-{score}") for score in arm.scores})
    slim = [model.load_model(str(run / a / "net.ctsr")).filter_counts() for a in ("cascade_trim", "one_shot", "trim_train")]
    if slim.count(slim[0]) != len(slim):
        raise RuntimeError(f"seed {seed}: trimming arms disagree on the final architecture: {slim}")
    return scores


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Run every desk-scale arm once for all three seeds (criteria 5-7);
    returns (bicubic baseline PSNR, score name -> per-seed held-out PSNRs).

    The corpus, its patch cache and the bicubic baseline are made once, in
    this process's environment. Each seed then runs its arms' commands in
    turn, the three seeds at the same time. The seeds share no state and
    every run is deterministic, so the results equal a serial run's, bit for
    bit, in less wall time when cores are idle.
    """
    root = tmp_path_factory.mktemp("desk")
    print(f"\n[desk fixture] run root {root}")
    shared = {
        "manifest": make_corpus(
            str(root / "corpus"), n_train=20, n_test=6, image_size=180, seed=DESK_CORPUS_SEED,
            scale=DESK_SCALE, patch=DESK_PATCH,
        ),
        "patches": str(root / "train.ctpd"),
    }
    prepare, _ = cascadesr(
        shared, root / "prepare.config.json", ("prepare",), ("eval", "--mode", "bicubic", "--out", "bicubic")
    )
    assert not prepare.stderr, f"corpus preparation warned:\n{prepare.stderr}"
    bicubic = eval_psnr(root / "bicubic")
    print(f"[desk fixture] {prepare.stdout.strip()}; bicubic baseline {bicubic!r} dB; seeds {DESK_SEEDS} at once")
    with ThreadPoolExecutor(len(DESK_SEEDS)) as pool:
        runs = list(pool.map(lambda seed: run_desk_seed(root / f"seed{seed}", seed, shared), DESK_SEEDS))
    scores = {name: [run[name] for run in runs] for name in runs[0]}
    for name, values in scores.items():
        print(f"[desk fixture] {name} held-out PSNR per seed: {', '.join(map(repr, values))}")
    return bicubic, scores


class TestDeskArms:
    def test_configs_and_argv_parse(self, tmp_path):
        """Every arm's config passes the CLI's config check and builds its run
        settings, and every command of the arm parses, without the desk run."""
        parser = cli.build_parser()
        for name, arm in DESK_ARMS.items():
            path = tmp_path / f"{name}.config.json"
            path.write_text(json.dumps(arm_config(name, 1, {"manifest": "m.json", "patches": "p.ctpd"})))
            cfg = cli.load_config(str(path))
            training.TrainConfig(**cfg["train"])
            if "trim" in cfg:
                trimming.TrimPlan(**cfg["trim"])
            for argv in arm.commands():
                parser.parse_args([*argv, "--config", str(path)])


class TestCriterion5CascadeBenefit:
    def test_cascade5_vs_oneshot5(self, desk):
        bicubic, scores = desk
        casc = mean(scores["d5"])
        oneshot = mean(scores["one_shot5"])
        arms = {"one-shot-5": scores["one_shot5"], "cascade-5": scores["d5"]}
        report(
            "5 desk-scale cascade benefit",
            casc >= oneshot,
            f"cascade-5 mean {casc:.2f} dB vs one-shot-5 mean {oneshot:.2f} dB over {len(DESK_SEEDS)} seeds"
            + seed_detail(bicubic, arms),
        )
        assert casc >= oneshot


class TestCriterion6DepthTrend:
    def test_non_decreasing_3_5_7(self, desk):
        bicubic, scores = desk
        means = [mean(scores[f"d{d}"]) for d in (3, 5, 7)]
        ok = means[0] <= means[1] <= means[2]
        report(
            "6 monotone depth trend",
            ok,
            f"mean heldout PSNR d3/d5/d7 = {means[0]:.2f}/{means[1]:.2f}/{means[2]:.2f} dB"
            + seed_detail(bicubic, {f"d{d}": scores[f"d{d}"] for d in (3, 5, 7)}),
        )
        assert means[0] <= means[1] <= means[2]


class TestCriterion7TrimOrdering:
    def test_one_shot_trim_train_cascade(self, desk):
        bicubic, scores = desk
        arms = {k: scores[k] for k in ("one_shot", "trim_train", "cascade_trim")}
        m = {k: mean(v) for k, v in arms.items()}
        ok = m["one_shot"] <= m["trim_train"] <= m["cascade_trim"]
        report(
            "7 trimming ordering",
            ok,
            f"one_shot {m['one_shot']:.2f} <= trim_train {m['trim_train']:.2f} <= cascade_trim {m['cascade_trim']:.2f} dB"
            + seed_detail(bicubic, arms),
        )
        assert m["one_shot"] <= m["trim_train"] <= m["cascade_trim"]


class TestCriterion8Efficiency:
    def test_trimmed_is_faster_and_multiplies_fall(self):
        net13 = model.build_network(13, ops.RngState(5))
        plan = trimming.TrimPlan(trimming.MODE_CASCADE_TRIM)
        trimmed, _ = trimming.trim(net13, None, None, plan)
        x = np.random.default_rng(0).random((1, 1, 180, 180), dtype=np.float32)

        def best_time(net):
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                evaluate.infer_image(net, x)
                best = min(best, time.perf_counter() - t0)
            return best

        t_full, t_trim = best_time(net13), best_time(trimmed)

        # single-filter removal matches the two-layer multiply accounting
        formula_ok = True
        r = np.random.default_rng(1)
        for _ in range(5):
            i = int(r.integers(0, 12))
            j = int(r.integers(0, net13.layers[i].spec.out_filters))
            sizes, h = [], 180
            for layer in net13.layers:
                h = h + 2 * layer.spec.pad - layer.spec.kernel_size + 1
                sizes.append(h)
            si, sj = net13.layers[i].spec, net13.layers[i + 1].spec
            expected = (
                si.kernel_size**2 * si.in_channels * sizes[i] ** 2
                + sj.kernel_size**2 * sj.out_filters * sizes[i + 1] ** 2
            )
            got = model.multiply_count(net13, 180, 180) - model.multiply_count(
                trimming.trim_filters(net13, i, [j]), 180, 180
            )
            formula_ok = formula_ok and got == expected
        mult_ratio = model.multiply_count(net13, 180, 180) / model.multiply_count(trimmed, 180, 180)
        ok = t_trim < t_full and formula_ok and mult_ratio > 1
        report(
            "8 efficiency claim",
            ok,
            f"inference {t_full*1e3:.0f} ms -> {t_trim*1e3:.0f} ms; multiply count falls {mult_ratio:.2f}x; "
            f"per-filter formula exact: {formula_ok}",
        )
        assert t_trim < t_full
        assert formula_ok


class TestCriterion9Determinism:
    def test_repeated_pipeline_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest_path = make_corpus(str(corpus), n_train=2, n_test=1, image_size=66, seed=3)
        digests = []
        for run in ("a", "b"):
            work = tmp_path / run
            work.mkdir()
            config = {
                "seed": 11,
                "manifest": manifest_path,
                "patches": str(work / "train.ctpd"),
                "train": {
                    "mode": "cascade",
                    "learning_rate": 0.05,
                    "plateau_threshold": 0.03,
                    "target_depth": 5,
                    "batch_size": 4,
                    "max_epochs_per_stage": 2,
                },
                "trim": {"mode": "cascade", "rate": 0.5},
            }
            cascadesr(
                config,
                work / "config.json",
                ("prepare",),
                ("train", "--out", str(work / "model.ctsr")),
                ("trim", "--model", str(work / "model.ctsr"), "--out", str(work / "trimmed.ctsr")),
            )
            blobs = {}
            for name in sorted(os.listdir(work)):
                if name.endswith(".ctsr") or name.endswith(".ctpd"):
                    blobs[name] = (work / name).read_bytes()
            digests.append(blobs)
        same = digests[0] == digests[1]
        report(
            "9 determinism",
            same,
            f"{len(digests[0])} pipeline artifacts byte-identical across repeated runs",
        )
        assert same
