"""The three workloads: inputs made from the seed, one round of work, checks.

Each workload is a closed loop with one caller: a round starts when the one
before it has ended. `setup` builds the inputs (timed as set-up), `round`
runs the fixed work once and returns that round's end-to-end values, and
every operation and check goes through the run's `Tally`.

Set-up may create files only under the directory it is given; rounds of
`pipeline-cli` write under their own round directory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import checks
from cascadesr import cli, data, evaluate, model, ops, synth, training, trimming

# train-cascade: the desk corpus of the acceptance protocol, fixed here so the
# workload stays the same when the protocol's constants move
DESK_TRAIN, DESK_TEST, DESK_SIZE, DESK_SCALE = 20, 6, 180, 3
DESK_PATCH = (21, 12, 5)  # lr_size, stride, hr_size -> 196 patches per image
LEARNING_RATE, BATCH = 0.1, 8
EPOCHS_PER_DEPTH = {3: 1, 5: 1, 7: 1}
# the held-out scoring is timed three times over: one pass lasts about 2.5 s,
# short enough for the shared box's slow phases to move its median by 25%
SCORE_PASSES = 3

# infer-large: x2 keeps a 512-px image whole through degradation
LARGE_SIZE, LARGE_SCALE = 512, 2
LARGE_TRAIN_PATCH = (21, 16, 5)  # 31 x 31 = 961 patches from one training image
LARGE_TRAIN_EPOCHS = 2

# pipeline-cli: small x3 corpus, two epochs per stage so every stage does fixed work
CLI_TRAIN, CLI_TEST = 6, 12
CLI_DEPTH, CLI_EPOCHS = 5, 2


def child_env(src_dir: str) -> dict:
    """This process's environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


class Context:
    """What a workload needs from the run: seed, tally, tracer, and the runner
    for CLI commands (a child process, or cli.main in-process when traced)."""

    def __init__(self, seed: int, tally: checks.Tally, tracer=None, src_dir: str = ""):
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        self.src_dir = src_dir

    @contextlib.contextmanager
    def checking(self):
        """Benchmark-side work (reference checks) that must not show in the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def run_cli(self, argv: list[str], cwd: str):
        """(exit code, stdout, stderr, seconds) of one cascadesr command."""
        if self.tracer is None:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "cascadesr.cli", *argv], cwd=cwd,
                                  env=child_env(self.src_dir), capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0
        out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                with self.tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
                seconds = time.perf_counter() - t0
        finally:
            os.chdir(here)
        return code, out.getvalue(), err.getvalue(), seconds


def _train_config(seed: int, **overrides) -> training.TrainConfig:
    return training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH, seed=seed, **overrides)


class TrainCascade:
    """Cascade growth d3 -> d5 -> d7 on the desk corpus, then held-out scoring."""

    name = "train-cascade"

    def setup(self, ctx: Context, workdir: str):
        manifest_path = synth.make_corpus(
            workdir, n_train=DESK_TRAIN, n_test=DESK_TEST, image_size=DESK_SIZE, seed=ctx.seed,
            scale=DESK_SCALE, patch=data.PatchParams(*DESK_PATCH),
        )
        manifest = data.DatasetManifest.from_json(manifest_path)
        patches, warnings = data.build_patches(manifest)
        return SimpleNamespace(manifest=manifest, patches=patches, warnings=warnings, epoch_rates=[])

    def warm(self, ctx, state):
        pass

    def round(self, ctx: Context, st) -> dict:
        tally, rng = ctx.tally, ops.RngState(ctx.seed)
        cfg = _train_config(ctx.seed, target_depth=7)
        t_round = time.perf_counter()
        net = model.build_network(3, rng.child(1, 0), scale=DESK_SCALE)
        losses, epoch_s, inherited_same, params = [], 0.0, [], {}
        for stage, depth in enumerate(EPOCHS_PER_DEPTH):
            if stage:
                before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
                net = model.insert_layers(net, rng.child(1, stage), how_many=2)
                kept = net.layers[: len(before) - 1] + net.layers[-1:]
                inherited_same.append(all(
                    np.array_equal(w, l.weights) and np.array_equal(b, l.bias) for (w, b), l in zip(before, kept)
                ))
            params[depth] = model.param_count(net)
            for epoch in range(EPOCHS_PER_DEPTH[depth]):
                t0 = time.perf_counter()
                net, loss = training.run_epoch(net, st.patches, cfg, epoch=epoch, stage=stage)
                epoch_s += time.perf_counter() - t0
                losses.append((depth, loss))
                tally.op(math.isfinite(loss), f"epoch d{depth}/{epoch}: loss {loss}")
        reports = [evaluate.benchmark(net, st.manifest, net_id="d7") for _ in range(SCORE_PASSES)]
        round_s = time.perf_counter() - t_round
        rows = [row for report in reports for row in report.rows]
        for row in rows:
            tally.op(not row.error, f"eval {row.image}: {row.error}")

        with ctx.checking():
            n, s, scale = len(st.patches), DESK_SIZE, DESK_SCALE
            tally.check("desk patch count", not st.warnings and n == checks.grid_patch_count(
                DESK_TRAIN, s, scale, DESK_PATCH[0], DESK_PATCH[1]), n)
            tally.check("inherited weights bit-identical across insert_layers", all(inherited_same))
            tally.check("grown depth", net.depth == 7, net.depth)
            for depth in EPOCHS_PER_DEPTH:
                tally.check(f"d{depth} parameter count", params[depth] == checks.closed_form_params(depth), params)
            tally.check("all epoch losses finite", all(math.isfinite(l) for _, l in losses), losses)
            zero_loss = float(np.mean(st.patches.hr.astype(np.float64) ** 2))
            tally.check("training cut the loss below a quarter of a zero output's",
                        losses[-1][1] < zero_loss / 4, (losses, zero_loss))
            out_side = s - 2 * evaluate.net_border(net)
            tally.check("eval covers the held-out images", len(rows) == SCORE_PASSES * DESK_TEST, len(rows))
            tally.check("scoring passes agree", len({r.mean_psnr for r in reports}) == 1)
            bicubic = evaluate.benchmark(None, st.manifest)
        return {
            "pipeline_s": round_s,
            "train_patches_per_s": n * len(losses) / epoch_s,
            "infer_mpix_per_s": out_side * out_side / 1e6 / statistics.median(r.seconds for r in rows),
            # a few epochs leave the d7 score to whether the sigma=0.001 d3 left
            # its loss plateau (17-27 dB across seeds), so the steady held-out
            # score is the bicubic baseline of the same images
            "heldout_psnr_db": bicubic.mean_psnr,
            "d7_psnr_db": reports[0].mean_psnr,
        }


class InferLarge:
    """Whole-image inference of a 512-px input with a d7 and a cascade-trimmed d13 net."""

    name = "infer-large"

    def setup(self, ctx: Context, workdir: str):
        gen = np.random.default_rng(np.random.SeedSequence(ctx.seed))
        train_hr = synth.synthetic_image(gen, LARGE_SIZE, LARGE_SIZE)
        test_hr = synth.synthetic_image(gen, LARGE_SIZE, LARGE_SIZE)
        lr_up = data.degrade(test_hr, LARGE_SCALE)
        # the nets get two d3 epochs on their own training image so that their
        # outputs are images; growth keeps that function, trimming halves widths
        patches = data.extract_patches(train_hr, LARGE_SCALE, data.PatchParams(*LARGE_TRAIN_PATCH))
        rng = ops.RngState(ctx.seed)
        net = model.build_network(3, rng.child(1, 0), scale=LARGE_SCALE)
        epoch_s = []
        for epoch in range(LARGE_TRAIN_EPOCHS):
            t0 = time.perf_counter()
            net, loss = training.run_epoch(net, patches, _train_config(ctx.seed), epoch=epoch)
            epoch_s.append(time.perf_counter() - t0)
            ctx.tally.op(math.isfinite(loss), f"infer-large set-up epoch {epoch}: loss {loss}")
        d7 = model.insert_layers(net, rng.child(1, 1), how_many=4)
        d13 = model.insert_layers(d7, rng.child(1, 2), how_many=6)
        plan = trimming.default_plan(d13.depth, trimming.MODE_CASCADE_TRIM, seed=ctx.seed)
        trim13, _ = trimming.cascade_trim(d13, None, None, plan)
        border = evaluate.net_border(d7)
        return SimpleNamespace(
            lr_up=lr_up, truth=test_hr[0, 0, border:-border, border:-border], nets={"d7": d7, "trim13": trim13},
            epoch_rates=[len(patches) / t for t in epoch_s],
        )

    def warm(self, ctx, st):
        """The first 512-px pass of a process runs slower (first-touch page
        faults); run it untimed so every timed round sees the same state."""
        with ctx.checking():
            evaluate.infer_image(st.nets["d7"], st.lr_up)

    def round(self, ctx: Context, st) -> dict:
        tally = ctx.tally
        infer_s, mpix, outputs = 0.0, 0.0, {}
        for label, net in st.nets.items():
            t0 = time.perf_counter()
            sr = evaluate.infer_image(net, st.lr_up)
            infer_s += time.perf_counter() - t0
            ok = sr.shape[2:] == st.truth.shape and bool(np.isfinite(sr).all())
            tally.op(ok, f"infer {label}: shape {sr.shape}")
            mpix += sr.shape[2] * sr.shape[3] / 1e6
            outputs[label] = sr
        with ctx.checking():
            crop_rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, 7]))
            conv_err = {}
            for label, net in st.nets.items():
                err = checks.crop_max_error(checks.net_layers(net), st.lr_up[0, 0], outputs[label][0, 0], crop_rng)
                tally.check(f"{label} matches the reference conv chain", err <= checks.CONV_TOLERANCE, err)
                conv_err[label] = err
            d7, trim13 = st.nets["d7"], st.nets["trim13"]
            tally.check("d7 parameter count", model.param_count(d7) == checks.closed_form_params(7))
            tally.check("trimmed d13 filter counts halved", trim13.filter_counts() == [32] + [16] * 11 + [1],
                        trim13.filter_counts())
            tally.check("trimmed d13 parameter count", model.param_count(trim13) == checks.closed_form_params(13, 32, 16))
            side = st.lr_up.shape[2]
            tally.check("d7 multiply count", model.multiply_count(d7, side, side) == checks.closed_form_multiplies(7, side))
            tally.check("trimmed d13 multiply count", model.multiply_count(trim13, side, side)
                        == checks.closed_form_multiplies(13, side, 32, 16))
        return {
            "pipeline_s": infer_s,
            "infer_mpix_per_s": mpix / infer_s,
            # d7 carries the trained function; trim13 lost a random half of
            # its filters without fine-tuning, so its score is not a quality figure
            "heldout_psnr_db": evaluate.psnr(outputs["d7"], st.truth[None, None]),
            "conv_max_abs_err": conv_err,
        }


class PipelineCli:
    """prepare -> train -> trim (cascade) -> eval -> eval --mode bicubic, each
    command in a fresh process and a fresh directory."""

    name = "pipeline-cli"

    def setup(self, ctx: Context, workdir: str):
        manifest = synth.make_corpus(
            os.path.join(workdir, "corpus"), n_train=CLI_TRAIN, n_test=CLI_TEST, image_size=DESK_SIZE,
            seed=ctx.seed, scale=DESK_SCALE, patch=data.PatchParams(*DESK_PATCH),
        )
        return SimpleNamespace(manifest=manifest, workdir=workdir, rounds=0, epoch_rates=[])

    def warm(self, ctx, state):
        pass

    def _config(self, ctx, st, rdir, step):
        return {
            "seed": ctx.seed,
            "scale": DESK_SCALE,
            "manifest": st.manifest,
            "patches": os.path.join(rdir, "1-prepare", "train.ctpd"),
            "log_dir": os.path.join(rdir, step, "logs"),
            "train": {"mode": "cascade", "learning_rate": LEARNING_RATE, "batch_size": BATCH,
                      "target_depth": CLI_DEPTH, "max_epochs_per_stage": CLI_EPOCHS},
            "trim": {"mode": "cascade", "rate": 0.5},
        }

    def round(self, ctx: Context, st) -> dict:
        tally = ctx.tally
        rdir = os.path.join(st.workdir, f"round-{st.rounds}")
        st.rounds += 1
        model_path = os.path.join(rdir, "2-train", "model.ctsr")
        slim_path = os.path.join(rdir, "3-trim", "slim.ctsr")
        steps = [
            ("1-prepare", ["prepare"]),
            ("2-train", ["train", "--out", model_path]),
            ("3-trim", ["trim", "--model", model_path, "--out", slim_path]),
            ("4-eval", ["eval", "--model", slim_path, "--out", os.path.join(rdir, "4-eval")]),
            ("5-bicubic", ["eval", "--mode", "bicubic", "--out", os.path.join(rdir, "5-bicubic")]),
        ]
        pipeline_s, stdout = 0.0, {}
        for step, argv in steps:
            cwd = os.path.join(rdir, step)
            os.makedirs(cwd)
            cfg_path = os.path.join(cwd, "config.json")
            with open(cfg_path, "w") as fh:
                json.dump(self._config(ctx, st, rdir, step), fh)
            code, out, err, seconds = ctx.run_cli(argv + ["--config", cfg_path], cwd)
            pipeline_s += seconds
            stdout[step] = out
            tally.op(code == 0, f"cascadesr {argv[0]} exited {code}: {err.strip()[-300:]}")

        with ctx.checking():
            return {"pipeline_s": pipeline_s, **self._check(ctx, st, rdir, stdout, model_path, slim_path)}

    def _check(self, ctx, st, rdir, stdout, model_path, slim_path) -> dict:
        tally = ctx.tally
        n = checks.grid_patch_count(CLI_TRAIN, DESK_SIZE, DESK_SCALE, DESK_PATCH[0], DESK_PATCH[1])
        tally.check("prepare reports the stride-grid patch count", stdout["1-prepare"].startswith(f"{n} patch pairs"),
                    stdout["1-prepare"].strip())
        cache = checks.read_ctpd(os.path.join(rdir, "1-prepare", "train.ctpd"))
        tally.check("patch cache header", (cache["count"], cache["lr"], cache["hr_dims"])
                    == (n, (1, DESK_PATCH[0], DESK_PATCH[0]), (1, DESK_PATCH[2], DESK_PATCH[2])), cache["count"])

        trained = checks.read_ctsr(model_path)
        tally.check("trained model depth and parameter count",
                    len(trained["layers"]) == CLI_DEPTH
                    and sum(w.size for w, *_ in trained["layers"]) == checks.closed_form_params(CLI_DEPTH))
        with open(os.path.join(rdir, "2-train", "logs", "train_log.csv")) as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(r["mean_loss"]) for r in rows]
        stages = (CLI_DEPTH - 3) // 2 + 1
        tally.check("train ran the fixed epochs", len(rows) == stages * CLI_EPOCHS, len(rows))
        zero_loss = float(np.mean(cache["hr"].astype(np.float64) ** 2))
        tally.check("train losses finite, the last below a quarter of a zero output's",
                    all(math.isfinite(l) for l in losses) and losses[-1] < zero_loss / 4, (losses, zero_loss))
        train_rate = n * len(rows) / sum(float(r["wall_seconds"]) for r in rows)

        slim = checks.read_ctsr(slim_path)
        counts = [w.shape[0] for w, *_ in slim["layers"]]
        tally.check("trimmed filter counts halved", counts == [32] + [16] * (CLI_DEPTH - 2) + [1], counts)
        tally.check("trimmed parameter count", sum(w.size for w, *_ in slim["layers"])
                    == checks.closed_form_params(CLI_DEPTH, 32, 16))

        with open(os.path.join(rdir, "4-eval", f"eval_net-d{CLI_DEPTH}.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(rdir, "5-bicubic", "eval_bicubic.json")) as fh:
            bicubic = json.load(fh)
        images = report["images"]
        tally.check("eval scored every test image", len(images) == CLI_TEST and not any(r["error"] for r in images))
        # one test image end to end through the benchmark's own reference chain
        hr = checks.read_pgm(images[0]["image"])
        lr_up = data.degrade(hr[None, None], DESK_SCALE)[0, 0]
        border = checks.BORDER
        truth = hr[border:-border, border:-border]
        ref = checks.reference_forward(slim["layers"], lr_up)
        psnr_gap = abs(checks.psnr_db(ref, truth) - images[0]["psnr_db"])
        tally.check("eval PSNR matches the reference chain", psnr_gap <= checks.PSNR_TOLERANCE_DB, psnr_gap)
        gap = abs(checks.psnr_db(lr_up[border:-border, border:-border], truth) - bicubic["images"][0]["psnr_db"])
        tally.check("bicubic PSNR matches", gap <= checks.PSNR_TOLERANCE_DB, gap)
        program = evaluate.infer_image(model.load_model(slim_path), lr_up[None, None])[0, 0]
        err = checks.crop_max_error(slim["layers"], lr_up, program,
                                    np.random.default_rng(np.random.SeedSequence([ctx.seed, 7])))
        tally.check("trimmed net matches the reference conv chain", err <= checks.CONV_TOLERANCE, err)
        side = DESK_SIZE - 2 * border
        return {
            "train_patches_per_s": train_rate,
            "infer_mpix_per_s": side * side / 1e6 / statistics.median(r["seconds"] for r in images),
            # as on train-cascade: the trimmed net's score is a plateau lottery
            # (16-24 dB across seeds), the bicubic eval is steady
            "heldout_psnr_db": bicubic["mean_psnr_db"],
            "trimmed_psnr_db": report["mean_psnr_db"],
            "psnr_gap_db": psnr_gap,
            "conv_max_abs_err": err,
        }


WORKLOADS = {w.name: w for w in (TrainCascade, InferLarge, PipelineCli)}
