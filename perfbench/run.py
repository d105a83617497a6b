"""cascadesr benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload train-cascade --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. With --trace 0 the run measures the end-to-end metrics of the named
workload. With --trace 1 it runs one round of every workload under tracing
and reports the per-layer metrics (see README.md). Run records, traces and
scratch files go under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_patches_per_s": "patches/s",
    "infer_mpix_per_s": "Mpix/s",
    "heldout_psnr_db": "dB",
    "pipeline_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {"ms": "ms", "s": "s", "gflops": "GFLOP/s", "multiplies": "count", "bytes_written": "bytes",
                   "self_ms_per_batch": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["train-cascade", "infer-large", "pipeline-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    """Max RSS of this process or of any child it waited for (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, numpy_module) -> dict:
    try:
        blas = numpy_module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except (TypeError, AttributeError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CT_THREADS")},
        "git_sha": git_sha(),
        "load_avg": os.getloadavg(),
    }


def untraced(args, workloads, ctx, workdir, import_s):
    """Set up SETUP_REPEATS times, then whole rounds until the next would overrun --seconds."""
    wl = workloads.WORKLOADS[args.workload]()
    setup_s, setup_rates = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(ctx, os.path.join(workdir, f"setup-{i}"))
        setup_s.append(time.perf_counter() - t0)
        setup_rates += state.epoch_rates
    wl.warm(ctx, state)
    rounds, start = [], time.perf_counter()
    while True:
        rounds.append(wl.round(ctx, state))
        elapsed = time.perf_counter() - start
        if elapsed / len(rounds) * (len(rounds) + 1) > args.seconds:
            break
    metrics = {k: statistics.median(r[k] for r in rounds) for k in END_TO_END if k in rounds[0]}
    if setup_rates:  # infer-large trains only in set-up: the median epoch of all set-ups
        metrics["train_patches_per_s"] = statistics.median(setup_rates)
    metrics["setup_s"] = import_s + statistics.median(setup_s)
    metrics["peak_rss_mib"] = peak_rss_mib()
    detail = {"rounds": rounds, "setup_s": setup_s, "setup_epoch_rates": setup_rates, "import_s": import_s}
    return metrics, detail


def cli_startup_s(env: dict) -> float:
    """Median wall time of `python -m cascadesr.cli --help` children."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "cascadesr.cli", "--help"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def latest_untraced(workload: str):
    """pipeline_s of the newest untraced run record of this workload, if any."""
    runs = os.path.join(OUT, "runs")
    names = sorted(n for n in os.listdir(runs) if n.startswith(f"{workload}-") and n.endswith("-t0.json")) \
        if os.path.isdir(runs) else []
    for name in reversed(names):
        with open(os.path.join(runs, name)) as fh:
            rec = json.load(fh)
        if rec.get("correct"):
            return rec["metrics"]["pipeline_s"]["value"]
    return None


def traced(args, workloads, tracing, ctx, workdir):
    """One round of every workload under tracing, the named one first."""
    tracer = tracing.Tracer()
    ctx.tracer = tracer
    tracer.install()
    parts = [args.workload] + [n for n in workloads.WORKLOADS if n != args.workload]
    round_s = {}
    try:
        for part in parts:
            tracer.part = part
            wl = workloads.WORKLOADS[part]()
            with tracer.span(f"setup.{part}"):
                state = wl.setup(ctx, os.path.join(workdir, part))
            wl.warm(ctx, state)
            with tracer.span(f"round.{part}"):
                round_s[part] = wl.round(ctx, state)["pipeline_s"]
            del state
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer, cli_startup_s(workloads.child_env(SRC)))
    base = latest_untraced(args.workload)
    overhead = {"workload": args.workload, "traced_pipeline_s": round_s[args.workload],
                "untraced_pipeline_s": base,
                "share": None if base is None else round_s[args.workload] / base - 1.0}
    return metrics, {"trace_overhead": overhead, "call_counts": tracer.call_counts(), "tracer": tracer}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cascadesr", "__init__.py")):
        print(f"perfbench: no cascadesr sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cascadesr  # noqa: F401  (timed: the package import is part of set-up)
    import_s = time.perf_counter() - t0
    import numpy

    import checks
    import tracing
    import workloads

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    workdir = os.path.join(OUT, "work", f"{args.workload}-{stamp}")
    record = run_record(args, numpy)
    tally = checks.Tally()
    ctx = workloads.Context(args.seed, tally, src_dir=SRC)
    try:
        if args.trace:
            metrics, detail = traced(args, workloads, tracing, ctx, workdir)
            tracer = detail.pop("tracer")
        else:
            metrics, detail = untraced(args, workloads, ctx, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    finite = all(v == v and abs(v) != float("inf") for v in metrics.values())
    result = {
        "correct": tally.correct and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record.update(result, errors=tally.errors, detail=detail)
    base = os.path.join(OUT, "runs", f"{args.workload}-{stamp}-s{args.seed}-t{args.trace}")
    os.makedirs(os.path.dirname(base), exist_ok=True)
    if args.trace:
        tracer.write(base + ".spans.jsonl", {k: record[k] for k in ("workload", "seed", "git_sha")})
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for error in tally.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"run_record": base + ".json", **{k: record[k] for k in (
        "nproc", "python", "numpy", "env", "git_sha", "load_avg")}, **detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
