"""Config-driven command line: prepare / train / trim / eval / infer.

A JSON config file carries the run parameters and names the data files a run
shares (manifest, patch cache, log directory); flags name each command's model
and output files (and eval's bicubic baseline). Each path has one home, so no
flag overrides a config key. Unknown config keys and wrongly typed values are
rejected and every referenced path is checked before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import data, evaluate, trimming
from .model import load_model, model_stem, param_count, save_model
from .training import TrainConfig, train

# every config key with its JSON type
TOP_KEYS = {"seed": int, "scale": int, "manifest": str, "patches": str, "log_dir": str, "train": dict, "trim": dict}
TRAIN_KEYS = {"mode": str, "learning_rate": float, "plateau_threshold": float, "target_depth": int,
              "batch_size": int, "max_epochs_per_stage": int}
TRIM_KEYS = {"mode": str, "rate": float}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    data.check_keys("config", raw, TOP_KEYS, ConfigError)
    for section, allowed in (("train", TRAIN_KEYS), ("trim", TRIM_KEYS)):
        data.check_keys(f"{section} config", raw.get(section, {}), allowed, ConfigError)
    data.check_scale(raw.get("scale", 2))
    return raw


def _require(cfg: dict, key: str, command: str) -> str:
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"{command} requires config key {key!r}")
    return value


def _check_exists(path: str, what: str):
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")


def _out_stem(path: str) -> str:
    """Make path's directory; return the stem its stage checkpoints are named from."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return model_stem(path)


def _manifest(cfg: dict, command: str) -> data.DatasetManifest:
    """The manifest, at the config's scale if it names one (replace checks it is 2, 3 or 4)."""
    manifest_path = _require(cfg, "manifest", command)
    _check_exists(manifest_path, "manifest")
    manifest = data.DatasetManifest.from_json(manifest_path)
    return replace(manifest, scale=cfg.get("scale", manifest.scale))


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(seed=cfg.get("seed", 0), **cfg.get("train", {}))


def cmd_prepare(cfg: dict, args) -> int:
    manifest = _manifest(cfg, "prepare")
    for entry in manifest.images:
        _check_exists(entry.path, "image")
    out = _require(cfg, "patches", "prepare")
    patches, warnings = data.build_patches(manifest, role="train")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    data.save_patches(patches, out)
    print(f"{len(patches)} patch pairs written to {out}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    tc = _train_config(cfg)
    # the config's scale, else that of the manifest it names, else 2
    scale = _manifest(cfg, "train").scale if cfg.get("manifest") else cfg.get("scale", 2)
    patches_path = _require(cfg, "patches", "train")
    _check_exists(patches_path, "patch cache")
    patches = data.load_patches(patches_path)
    stem = _out_stem(args.out)
    net, _ = train(patches, tc, log_dir=cfg.get("log_dir"), checkpoint_stem=stem, scale=scale)
    save_model(net, args.out)
    print(f"trained depth {net.depth}, {param_count(net)} parameters -> {args.out}")
    return 0


def cmd_trim(cfg: dict, args) -> int:
    plan = trimming.TrimPlan(**cfg.get("trim", {}))
    train_cfg = _train_config(cfg) if cfg.get("patches") else None
    _check_exists(args.model, "model")
    patches = None
    if train_cfg is not None:
        _check_exists(cfg["patches"], "patch cache")
        patches = data.load_patches(cfg["patches"])
    stem = _out_stem(args.out)
    parent = load_model(args.model)
    # looked up at call time, so a patched module attribute is the one called
    net, _ = trimming.trim(parent, patches, train_cfg, plan, checkpoint_stem=stem)
    save_model(net, args.out)
    print(f"trimmed to {param_count(net)} parameters -> {args.out}")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    manifest = _manifest(cfg, "eval")
    for path in manifest.paths("test"):
        _check_exists(path, "test image")
    net = None
    if args.model:
        _check_exists(args.model, "model")
        net = load_model(args.model)
        if net.scale != manifest.scale:
            raise ConfigError(f"model {args.model} is x{net.scale}, but eval scores at x{manifest.scale}")
    os.makedirs(args.out, exist_ok=True)
    report = evaluate.benchmark(net, manifest)
    report.write_json(os.path.join(args.out, f"eval_{report.net_id}.json"))
    if not report.rows:
        print("warning: empty test set", file=sys.stderr)
        return 0
    failures = [r for r in report.rows if r.error]
    for r in failures:
        print(f"failed: {r.image}: {r.error}", file=sys.stderr)
    print(
        f"{report.net_id} x{report.scale}: mean PSNR {report.mean_psnr:.2f} dB, "
        f"mean SSIM {report.mean_ssim:.4f}, mean {report.mean_seconds:.4f} s/image"
    )
    return 1 if failures else 0


def cmd_infer(cfg: dict, args) -> int:
    _check_exists(args.model, "model")
    _check_exists(args.input, "input image")
    net = load_model(args.model)
    img = data.load_image(args.input)
    sr = evaluate.infer_image(net, img)
    data.save_image(sr, args.out)
    print(f"{args.input} ({img.shape[2]}x{img.shape[3]}) -> {args.out} ({sr.shape[2]}x{sr.shape[3]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cascadesr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads, spelled out in full: no prefix stands in for a flag
    for name, fn in (
        ("prepare", cmd_prepare),
        ("train", cmd_train),
        ("trim", cmd_trim),
        ("eval", cmd_eval),
        ("infer", cmd_infer),
    ):
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(fn=fn, config=None)
        if name != "infer":  # infer's model, input and output are all flags
            p.add_argument("--config", help="JSON run configuration")
        if name != "prepare":  # prepare writes the config's patch cache; eval reports to "." by default
            p.add_argument("--out", required=name != "eval", default=".",
                           help="output path (model/report directory/image)")
        # eval scores either a model or the bicubic baseline: exactly one of the two
        model_or_mode = p.add_mutually_exclusive_group(required=True) if name == "eval" else p
        if name in ("trim", "eval", "infer"):
            model_or_mode.add_argument("--model", required=name != "eval", help="model file")
        if name == "eval":
            model_or_mode.add_argument("--mode", choices=["bicubic"],
                                       help="score the bicubic baseline instead of a model")
        if name == "infer":
            p.add_argument("input", help="input PGM image")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
