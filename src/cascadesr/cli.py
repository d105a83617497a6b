"""Config-driven command line: prepare / train / trim / eval / infer.

A JSON config file carries the run parameters; flags only name files (and
eval's bicubic baseline). Unknown config keys and wrongly typed values are
rejected and every referenced path is checked before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import data, evaluate, trimming
from .model import load_model, param_count, save_model
from .training import TrainConfig, train

# every config key with its JSON type
TOP_KEYS = {"seed": int, "scale": int, "manifest": str, "patches": str, "model_in": str, "model_out": str,
            "log_dir": str, "train": dict, "trim": dict}
TRAIN_KEYS = {"mode": str, "learning_rate": float, "plateau_threshold": float, "target_depth": int,
              "batch_size": int, "max_epochs_per_stage": int}
TRIM_KEYS = {"mode": str, "rate": float}


class ConfigError(ValueError):
    pass


def _of_type(value, kind: type) -> bool:
    """An int counts as a float, a bool as neither."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _check_keys(where: str, section, allowed: dict) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in section.items():
        if not _of_type(value, allowed[key]):
            raise ConfigError(f"{where} key {key!r} must be {allowed[key].__name__}, got {value!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    _check_keys("config", raw, TOP_KEYS)
    for section, allowed in (("train", TRAIN_KEYS), ("trim", TRIM_KEYS)):
        _check_keys(f"{section} config", raw.get(section, {}), allowed)
    data.check_scale(raw.get("scale", 2))
    return raw


def _require(cfg: dict, key: str, command: str) -> str:
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"{command} requires {key!r} (config key or flag)")
    return value


def _check_exists(path: str, what: str):
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")


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
    out = args.out or _require(cfg, "patches", "prepare")
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
    model_out = args.out or _require(cfg, "model_out", "train")
    os.makedirs(os.path.dirname(model_out) or ".", exist_ok=True)
    stem = model_out[:-5] if model_out.endswith(".ctsr") else model_out
    log_dir = cfg.get("log_dir")
    net, _ = train(patches, tc, log_dir=log_dir, checkpoint_stem=stem, scale=scale)
    save_model(net, model_out)
    print(f"trained depth {net.depth}, {param_count(net)} parameters -> {model_out}")
    return 0


def cmd_trim(cfg: dict, args) -> int:
    section = cfg.get("trim", {})
    mode = section.get("mode", trimming.MODE_CASCADE_TRIM)
    if mode not in trimming.MODES:
        raise ConfigError(f"trim mode must be one of {trimming.MODES}, got {mode!r}")
    train_cfg = _train_config(cfg) if cfg.get("patches") else None
    model_in = args.model or _require(cfg, "model_in", "trim")
    _check_exists(model_in, "model")
    patches = None
    if train_cfg is not None:
        _check_exists(cfg["patches"], "patch cache")
        patches = data.load_patches(cfg["patches"])
    model_out = args.out or _require(cfg, "model_out", "trim")
    os.makedirs(os.path.dirname(model_out) or ".", exist_ok=True)
    stem = model_out[:-5] if model_out.endswith(".ctsr") else model_out
    parent = load_model(model_in)
    plan = trimming.TrimPlan(parent.depth, mode, section.get("rate", 0.5), cfg.get("seed", 0))
    # looked up at call time, so a patched module attribute is the one called
    net, _ = trimming.trim(parent, patches, train_cfg, plan, checkpoint_stem=stem)
    save_model(net, model_out)
    print(f"trimmed to {param_count(net)} parameters -> {model_out}")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    manifest = _manifest(cfg, "eval")
    for path in manifest.paths("test"):
        _check_exists(path, "test image")
    net = None
    if args.mode != "bicubic":
        model_in = args.model or _require(cfg, "model_in", "eval")
        _check_exists(model_in, "model")
        net = load_model(model_in)
    out_dir = args.out or cfg.get("log_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    report = evaluate.benchmark(net, manifest)
    report.write_json(os.path.join(out_dir, f"eval_{report.net_id}.json"))
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
    model_in = args.model or _require(cfg, "model_in", "infer")
    _check_exists(model_in, "model")
    if not args.input:
        raise ConfigError("infer requires an input image path")
    _check_exists(args.input, "input image")
    if not args.out:
        raise ConfigError("infer requires --out")
    net = load_model(model_in)
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
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output path (cache/model/report directory/image)")
        # eval scores either a model or the bicubic baseline, so it refuses both flags together
        model_or_mode = p.add_mutually_exclusive_group() if name == "eval" else p
        if name in ("trim", "eval", "infer"):
            model_or_mode.add_argument("--model", help="model file (overrides model_in)")
        if name == "eval":
            model_or_mode.add_argument("--mode", choices=["bicubic"],
                                       help="score the bicubic baseline instead of a model")
        if name == "infer":
            p.add_argument("input", nargs="?", help="input PGM image")
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
