"""Full-image inference, PSNR/SSIM metrics, and benchmark reports."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import BORDER, DatasetManifest, crop_to_multiple, degrade, load_image
from .model import NetworkModel, forward
from .ops import ShapeMismatchError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def infer_image(net: NetworkModel, lr_upsampled: np.ndarray) -> np.ndarray:
    """Whole-image forward pass; output shrinks by 8 pixels per side.

    model.forward streams the image through the network in chunks of rows, so
    memory stays bounded whatever the image height; the output equals a
    whole-image pass bit for bit.
    """
    return forward(net, lr_upsampled)


def net_border(net: NetworkModel | None) -> int:
    """Pixels lost per side through the network's unpadded layers."""
    if net is None:
        return BORDER
    shrink = sum(l.spec.kernel_size - 1 - 2 * l.spec.pad for l in net.layers)
    return shrink // 2


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1 / MSE) on unit-range images; inf when the images match."""
    if a.shape != b.shape:
        raise ShapeMismatchError("psnr operand dims", a.shape, b.shape)
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    w = np.exp(-(x**2) / (2 * sigma**2))
    return w / w.sum()


def _filter_valid(img: np.ndarray, window: np.ndarray, axis: int) -> np.ndarray:
    """1-D valid correlation along an axis via shifted-view accumulation."""
    shifted = np.lib.stride_tricks.sliding_window_view(img, len(window), axis=axis)
    out = np.zeros(shifted.shape[:-1], dtype=np.float64)
    for i, w in enumerate(window):
        out += w * shifted[..., i]
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM, 11x11 Gaussian window sigma=1.5, unit dynamic range."""
    if a.shape != b.shape:
        raise ShapeMismatchError("ssim operand dims", a.shape, b.shape)
    if a.shape[2] < SSIM_WINDOW or a.shape[3] < SSIM_WINDOW:
        raise ShapeMismatchError("ssim input size", f">= {SSIM_WINDOW}x{SSIM_WINDOW}", a.shape[2:])
    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)

    def blur(x):
        return _filter_valid(_filter_valid(x, win, 2), win, 3)

    a64, b64 = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    mu_a, mu_b = blur(a64), blur(b64)
    var_a = blur(a64 * a64) - mu_a**2
    var_b = blur(b64 * b64) - mu_b**2
    cov = blur(a64 * b64) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


@dataclass
class EvalRow:
    image: str
    psnr_db: float
    ssim: float
    seconds: float
    error: str = ""


def _number(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass
class EvalReport:
    net_id: str
    scale: int
    rows: list[EvalRow] = field(default_factory=list)

    def _mean(self, field_name: str) -> float:
        """Mean of one EvalRow field over the scored images; NaN if none scored."""
        vals = [getattr(r, field_name) for r in self.rows if not r.error]
        return float(np.mean(vals)) if vals else float("nan")

    mean_psnr = property(lambda self: self._mean("psnr_db"))
    mean_ssim = property(lambda self: self._mean("ssim"))
    mean_seconds = property(lambda self: self._mean("seconds"))

    def write_json(self, path: str) -> None:
        """Strict JSON: a value with no JSON number (a failed image's scores,
        the means of no scored image, an infinite PSNR) is written as null."""
        doc = {
            "net": self.net_id,
            "scale": self.scale,
            "images": [
                {**asdict(r), "psnr_db": _number(r.psnr_db), "psnr_infinite": math.isinf(r.psnr_db),
                 "ssim": _number(r.ssim)}
                for r in self.rows
            ],
            "mean_psnr_db": _number(self.mean_psnr),
            "mean_ssim": _number(self.mean_ssim),
            "mean_seconds": _number(self.mean_seconds),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _eval_one(net, path, scale, border):
    try:
        hr = crop_to_multiple(load_image(path), scale)
        lr_up = degrade(hr, scale)
        t0 = time.perf_counter()
        if net is None:
            sr = lr_up[:, :, border:-border, border:-border] if border else lr_up
        else:
            sr = infer_image(net, lr_up)
        seconds = time.perf_counter() - t0
        if not np.isfinite(sr).all():
            raise ValueError("non-finite network output")
        truth = hr[:, :, border:-border, border:-border] if border else hr
        return EvalRow(path, psnr(sr, truth), ssim(sr, truth), seconds)
    except (ValueError, OSError) as exc:
        return EvalRow(path, float("nan"), float("nan"), 0.0, error=str(exc))


def benchmark(net: NetworkModel | None, manifest: DatasetManifest, net_id: str = "") -> EvalReport:
    """Degrade, super-resolve (or pass through for the bicubic baseline),
    and score every test image, one at a time in manifest order (the BLAS
    library threads each convolution). Ground truth is center-cropped to
    match the network output so all methods are scored on identical pixels.
    """
    if net_id == "":
        net_id = "bicubic" if net is None else f"net-d{net.depth}"
    border = net_border(net)
    report = EvalReport(net_id=net_id, scale=manifest.scale)
    report.rows = [_eval_one(net, p, manifest.scale, border) for p in manifest.paths("test")]
    return report
