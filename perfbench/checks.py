"""Correctness checks computed apart from the program under test.

Nothing here imports cascadesr. The formats are parsed from their published
layouts, the convolution chain is a float64 sliding-window einsum, and every
count comes from the architecture's closed form. No check compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# |program - reference| on network outputs in [0, 1]-scale pixels. The program
# rounds every layer's output to float32 and the reference stays in float64;
# the measured gap is below 1e-7, and a wrong tap, pad or layer order is >1e-2.
CONV_TOLERANCE = 1e-4
# eval-report PSNR vs 10*log10(1/MSE) of the reference output, in dB
PSNR_TOLERANCE_DB = 1e-3
# pixels lost per side through the unpadded 9x9, 5x5 and 5x5 layers
BORDER = (9 - 1 + 5 - 1 + 5 - 1) // 2


class Tally:
    """Attempted and failed operations of one run, and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True  # false once a check fails
        self.errors: list[str] = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def check(self, what: str, ok: bool, detail=""):
        self.correct = self.correct and bool(ok)
        self.op(bool(ok), f"check failed: {what} {detail}".strip())


def family_widths(depth: int, first: int = 64, mid: int = 32) -> list[tuple[int, int, int]]:
    """(kernel, in, out) per layer of the 9-5-3..3-5 family."""
    kernels = [9, 5] + [3] * (depth - 3) + [5]
    outs = [first] + [mid] * (depth - 2) + [1]
    ins = [1] + outs[:-1]
    return list(zip(kernels, ins, outs))


def closed_form_params(depth: int, first: int = 64, mid: int = 32) -> int:
    """Weights only: 81*f + 25*f*m + (depth-3)*9*m*m + 25*m."""
    return 81 * first + 25 * first * mid + (depth - 3) * 9 * mid * mid + 25 * mid


def closed_form_multiplies(depth: int, size: int, first: int = 64, mid: int = 32) -> int:
    """Forward multiplies of one square input: 9x9 and 5x5 layers shrink the
    map, padded 3x3 layers keep it."""
    total, s = 0, size
    for k, cin, cout in family_widths(depth, first, mid):
        if k != 3:
            s -= k - 1
        total += cin * k * k * cout * s * s
    return total


def grid_patch_count(n_images: int, image_size: int, scale: int, lr_size: int, stride: int) -> int:
    side = image_size // scale * scale
    per_axis = (side - lr_size) // stride + 1
    return n_images * per_axis * per_axis


def read_ctsr(path: str):
    """Layers of a .ctsr model as (weights, bias, pad, relu) in float32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CTSR":
        raise ValueError(f"{path}: bad magic")
    version, scale, depth = struct.unpack_from("<III", blob, 4)
    off, layers = 16, []
    for _ in range(depth):
        k, cin, cout, pad, act = struct.unpack_from("<IIIII", blob, off)
        off += 20
        w = np.frombuffer(blob, "<f4", k * k * cin * cout, off).reshape(cout, cin, k, k)
        off += 4 * w.size
        b = np.frombuffer(blob, "<f4", cout, off)
        off += 4 * cout
        layers.append((w, b, pad, act == 1))
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return {"version": version, "scale": scale, "layers": layers}


def read_ctpd(path: str) -> dict:
    """Header of a .ctpd patch cache and its HR payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CTPD":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<II", blob, 4)
    lr, hr = struct.unpack_from("<III", blob, 12), struct.unpack_from("<III", blob, 24)
    n_lr, n_hr = count * math.prod(lr), count * math.prod(hr)
    if len(blob) != 36 + 4 * (n_lr + n_hr):
        raise ValueError(f"{path}: payload size mismatch")
    return {"version": version, "count": count, "lr": lr, "hr_dims": hr,
            "hr": np.frombuffer(blob, "<f4", n_hr, 36 + 4 * n_lr)}


def read_pgm(path: str) -> np.ndarray:
    """8-bit P5 image as written by the program (no header comments) -> HxW in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    width, height = (int(t) for t in dims.split())
    if magic != b"P5" or maxval != b"255" or len(payload) != width * height:
        raise ValueError(f"{path}: not an 8-bit P5 image")
    return np.frombuffer(payload, np.uint8).reshape(height, width).astype(np.float32) / np.float32(255.0)


def net_layers(net):
    """(weights, bias, pad, relu) per layer of an in-memory network."""
    return [(l.weights, l.bias, l.spec.pad, l.spec.activation == "rectifier") for l in net.layers]


def reference_forward(layers, image: np.ndarray) -> np.ndarray:
    """float64 conv chain over one HxW image: zero pad, sliding windows, einsum."""
    h = image.astype(np.float64)[None]
    for w, b, pad, relu in layers:
        if pad:
            h = np.pad(h, ((0, 0), (pad, pad), (pad, pad)))
        k = w.shape[2]
        windows = sliding_window_view(h, (k, k), axis=(1, 2))
        h = np.einsum("chwij,ocij->ohw", windows, w.astype(np.float64), optimize=True)
        h += b.astype(np.float64)[:, None, None]
        if relu:
            h = np.maximum(h, 0.0)
    return h[0]


def crop_max_error(layers, image: np.ndarray, program_out: np.ndarray, rng, size: int = 24) -> float:
    """Max |program - reference| over one sampled output window.

    The reference runs on an input crop around the window. A zero-padded
    layer sees zeros at the crop edge where the full image has pixels, which
    corrupts one more ring per padded layer; the crop carries that margin and
    only the clean interior is compared.
    """
    margin = sum(1 for _, _, pad, _ in layers if pad)
    border = (image.shape[0] - program_out.shape[0]) // 2
    span = size + 2 * margin
    r0 = int(rng.integers(0, program_out.shape[0] - span + 1))
    c0 = int(rng.integers(0, program_out.shape[1] - span + 1))
    crop = image[r0 : r0 + span + 2 * border, c0 : c0 + span + 2 * border]
    ref = reference_forward(layers, crop)[margin : margin + size, margin : margin + size]
    got = program_out[r0 + margin : r0 + margin + size, c0 + margin : c0 + margin + size]
    return float(np.max(np.abs(got.astype(np.float64) - ref)))


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return math.inf if mse == 0 else 10.0 * math.log10(1.0 / mse)
