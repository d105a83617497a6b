"""Image IO, bicubic degradation, and LR/HR training patch extraction.

Images are 8-bit binary PGM (P5) only, mapped to [0, 1] grayscale tensors.
The LR side of a training pair is the bicubic down-then-up degraded image at
full size; the HR target is the centered window of the original, offset by
half the network's border shrink (8 pixels for the default patch geometry).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .ops import FLOAT, check_tensor4

PATCH_MAGIC = b"CTPD"
PATCH_FORMAT_VERSION = 1

# border lost through the unpadded 9/5/5 layers, per side
BORDER = 8


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb"):
    """Write through a temp file beside path that replaces path only when
    the block completes; on an error the temp file is removed and path is
    left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class ImageFormatError(ValueError):
    pass


class ManifestError(ValueError):
    pass


def check_keys(where: str, section, allowed: dict, error: type = ManifestError) -> None:
    """Refuse a JSON section that is not an object, or has a key or value type not in allowed."""
    if not isinstance(section, dict):
        raise error(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise error(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in section.items():
        kind = (int, float) if allowed[key] is float else allowed[key]  # an int counts as a float, a bool as neither
        if isinstance(value, bool) or not isinstance(value, kind):
            raise error(f"{where} key {key!r} must be {allowed[key].__name__}, got {value!r}")


def load_image(path: str) -> np.ndarray:
    """Read an 8-bit binary PGM into a 1x1xHxW tensor in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:2]
    if magic == b"P6":
        raise ImageFormatError(f"{path}: grayscale required (got color PPM)")
    if magic != b"P5":
        raise ImageFormatError(f"{path}: unsupported format {magic!r} (binary PGM required)")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise ImageFormatError(f"{path}: truncated header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: bad header tokens {tokens}") from exc
    if maxval != 255:
        raise ImageFormatError(f"{path}: only 8-bit (maxval 255) supported, got {maxval}")
    need = width * height
    payload = blob[pos : pos + need]
    if len(payload) < need:
        raise ImageFormatError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return (img.astype(FLOAT) / FLOAT(255.0))[None, None]


def save_image(tensor: np.ndarray, path: str) -> None:
    """Write a 1x1xHxW tensor in [0, 1] as binary PGM, through atomic_write."""
    check_tensor4(tensor, "image")
    if tensor.shape[0] != 1 or tensor.shape[1] != 1:
        raise ImageFormatError(f"expected 1x1xHxW image tensor, got {tensor.shape}")
    if not np.isfinite(tensor).all():
        raise ImageFormatError(f"{path}: non-finite pixel value, nothing written")
    img = np.clip(np.rint(tensor[0, 0].astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    with atomic_write(path) as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    ax = np.abs(x)
    return np.where(
        ax <= 1,
        (a + 2) * ax**3 - (a + 3) * ax**2 + 1,
        np.where(ax < 2, a * ax**3 - 5 * a * ax**2 + 8 * a * ax - 4 * a, 0.0),
    )


def resize_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic (n_out, n_in) cubic-convolution resampling matrix.

    Half-pixel-centered mapping, edge-clamped borders. When shrinking, the
    kernel is widened by the scale factor (anti-aliasing); each row is
    normalized so constants are preserved exactly.
    """
    scale = n_out / n_in
    centers = (np.arange(n_out) + 0.5) / scale - 0.5
    width = min(scale, 1.0)  # kernel scale: <1 widens support when shrinking
    support = 2.0 / width
    lo = np.floor(centers - support).astype(int) + 1
    n_taps = np.floor(centers + support).astype(int) - lo + 1
    # (row, tap) pairs in row-then-tap order, so clamped border taps sum in that order
    rows, k = np.nonzero(np.arange(n_taps.max()) < n_taps[:, None])
    taps = lo[rows] + k
    w = _cubic_kernel((centers[rows] - taps) * width) * width
    mat = np.zeros((n_out, n_in))
    np.add.at(mat, (rows, np.clip(taps, 0, n_in - 1)), w)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def bicubic_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable cubic-convolution (a = -0.5) resample of an NxCxHxW tensor."""
    check_tensor4(img, "image")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output dims must be >= 1, got {out_h}x{out_w}")
    mh = resize_weights(img.shape[2], out_h)
    mw = resize_weights(img.shape[3], out_w)
    out = np.matmul(np.matmul(mh, img.astype(np.float64)), mw.T)
    return out.astype(FLOAT)


def crop_to_multiple(img: np.ndarray, scale: int) -> np.ndarray:
    h = img.shape[2] // scale * scale
    w = img.shape[3] // scale * scale
    return img[:, :, :h, :w]


def degrade(hr: np.ndarray, scale: int) -> np.ndarray:
    """Bicubic downsample by the scale factor, then upsample back.

    The input is cropped down to dimensions divisible by the scale first;
    the output has the cropped size and is clipped to [0, 1] (cubic ringing
    can overshoot the valid pixel range).
    """
    hr = crop_to_multiple(hr, scale)
    h, w = hr.shape[2], hr.shape[3]
    lr = bicubic_resize(hr, h // scale, w // scale)
    return np.clip(bicubic_resize(lr, h, w), 0.0, 1.0)


@dataclass(frozen=True)
class PatchParams:
    lr_size: int = 33
    stride: int = 33
    hr_size: int = 17

    def __post_init__(self):
        if self.lr_size - 2 * BORDER != self.hr_size:
            raise ManifestError(
                f"lr_size - {2 * BORDER} must equal hr_size, got {self.lr_size}/{self.hr_size}"
            )
        if self.hr_size < 1:
            raise ManifestError(f"hr_size must be >= 1, so lr_size > {2 * BORDER}, got {self.lr_size}/{self.hr_size}")
        if self.stride < 1:
            raise ManifestError(f"stride must be >= 1, got {self.stride}")


@dataclass
class ManifestEntry:
    path: str
    role: str  # train | test

    def __post_init__(self):
        if self.role not in ("train", "test"):
            raise ManifestError(f"role must be train or test, got {self.role!r}")


def check_scale(scale: int) -> int:
    if scale not in (2, 3, 4):
        raise ManifestError(f"scale must be 2, 3 or 4, got {scale}")
    return scale


@dataclass
class DatasetManifest:
    images: list[ManifestEntry]
    scale: int = 2
    patch: PatchParams = field(default_factory=PatchParams)

    def __post_init__(self):
        check_scale(self.scale)

    def paths(self, role: str) -> list[str]:
        return [e.path for e in self.images if e.role == role]

    @staticmethod
    def from_json(path: str) -> "DatasetManifest":
        with open(path) as fh:
            raw = json.load(fh)
        check_keys("manifest", raw, {"images": list, "scale": int, "patch": dict})
        check_keys("manifest patch", raw.get("patch", {}), {"lr_size": int, "stride": int, "hr_size": int})
        for i, entry in enumerate(raw.get("images", [])):
            check_keys(f"manifest image {i}", entry, {"path": str, "role": str})
            if set(entry) != {"path", "role"}:
                raise ManifestError(f"manifest image {i} needs 'path' and 'role', got {sorted(entry)}")
        images = [ManifestEntry(**e) for e in raw.get("images", [])]
        return DatasetManifest(images=images, scale=raw.get("scale", 2), patch=PatchParams(**raw.get("patch", {})))

    def to_json(self, path: str) -> None:
        with atomic_write(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class PatchSet:
    lr: np.ndarray  # (N, 1, lr_size, lr_size) float32
    hr: np.ndarray  # (N, 1, hr_size, hr_size) float32

    def __post_init__(self):
        if self.lr.shape[0] != self.hr.shape[0]:
            raise ManifestError(f"LR/HR counts differ: {self.lr.shape[0]} vs {self.hr.shape[0]}")

    def __len__(self) -> int:
        return self.lr.shape[0]


def extract_patches(
    hr_image: np.ndarray,
    scale: int,
    params: PatchParams,
    source: str = "",
) -> PatchSet:
    """Cut aligned (LR, HR) patch pairs on the fixed stride grid."""
    hr = crop_to_multiple(hr_image, scale)
    lr_full = degrade(hr, scale)
    ps, hs, stride = params.lr_size, params.hr_size, params.stride
    h, w = hr.shape[2], hr.shape[3]
    if h < ps or w < ps:
        raise ManifestError(f"image {source or '<tensor>'} smaller than {ps}x{ps} after crop: {h}x{w}")
    grid = (slice(None), slice(0, h - ps + 1, stride), slice(0, w - ps + 1, stride))

    def cut(img: np.ndarray, size: int) -> np.ndarray:  # (C, H, W) -> (N, C, size, size), row-major grid order
        win = np.lib.stride_tricks.sliding_window_view(img, (size, size), axis=(1, 2))[grid]
        return np.array(win.transpose(1, 2, 0, 3, 4), order="C").reshape(-1, img.shape[0], size, size)

    return PatchSet(cut(lr_full[0], ps), cut(hr[0, :, BORDER:, BORDER:], hs))


def build_patches(manifest: DatasetManifest, role: str = "train"):
    """Extract patches from every image of the given role.

    Returns (PatchSet, warnings). Images too small for the patch grid are
    skipped and reported in the warnings list.
    """
    sets, warnings = [], []
    for path in manifest.paths(role):
        img = load_image(path)
        try:
            sets.append(extract_patches(img, manifest.scale, manifest.patch, source=path))
        except ManifestError as exc:
            warnings.append(str(exc))
    if not sets:
        empty_lr = np.zeros((0, 1, manifest.patch.lr_size, manifest.patch.lr_size), dtype=FLOAT)
        empty_hr = np.zeros((0, 1, manifest.patch.hr_size, manifest.patch.hr_size), dtype=FLOAT)
        return PatchSet(empty_lr, empty_hr), warnings
    return PatchSet(np.concatenate([s.lr for s in sets]), np.concatenate([s.hr for s in sets])), warnings


def save_patches(patches: PatchSet, path: str) -> None:
    """Binary patch cache: CTPD magic, version, N, lr dims, hr dims, payloads."""
    n = len(patches)
    header = PATCH_MAGIC + struct.pack(
        "<II", PATCH_FORMAT_VERSION, n
    ) + struct.pack("<III", *patches.lr.shape[1:]) + struct.pack("<III", *patches.hr.shape[1:])
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(patches.lr, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(patches.hr, dtype="<f4").tobytes())


def load_patches(path: str) -> PatchSet:
    """Read a patch cache; each array is read once, straight into its own
    writable float32 array."""
    with open(path, "rb") as fh:
        header = fh.read(36)
        if header[:4] != PATCH_MAGIC:
            raise ImageFormatError(f"{path}: bad magic {header[:4]!r}")
        try:
            version, n = struct.unpack_from("<II", header, 4)
            lr_dims = struct.unpack_from("<III", header, 12)
            hr_dims = struct.unpack_from("<III", header, 24)
        except struct.error as exc:
            raise ImageFormatError(f"{path}: truncated header") from exc
        if version != PATCH_FORMAT_VERSION:
            raise ImageFormatError(f"{path}: unsupported version {version}")
        lr_count = n * int(np.prod(lr_dims))
        hr_count = n * int(np.prod(hr_dims))
        if os.fstat(fh.fileno()).st_size != 36 + 4 * (lr_count + hr_count):
            raise ImageFormatError(f"{path}: payload size mismatch")
        lr = np.fromfile(fh, dtype="<f4", count=lr_count).reshape(n, *lr_dims)
        hr = np.fromfile(fh, dtype="<f4", count=hr_count).reshape(n, *hr_dims)
    return PatchSet(lr.astype(FLOAT, copy=False), hr.astype(FLOAT, copy=False))
