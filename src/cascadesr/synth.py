"""Synthetic grayscale test imagery for desk-scale experiments.

Generates reproducible images with both smooth structure and genuine
high-frequency content (sharp rectangles, fine sinusoid texture, light
noise), so bicubic degradation actually loses information and a trained
network has something to recover. Not a substitute for benchmark datasets;
the desk protocol of the acceptance tests, scripts/make_corpus.py and the
test suite use it when no real images are supplied.
"""

from __future__ import annotations

import os

import numpy as np

from .data import DatasetManifest, ManifestEntry, PatchParams, save_image
from .ops import FLOAT


def synthetic_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """One 1x1xHxW image in [0.07, 0.92] with mixed frequency content."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    img = np.zeros((height, width), dtype=np.float64)
    for _ in range(4):
        fx, fy = rng.uniform(0.005, 0.05, 2)
        img += rng.uniform(0.3, 1.0) * np.cos(2 * np.pi * (fx * xx + fy * yy) + rng.uniform(0, 2 * np.pi))
    for _ in range(5):
        fx, fy = rng.uniform(0.08, 0.35, 2)
        img += rng.uniform(0.1, 0.35) * np.cos(2 * np.pi * (fx * xx + fy * yy) + rng.uniform(0, 2 * np.pi))
    for _ in range(10):
        r0 = int(rng.integers(0, max(1, height - 8)))
        c0 = int(rng.integers(0, max(1, width - 8)))
        r1 = r0 + int(rng.integers(4, max(5, height // 2)))
        c1 = c0 + int(rng.integers(4, max(5, width // 2)))
        img[r0:min(r1, height), c0:min(c1, width)] += rng.uniform(-0.9, 0.9)
    noise = rng.standard_normal((height, width))
    noise = (noise + np.roll(noise, 1, 0) + np.roll(noise, 1, 1)) / 3.0
    img += 0.15 * noise
    img -= img.min()
    img /= max(img.max(), 1e-9)
    return (img * 0.85 + 0.07).astype(FLOAT)[None, None]


def make_corpus(
    out_dir: str,
    n_train: int = 20,
    n_test: int = 5,
    image_size: int = 180,
    seed: int = 0,
    scale: int = 2,
    patch: PatchParams | None = None,
) -> str:
    """Write a PGM corpus plus manifest.json into out_dir; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    entries = []
    for role, count in (("train", n_train), ("test", n_test)):
        for i in range(count):
            path = os.path.join(out_dir, f"{role}_{i:03d}.pgm")
            save_image(synthetic_image(rng, image_size, image_size), path)
            entries.append(ManifestEntry(path=path, role=role))
    manifest = DatasetManifest(images=entries, scale=scale, patch=patch or PatchParams())
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest.to_json(manifest_path)
    return manifest_path
