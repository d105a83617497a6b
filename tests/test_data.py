import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadesr import data, model, ops
from cascadesr.synth import synthetic_image


class TestPgmIO:
    def test_load_scales_to_unit(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
        img = data.load_image(str(p))
        assert img.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(img[0, 0], [[0.0, 1.0], [0.0, 1.0]])

    def test_round_trip_exact(self, tmp_path, rng):
        raw = rng.integers(0, 256, (7, 9), dtype=np.uint8)
        p = tmp_path / "t.pgm"
        p.write_bytes(f"P5\n9 7\n255\n".encode() + raw.tobytes())
        img = data.load_image(str(p))
        q = tmp_path / "u.pgm"
        data.save_image(img, str(q))
        assert np.array_equal(data.load_image(str(q)), img)
        assert q.read_bytes() == p.read_bytes()

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
        img = data.load_image(str(p))
        assert img.shape == (1, 1, 1, 2)

    def test_color_rejected(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(data.ImageFormatError, match="grayscale required"):
            data.load_image(str(p))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2]))
        with pytest.raises(data.ImageFormatError, match="truncated"):
            data.load_image(str(p))

    def test_unsupported_magic(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(data.ImageFormatError, match="unsupported"):
            data.load_image(str(p))


def loop_resize_weights(n_in, n_out):
    """Reference: the per-row loop that data.resize_weights replaced."""
    scale = n_out / n_in
    centers = (np.arange(n_out) + 0.5) / scale - 0.5
    width = min(scale, 1.0)
    support = 2.0 / width
    mat = np.zeros((n_out, n_in))
    for i, u in enumerate(centers):
        lo = int(np.floor(u - support)) + 1
        taps = np.arange(lo, int(np.floor(u + support)) + 1)
        w = data._cubic_kernel((u - taps) * width) * width
        np.add.at(mat[i], np.clip(taps, 0, n_in - 1), w)
        mat[i] /= mat[i].sum()
    return mat


def loop_extract_patches(hr_image, scale, params):
    """Reference: the per-patch loop that data.extract_patches replaced."""
    hr = data.crop_to_multiple(hr_image, scale)
    lr_full = data.degrade(hr, scale)
    ps, hs, stride, b = params.lr_size, params.hr_size, params.stride, data.BORDER
    lrs, hrs = [], []
    for r in range(0, hr.shape[2] - ps + 1, stride):
        for c in range(0, hr.shape[3] - ps + 1, stride):
            lrs.append(lr_full[0, :, r : r + ps, c : c + ps])
            hrs.append(hr[0, :, r + b : r + b + hs, c + b : c + b + hs])
    return np.stack(lrs), np.stack(hrs)


class TestBicubicResize:
    @pytest.mark.parametrize("scale", [2, 3, 4])
    @pytest.mark.parametrize("n_small", [1, 2, 3, 4, 5, 7, 12, 45, 61])
    def test_weights_equal_row_loop_bit_for_bit(self, scale, n_small):
        for n_in, n_out in ((n_small * scale, n_small), (n_small, n_small * scale)):
            assert np.array_equal(data.resize_weights(n_in, n_out), loop_resize_weights(n_in, n_out))

    @pytest.mark.parametrize("n_in, n_out", [(1, 1), (3, 3), (4, 9), (9, 4), (2, 17), (17, 2), (180, 1), (5, 180)])
    def test_uneven_ratios_equal_row_loop_bit_for_bit(self, n_in, n_out):
        assert np.array_equal(data.resize_weights(n_in, n_out), loop_resize_weights(n_in, n_out))

    def test_identity_resample(self, rng):
        img = rng.random((1, 1, 9, 11), dtype=np.float32)
        out = data.bicubic_resize(img, 9, 11)
        assert np.abs(out - img).max() < 1e-6

    def test_constant_preserved(self):
        img = np.full((1, 1, 10, 10), 0.37, np.float32)
        out = data.bicubic_resize(img, 23, 7)
        assert np.abs(out - 0.37).max() < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        h=st.integers(4, 24), w=st.integers(4, 24), oh=st.integers(2, 30), ow=st.integers(2, 30),
        value=st.floats(0.0, 1.0),
    )
    def test_partition_of_unity(self, h, w, oh, ow, value):
        img = np.full((1, 1, h, w), value, np.float32)
        out = data.bicubic_resize(img, oh, ow)
        assert np.abs(out - value).max() < 1e-6

    def test_ramp_doubling_matches_kernel_formula(self):
        n = 12
        ramp = (np.arange(n, dtype=np.float32) / (n - 1)).reshape(1, 1, 1, n)
        img = np.repeat(ramp, 4, axis=2)
        out = data.bicubic_resize(img, 4, 2 * n)
        # direct evaluation: out[i] = sum_j kernel((u - j) / 2 scaled) ramp[clamp(j)]
        scale = 2.0
        for i in range(2 * n):
            u = (i + 0.5) / scale - 0.5
            lo = int(np.floor(u - 2.0)) + 1
            taps = np.arange(lo, int(np.floor(u + 2.0)) + 1)
            w = data._cubic_kernel(u - taps)
            w = w / w.sum()
            expected = float(np.sum(w * ramp[0, 0, 0, np.clip(taps, 0, n - 1)].astype(np.float64)))
            assert abs(float(out[0, 0, 1, i]) - expected) < 1e-6

    def test_bad_dims(self, rng):
        with pytest.raises(ValueError):
            data.bicubic_resize(rng.random((1, 1, 4, 4), dtype=np.float32), 0, 4)


class TestDegrade:
    def test_constant_unchanged(self):
        img = np.full((1, 1, 16, 16), 0.6, np.float32)
        out = data.degrade(img, 2)
        assert out.shape == img.shape
        assert np.abs(out - 0.6).max() < 1e-6

    def test_even_size_kept(self, rng):
        img = rng.random((1, 1, 34, 34), dtype=np.float32)
        assert data.degrade(img, 2).shape == (1, 1, 34, 34)

    def test_odd_size_cropped(self, rng):
        img = rng.random((1, 1, 35, 33), dtype=np.float32)
        assert data.degrade(img, 2).shape == (1, 1, 34, 32)

    def test_natural_image_psnr_plausible_and_reproducible(self):
        img = synthetic_image(np.random.default_rng(11), 96, 96)
        out1 = data.degrade(img, 2)
        out2 = data.degrade(img, 2)
        assert out1.tobytes() == out2.tobytes()
        mse = float(np.mean((out1.astype(np.float64) - img) ** 2))
        psnr = 10 * np.log10(1.0 / mse)
        assert 20.0 < psnr < 45.0


class TestExtractPatches:
    @pytest.mark.parametrize("scale", [2, 3])
    @pytest.mark.parametrize("shape, params", [
        ((70, 101), data.PatchParams()),  # stride equal to the patch size
        ((101, 70), data.PatchParams(33, 10, 17)),  # stride below it
        ((47, 90), data.PatchParams(21, 7, 5)),
        ((34, 70), data.PatchParams()),  # one grid row
        ((40, 45), data.PatchParams(33, 1, 17)),
    ])
    def test_grid_equals_patch_loop_bit_for_bit(self, scale, shape, params):
        img = synthetic_image(np.random.default_rng(sum(shape)), *shape)
        patches = data.extract_patches(img, scale, params)
        lr, hr = loop_extract_patches(img, scale, params)
        assert patches.lr.dtype == lr.dtype and patches.hr.dtype == hr.dtype
        assert np.array_equal(patches.lr, lr) and np.array_equal(patches.hr, hr)
        assert patches.lr.flags.c_contiguous and patches.lr.flags.writeable

    def test_66px_grid_yields_four_pairs(self):
        img = synthetic_image(np.random.default_rng(0), 66, 66)
        patches = data.extract_patches(img, 2, data.PatchParams(), source="img")
        assert len(patches) == 4
        assert patches.lr.shape == (4, 1, 33, 33)
        assert patches.hr.shape == (4, 1, 17, 17)

    def test_centres_align_with_offset_8(self):
        img = synthetic_image(np.random.default_rng(1), 66, 66)
        hr = data.crop_to_multiple(img, 2)
        patches = data.extract_patches(img, 2, data.PatchParams(), source="img")
        # HR patch (r+8 .. r+25) center == HR image pixel at (r+16, c+16)
        assert patches.hr[0, 0, 8, 8] == hr[0, 0, 16, 16]
        lr_full = data.degrade(hr, 2)
        assert patches.lr[0, 0, 16, 16] == lr_full[0, 0, 16, 16]

    def test_forward_shape_compatible(self):
        img = synthetic_image(np.random.default_rng(2), 66, 66)
        patches = data.extract_patches(img, 2, data.PatchParams(), source="img")
        net = model.build_network(3, ops.RngState(0))
        out = model.forward(net, patches.lr[:1])
        assert out.shape == patches.hr[:1].shape

    def test_too_small_image_raises(self):
        img = synthetic_image(np.random.default_rng(3), 20, 20)
        with pytest.raises(data.ManifestError, match="smaller"):
            data.extract_patches(img, 2, data.PatchParams(), source="small")

    def test_values_in_unit_range(self):
        img = synthetic_image(np.random.default_rng(4), 66, 66)
        p = data.extract_patches(img, 2, data.PatchParams(), source="img")
        for arr in (p.lr, p.hr):
            assert arr.min() >= 0.0 and arr.max() <= 1.0


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = data.DatasetManifest(
            images=[data.ManifestEntry("a.pgm", "train"), data.ManifestEntry("b.pgm", "test")],
            scale=3,
            patch=data.PatchParams(21, 10, 5),
        )
        p = tmp_path / "m.json"
        m.to_json(str(p))
        back = data.DatasetManifest.from_json(str(p))
        assert back.scale == 3
        assert back.patch == data.PatchParams(21, 10, 5)
        assert back.paths("train") == ["a.pgm"]

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"scale": 2, "extra": 1, "images": []}')
        with pytest.raises(data.ManifestError, match="unknown"):
            data.DatasetManifest.from_json(str(p))

    def test_patch_geometry_invariant(self):
        with pytest.raises(data.ManifestError):
            data.PatchParams(33, 33, 16)

    def test_scale_validated(self):
        with pytest.raises(data.ManifestError):
            data.DatasetManifest(images=[], scale=5)

    def test_build_patches_skips_small_images(self, tmp_path):
        big = tmp_path / "big.pgm"
        small = tmp_path / "small.pgm"
        data.save_image(synthetic_image(np.random.default_rng(0), 66, 66), str(big))
        data.save_image(synthetic_image(np.random.default_rng(1), 20, 20), str(small))
        manifest = data.DatasetManifest(
            images=[data.ManifestEntry(str(big), "train"), data.ManifestEntry(str(small), "train")]
        )
        patches, warnings = data.build_patches(manifest)
        assert len(patches) == 4
        assert len(warnings) == 1 and "small" in warnings[0]


class TestPatchCache:
    def test_round_trip_bytes(self, tmp_path):
        img = synthetic_image(np.random.default_rng(5), 66, 66)
        patches = data.extract_patches(img, 2, data.PatchParams(), source="x")
        p1, p2 = tmp_path / "a.ctpd", tmp_path / "b.ctpd"
        data.save_patches(patches, str(p1))
        loaded = data.load_patches(str(p1))
        assert np.array_equal(loaded.lr, patches.lr)
        assert np.array_equal(loaded.hr, patches.hr)
        data.save_patches(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ctpd"
        p.write_bytes(b"WHAT" + b"\x00" * 40)
        with pytest.raises(data.ImageFormatError, match="bad magic"):
            data.load_patches(str(p))

    def test_size_mismatch(self, tmp_path):
        img = synthetic_image(np.random.default_rng(6), 66, 66)
        patches = data.extract_patches(img, 2, data.PatchParams(), source="x")
        p = tmp_path / "x.ctpd"
        data.save_patches(patches, str(p))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(data.ImageFormatError, match="size"):
            data.load_patches(str(p))

    def test_load_holds_one_copy(self, tmp_path):
        r = np.random.default_rng(8)
        patches = data.PatchSet(
            r.random((300, 1, 33, 33), dtype=np.float32), r.random((300, 1, 17, 17), dtype=np.float32)
        )
        p = tmp_path / "x.ctpd"
        data.save_patches(patches, str(p))
        payload = patches.lr.nbytes + patches.hr.nbytes
        tracemalloc.start()
        try:
            loaded = data.load_patches(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * payload
        assert loaded.lr.dtype == np.float32 and loaded.lr.flags.writeable and loaded.hr.flags.writeable
        np.testing.assert_array_equal(loaded.hr, patches.hr)

    def test_failed_save_leaves_old_cache(self, tmp_path, monkeypatch):
        img = synthetic_image(np.random.default_rng(9), 66, 66)
        patches = data.extract_patches(img, 2, data.PatchParams(), source="x")
        p = tmp_path / "x.ctpd"
        data.save_patches(patches, str(p))
        before = p.read_bytes()
        calls = []
        real = np.ascontiguousarray

        def fail_on_second(a, dtype=None):
            calls.append(a)
            if len(calls) == 2:  # the header and the LR payload are written by now
                raise OSError("disk full")
            return real(a, dtype=dtype)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_second)
        shuffled = data.PatchSet(patches.lr[::-1], patches.hr[::-1])
        with pytest.raises(OSError, match="disk full"):
            data.save_patches(shuffled, str(p))
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["x.ctpd"]
