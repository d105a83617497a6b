import json
import math

import numpy as np
import pytest

from cascadesr import data, evaluate, model, ops
from cascadesr.synth import make_corpus, synthetic_image


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        x = rng.random((1, 1, 8, 8), dtype=np.float32)
        assert math.isinf(evaluate.psnr(x, x.copy()))

    def test_uniform_error_reference(self):
        a = np.zeros((1, 1, 4, 4), np.float32)
        b = np.full((1, 1, 4, 4), 0.1, np.float32)
        assert evaluate.psnr(a, b) == pytest.approx(20.0, abs=1e-6)

    def test_matches_two_line_reference(self, rng):
        a = rng.random((1, 1, 16, 16), dtype=np.float32)
        b = rng.random((1, 1, 16, 16), dtype=np.float32)
        mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
        reference = 10 * np.log10(1.0 / mse)
        assert abs(evaluate.psnr(a, b) - reference) < 1e-9

    def test_dim_mismatch(self, rng):
        with pytest.raises(ops.ShapeMismatchError):
            evaluate.psnr(
                rng.random((1, 1, 4, 4), dtype=np.float32), rng.random((1, 1, 5, 5), dtype=np.float32)
            )


class TestSsim:
    def test_identical_is_one(self, rng):
        x = rng.random((1, 1, 16, 16), dtype=np.float32)
        assert evaluate.ssim(x, x.copy()) == pytest.approx(1.0)

    def test_constant_images_closed_form(self):
        a = np.full((1, 1, 16, 16), 0.9, np.float32)
        b = np.full((1, 1, 16, 16), 0.1, np.float32)
        va, vb = float(a[0, 0, 0, 0]), float(b[0, 0, 0, 0])
        c1, c2 = evaluate.SSIM_C1, evaluate.SSIM_C2
        expected = ((2 * va * vb + c1) * c2) / ((va**2 + vb**2 + c1) * c2)
        assert evaluate.ssim(a, b) == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self, rng):
        a = rng.random((1, 1, 20, 20), dtype=np.float32)
        b = rng.random((1, 1, 20, 20), dtype=np.float32)
        assert evaluate.ssim(a, b) == pytest.approx(evaluate.ssim(b, a), abs=1e-12)

    def test_range(self, rng):
        a = rng.random((1, 1, 24, 24), dtype=np.float32)
        b = 1.0 - a
        assert -1.0 <= evaluate.ssim(a, b) <= 1.0

    def test_window_size_guard(self, rng):
        small = rng.random((1, 1, 8, 8), dtype=np.float32)
        with pytest.raises(ops.ShapeMismatchError):
            evaluate.ssim(small, small.copy())


class TestInferImage:
    def test_33_to_17(self):
        net = model.build_base_network(ops.RngState(0))
        x = np.random.default_rng(0).random((1, 1, 33, 33), dtype=np.float32)
        assert evaluate.infer_image(net, x).shape == (1, 1, 17, 17)

    def test_shrinks_by_16(self):
        net = model.build_network(7, ops.RngState(0))
        x = np.random.default_rng(0).random((1, 1, 50, 41), dtype=np.float32)
        assert evaluate.infer_image(net, x).shape == (1, 1, 34, 25)

    def test_zero_net_zero_output(self):
        net = model.build_base_network(ops.RngState(0))
        for layer in net.layers:
            layer.weights[:] = 0
            layer.bias[:] = 0
        x = np.random.default_rng(0).random((1, 1, 33, 33), dtype=np.float32)
        assert not evaluate.infer_image(net, x).any()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest_path = make_corpus(str(root), n_train=1, n_test=3, image_size=72, seed=5)
    return data.DatasetManifest.from_json(manifest_path)


class TestBenchmark:
    def test_bicubic_baseline_rows(self, corpus):
        report = evaluate.benchmark(None, corpus)
        assert report.net_id == "bicubic"
        assert len(report.rows) == 3
        assert all(r.seconds >= 0 for r in report.rows)
        assert all(20.0 < r.psnr_db < 50.0 for r in report.rows)
        assert all(-1.0 <= r.ssim <= 1.0 for r in report.rows)

    def test_net_rows_match_border_crop(self, corpus):
        net = model.build_base_network(ops.RngState(1))
        report = evaluate.benchmark(net, corpus, net_id="fresh")
        assert len(report.rows) == 3
        assert not any(r.error for r in report.rows)

    def test_empty_test_set(self):
        manifest = data.DatasetManifest(images=[], scale=2)
        report = evaluate.benchmark(None, manifest)
        assert report.rows == []
        assert math.isnan(report.mean_psnr)

    def test_failures_marked(self, corpus, tmp_path):
        manifest = data.DatasetManifest(
            images=[data.ManifestEntry(str(tmp_path / "missing.pgm"), "test")], scale=2
        )
        report = evaluate.benchmark(None, manifest)
        assert report.rows[0].error

    def test_reports_written(self, corpus, tmp_path):
        report = evaluate.benchmark(None, corpus)
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        report.write_csv(str(csv_path))
        report.write_json(str(json_path))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "image,psnr_db,ssim,seconds"
        assert len(lines) == 4
        doc = json.loads(json_path.read_text())
        assert doc["mean_psnr_db"] == pytest.approx(report.mean_psnr)
        assert len(doc["images"]) == 3

    def test_infinite_psnr_flagged_in_json(self, tmp_path):
        report = evaluate.EvalReport(net_id="x", scale=2)
        report.rows.append(evaluate.EvalRow("img", math.inf, 1.0, 0.0))
        p = tmp_path / "r.json"
        report.write_json(str(p))
        doc = json.loads(p.read_text())
        assert doc["images"][0]["psnr_infinite"] is True
        assert doc["images"][0]["psnr_db"] is None

    def test_deterministic_metrics(self, corpus):
        a = evaluate.benchmark(None, corpus)
        b = evaluate.benchmark(None, corpus)
        assert [r.psnr_db for r in a.rows] == [r.psnr_db for r in b.rows]
        assert [r.ssim for r in a.rows] == [r.ssim for r in b.rows]

    def test_rows_follow_manifest_order(self, corpus):
        report = evaluate.benchmark(None, corpus)
        assert [r.image for r in report.rows] == corpus.paths("test")


class TestNetBorder:
    def test_family_border_is_8(self):
        for depth in (3, 7, 13):
            assert evaluate.net_border(model.build_network(depth, ops.RngState(0))) == 8
        assert evaluate.net_border(None) == 8
