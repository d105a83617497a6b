import json

import numpy as np
import pytest

from cascadesr import cli, data, model
from cascadesr.synth import make_corpus, synthetic_image


@pytest.fixture
def workspace(tmp_path):
    """Corpus of two 66x66 train images + one test image, plus a config."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(17)
    entries = []
    for i in range(2):
        p = corpus / f"train_{i}.pgm"
        data.save_image(synthetic_image(rng, 66, 66), str(p))
        entries.append(data.ManifestEntry(str(p), "train"))
    test_img = corpus / "test_0.pgm"
    data.save_image(synthetic_image(rng, 66, 66), str(test_img))
    entries.append(data.ManifestEntry(str(test_img), "test"))
    manifest = data.DatasetManifest(images=entries, scale=2)
    manifest_path = tmp_path / "manifest.json"
    manifest.to_json(str(manifest_path))
    config = {
        "seed": 5,
        "scale": 2,
        "manifest": str(manifest_path),
        "patches": str(tmp_path / "train.ctpd"),
        "model_out": str(tmp_path / "out" / "model.ctsr"),
        "log_dir": str(tmp_path / "logs"),
        "train": {
            "mode": "cascade",
            "learning_rate": 0.05,
            "plateau_threshold": 0.03,
            "target_depth": 7,
            "batch_size": 4,
            "max_epochs_per_stage": 1,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config, config_path


def rewrite(config_path, config):
    config_path.write_text(json.dumps(config))


class TestPrepare:
    def test_reports_patch_count(self, workspace, capsys):
        tmp, config, config_path = workspace
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        assert "8 patch pairs written" in capsys.readouterr().out

    def test_rerun_byte_identical(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        first = (tmp / "train.ctpd").read_bytes()
        cli.main(["prepare", "--config", str(config_path)])
        assert (tmp / "train.ctpd").read_bytes() == first

    def test_config_scale_used_when_no_flag(self, workspace):
        tmp, config, config_path = workspace
        assert cli.main(["prepare", "--config", str(config_path), "--scale", "3"]) == 0
        flagged = (tmp / "train.ctpd").read_bytes()
        config["scale"] = 3  # the manifest says x2
        rewrite(config_path, config)
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        assert (tmp / "train.ctpd").read_bytes() == flagged

    def test_missing_image_names_path(self, workspace, capsys):
        tmp, config, config_path = workspace
        manifest = data.DatasetManifest.from_json(config["manifest"])
        manifest.images.append(data.ManifestEntry(str(tmp / "nope.pgm"), "train"))
        manifest.to_json(config["manifest"])
        assert cli.main(["prepare", "--config", str(config_path)]) == 1
        assert "nope.pgm" in capsys.readouterr().err


class TestTrain:
    def test_cascade_writes_stage_checkpoints(self, workspace, capsys):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path)]) == 0
        for d in (3, 5, 7):
            assert (tmp / "out" / f"model-d{d}.ctsr").exists()
        assert (tmp / "logs" / "train_log.csv").exists()
        out = capsys.readouterr().out
        assert "94048" in out.replace(",", "")

    def test_checkpoint_param_count_matches_table(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path)])
        net = model.load_model(str(tmp / "out" / "model-d5.ctsr"))
        assert model.param_count(net) == 75_616

    def test_same_seed_identical_bytes(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path)])
        first = (tmp / "out" / "model.ctsr").read_bytes()
        cli.main(["train", "--config", str(config_path)])
        assert (tmp / "out" / "model.ctsr").read_bytes() == first

    def test_depth_flag_overrides(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path), "--depth", "5"]) == 0
        net = model.load_model(str(tmp / "out" / "model.ctsr"))
        assert net.depth == 5

    def test_unknown_config_key_rejected(self, workspace, capsys):
        tmp, config, config_path = workspace
        config["surprise"] = True
        rewrite(config_path, config)
        assert cli.main(["train", "--config", str(config_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err
        del config["surprise"]
        config["train"]["insert_count"] = 2
        rewrite(config_path, config)
        assert cli.main(["train", "--config", str(config_path)]) == 1
        assert "unknown train config keys: ['insert_count']" in capsys.readouterr().err

    def test_bad_config_invariant_rejected(self, workspace, capsys):
        tmp, config, config_path = workspace
        config["train"]["target_depth"] = 4
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path)]) == 1
        assert "target_depth" in capsys.readouterr().err

    def test_unknown_train_mode_rejected(self, workspace, capsys):
        tmp, config, config_path = workspace
        config["train"]["mode"] = "sideways"
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path)]) == 1
        assert "sideways" in capsys.readouterr().err


class TestTrim:
    @pytest.fixture
    def trained(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path)])
        config["model_in"] = config["model_out"]
        config["model_out"] = str(tmp / "out" / "trimmed.ctsr")
        config["trim"] = {"mode": "cascade", "rate": 0.5}
        rewrite(config_path, config)
        return tmp, config, config_path

    def test_cascade_stage_checkpoints(self, trained):
        tmp, config, config_path = trained
        assert cli.main(["trim", "--config", str(config_path)]) == 0
        for stage in (1, 2, 3):
            assert (tmp / "out" / f"trimmed-trimS{stage}.ctsr").exists()
            assert (tmp / "logs" / f"trim_stage_{stage}.json").exists()

    def test_missing_model_fails(self, trained, capsys):
        tmp, config, config_path = trained
        config["model_in"] = str(tmp / "absent.ctsr")
        rewrite(config_path, config)
        assert cli.main(["trim", "--config", str(config_path)]) == 1
        assert "absent" in capsys.readouterr().err

    def test_trim_train_needs_no_model_and_keeps_scale(self, workspace):
        tmp, config, config_path = workspace
        config["scale"] = 3
        config["model_out"] = str(tmp / "out" / "slim.ctsr")
        config["trim"] = {"mode": "trim_train"}
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        assert "model_in" not in config
        assert cli.main(["trim", "--config", str(config_path)]) == 0
        net = model.load_model(config["model_out"])
        assert net.scale == 3
        assert net.filter_counts() == [32] + [16] * 5 + [1]

    def test_zero_rate_one_shot_keeps_weights(self, trained):
        tmp, config, config_path = trained
        config["trim"] = {"mode": "one_shot_independent", "rate": 0.0}
        rewrite(config_path, config)
        assert cli.main(["trim", "--config", str(config_path)]) == 0
        # fine-tuning is part of one-shot trimming, so compare architectures and
        # the surgery identity via a fresh run without patches
        parent = model.load_model(config["model_in"])
        import cascadesr.trimming as trimming

        out, _ = trimming.one_shot_trim(parent, trimming.default_plan(parent.depth, "one_shot_independent", 0.0))
        assert [l.weights.tobytes() for l in out.layers] == [l.weights.tobytes() for l in parent.layers]


class TestEvalInfer:
    def test_bicubic_eval_writes_reports(self, workspace, capsys):
        tmp, config, config_path = workspace
        assert cli.main(["eval", "--config", str(config_path), "--mode", "bicubic"]) == 0
        assert (tmp / "logs" / "eval_bicubic.csv").exists()
        assert (tmp / "logs" / "eval_bicubic.json").exists()
        assert "mean PSNR" in capsys.readouterr().out

    def test_infer_33_to_17(self, workspace, capsys):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--depth", "3"])
        lr_img = synthetic_image(np.random.default_rng(1), 33, 33)
        src = tmp / "in.pgm"
        data.save_image(lr_img, str(src))
        dst = tmp / "sr.pgm"
        code = cli.main(
            ["infer", "--config", str(config_path), "--model", config["model_out"], str(src), "--out", str(dst)]
        )
        assert code == 0
        out_img = data.load_image(str(dst))
        assert out_img.shape == (1, 1, 17, 17)

    def test_eval_model_path(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--depth", "3"])
        assert cli.main(["eval", "--config", str(config_path), "--model", config["model_out"]]) == 0
        assert (tmp / "logs" / "eval_net-d3.csv").exists()
