import json

import numpy as np
import pytest

from cascadesr import cli, data, model, ops
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


@pytest.fixture
def empty_cache(workspace, capsys):
    """The workspace with a patch cache of 0 pairs: every train image is smaller than a patch."""
    tmp, config, config_path = workspace
    manifest = data.DatasetManifest.from_json(config["manifest"])
    for entry in manifest.images:
        data.save_image(synthetic_image(np.random.default_rng(3), 16, 16), entry.path)
    assert cli.main(["prepare", "--config", str(config_path)]) == 0
    assert "0 patch pairs written" in capsys.readouterr().out
    return tmp, config, config_path


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

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda c: c.update(seed="x"), "'seed'"),
            (lambda c: c["train"].update(learning_rate="0.1"), "'learning_rate'"),
            (lambda c: c.update(trim={"rate": "half"}), "'rate'"),
            (lambda c: c.update(scale="3"), "'scale'"),
            (lambda c: c.update(train="oops"), "'train'"),
        ],
        ids=["seed", "learning_rate", "trim_rate", "scale", "train_section"],
    )
    def test_wrongly_typed_value_rejected_before_work(self, workspace, capsys, edit, key):
        tmp, config, config_path = workspace
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        capsys.readouterr()
        edit(config)
        rewrite(config_path, config)
        command = "trim" if "trim" in config else "train"
        assert cli.main([command, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("command", [["train"], ["train", "--mode", "trim_train"]], ids=["train", "trim_train"])
    @pytest.mark.parametrize("config_scale, flag", [(-1, []), (0, []), (7, []), (2, ["--scale", "7"])],
                             ids=["config-1", "config0", "config7", "flag7"])
    def test_scale_out_of_range_rejected_before_patch_cache(self, workspace, capsys, command, config_scale, flag):
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config["scale"] = config_scale
        rewrite(config_path, config)
        assert cli.main(command + flag + ["--config", str(config_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: scale must be 2, 3 or 4, got ")
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("mode", [[], ["--mode", "trim_train"]], ids=["cascade", "trim_train"])
    def test_empty_patch_cache_rejected(self, empty_cache, capsys, mode):
        tmp, config, config_path = empty_cache
        assert cli.main(["train", "--config", str(config_path)] + mode) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "empty patch set" in err[0]
        assert not list(tmp.rglob("*.ctsr"))

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
            sidecar = json.loads((tmp / "out" / f"trimmed-trimS{stage}.json").read_text())
            assert len(sidecar["stage_history"]) == 3 + stage  # the training stages, then trim stages 1..n
            checkpoint = model.load_model(str(tmp / "out" / f"trimmed-trimS{stage}.ctsr"))
            assert sidecar["stage_history"][-1]["param_count_after"] == model.param_count(checkpoint)
        assert not list((tmp / "logs").glob("trim_stage_*"))

    def test_slim_sidecar_lists_training_then_trim_stages(self, trained):
        tmp, config, config_path = trained
        assert cli.main(["trim", "--config", str(config_path)]) == 0
        history = json.loads((tmp / "out" / "trimmed.json").read_text())["stage_history"]
        assert [(s["depth"], s["removed_filters"]) for s in history[:3]] == [(3, {}), (5, {}), (7, {})]
        trims = history[3:]
        assert [sorted(s["removed_filters"]) for s in trims] == [["4", "5"], ["2", "3"], ["0", "1"]]
        for s in trims:
            assert s["depth"] == 7 and all(s["removed_filters"].values())
        slim = model.load_model(config["model_out"])
        assert history[-1]["param_count_after"] == model.param_count(slim)
        assert slim.stage_history == model.load_model(str(tmp / "out" / "trimmed-trimS3.ctsr")).stage_history

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
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        assert "model_in" not in config
        assert cli.main(["train", "--mode", "trim_train", "--config", str(config_path)]) == 0
        net = model.load_model(config["model_out"])
        assert net.scale == 3
        assert net.filter_counts() == [32] + [16] * 5 + [1]

    @pytest.mark.parametrize(
        "argv,trim,message",
        [
            (["--mode", "trim_train"], {}, "trim mode must be one of ['cascade', 'one_shot_independent'], got 'trim_train'"),
            (["--mode", "one_shot_greedy"], {}, "got 'one_shot_greedy'"),
            ([], {"mode": "one_shot_greedy"}, "got 'one_shot_greedy'"),
            ([], {"seed": 3}, "unknown trim config keys: ['seed']"),
            ([], {"rates": [0.5, 0.0]}, "unknown trim config keys: ['rates']"),
        ],
        ids=["mode_trim_train", "mode_greedy", "config_mode_greedy", "trim_seed", "trim_rates"],
    )
    def test_removed_mode_or_key_rejected_before_model_and_patch_cache(self, workspace, capsys, argv, trim, message):
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config["model_in"] = str(tmp / "absent.ctsr")
        config["trim"] = trim
        rewrite(config_path, config)
        assert cli.main(["trim", "--config", str(config_path)] + argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (tmp / "out").exists()

    def test_seed_without_fine_tuning_rejected_before_model(self, workspace, capsys):
        tmp, config, config_path = workspace
        del config["patches"]
        config["model_in"] = str(tmp / "absent.ctsr")  # reading it would fail with another error
        config["trim"] = {"mode": "one_shot_independent"}
        rewrite(config_path, config)
        assert cli.main(["trim", "--config", str(config_path), "--seed", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed has no effect") and "absent" not in err[0]
        assert not (tmp / "out").exists()

    def test_empty_patch_cache_rejected(self, empty_cache, capsys):
        tmp, config, config_path = empty_cache
        model_in = tmp / "parent.ctsr"
        model.save_model(model.build_network(5, ops.RngState(2)), str(model_in))
        config["model_in"] = str(model_in)
        rewrite(config_path, config)
        assert cli.main(["trim", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "empty patch set" in err[0]
        assert [p.name for p in tmp.rglob("*.ctsr")] == ["parent.ctsr"]

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


class TestFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["prepare", "--depth", "5"], "unrecognized arguments: --depth 5"),
            (["eval", "--mode", "foo"], "invalid choice"),
            (["trim", "--scale", "3"], "unrecognized arguments: --scale 3"),
        ],
    )
    def test_flag_the_command_does_not_read_rejected(self, workspace, capsys, argv, message):
        tmp, config, config_path = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(config_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestEvalInfer:
    def test_bicubic_eval_writes_reports(self, workspace, capsys):
        tmp, config, config_path = workspace
        assert cli.main(["eval", "--config", str(config_path), "--mode", "bicubic"]) == 0
        assert [p.name for p in (tmp / "logs").iterdir()] == ["eval_bicubic.json"]
        report = json.loads((tmp / "logs" / "eval_bicubic.json").read_text())
        assert report["net"] == "bicubic" and len(report["images"]) == 1
        assert report["images"][0]["error"] == "" and report["mean_psnr_db"] > 0
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
        assert not list((tmp / "logs").glob("eval_*.csv"))
        report = json.loads((tmp / "logs" / "eval_net-d3.json").read_text())
        assert report["net"] == "net-d3" and [r["error"] for r in report["images"]] == [""]
