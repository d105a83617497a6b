import argparse
import json
import pathlib
import re
from dataclasses import replace

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


def model_path(tmp) -> str:
    """Where the tests' `train` writes its model (flags name models; the config names none)."""
    return str(tmp / "out" / "model.ctsr")


def file_flags(command: str, tmp) -> list:
    """The file flags a command cannot run without, naming files that do not exist yet."""
    return {"train": ["--out", model_path(tmp)],
            "trim": ["--model", str(tmp / "absent.ctsr"), "--out", str(tmp / "out" / "trimmed.ctsr")],
            "eval": ["--mode", "bicubic"]}.get(command, [])


def exit_status(argv) -> int:
    """cli.main's return value, or the parser's exit status when it refuses the arguments."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


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
        manifest = data.DatasetManifest.from_json(config["manifest"])
        replace(manifest, scale=3).to_json(config["manifest"])
        del config["scale"]
        rewrite(config_path, config)
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        from_manifest = (tmp / "train.ctpd").read_bytes()
        manifest.to_json(config["manifest"])  # back to x2
        config["scale"] = 3
        rewrite(config_path, config)
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        assert (tmp / "train.ctpd").read_bytes() == from_manifest

    def test_missing_image_names_path(self, workspace, capsys):
        tmp, config, config_path = workspace
        manifest = data.DatasetManifest.from_json(config["manifest"])
        manifest.images.append(data.ManifestEntry(str(tmp / "nope.pgm"), "train"))
        manifest.to_json(config["manifest"])
        assert cli.main(["prepare", "--config", str(config_path)]) == 1
        assert "nope.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: {**m, "patch": {**m["patch"], "size": 9}}, "unknown manifest patch keys: ['size']"),
            (lambda m: {**m, "images": [{"path": m["images"][0]["path"]}]},
             "manifest image 0 needs 'path' and 'role', got ['path']"),
            (lambda m: {**m, "patch": {**m["patch"], "lr_size": "33"}},
             "manifest patch key 'lr_size' must be int, got '33'"),
            (lambda m: [1, 2], "manifest must be a JSON object, got [1, 2]"),
        ],
        ids=["unknown_patch_key", "entry_without_role", "string_lr_size", "json_list"],
    )
    def test_malformed_manifest_rejected(self, workspace, capsys, edit, message):
        tmp, config, config_path = workspace
        manifest = json.loads(pathlib.Path(config["manifest"]).read_text())
        pathlib.Path(config["manifest"]).write_text(json.dumps(edit(manifest)))
        assert cli.main(["prepare", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp / "train.ctpd").exists()


class TestTrain:
    def test_cascade_writes_stage_checkpoints(self, workspace, capsys):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 0
        for d in (3, 5, 7):
            assert (tmp / "out" / f"model-d{d}.ctsr").exists()
        assert (tmp / "logs" / "train_log.csv").exists()
        out = capsys.readouterr().out
        assert "94048" in out.replace(",", "")

    def test_checkpoint_param_count_matches_table(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)])
        net = model.load_model(str(tmp / "out" / "model-d5.ctsr"))
        assert model.param_count(net) == 75_616

    def test_same_seed_identical_bytes(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)])
        first = (tmp / "out" / "model.ctsr").read_bytes()
        cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)])
        assert (tmp / "out" / "model.ctsr").read_bytes() == first

    def test_config_target_depth_used(self, workspace):
        tmp, config, config_path = workspace
        config["train"]["target_depth"] = 5
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 0
        net = model.load_model(str(tmp / "out" / "model.ctsr"))
        assert net.depth == 5

    def test_unknown_config_key_rejected(self, workspace, capsys):
        tmp, config, config_path = workspace
        config["surprise"] = True
        rewrite(config_path, config)
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 1
        assert "unknown config keys" in capsys.readouterr().err
        del config["surprise"]
        config["train"]["insert_count"] = 2
        rewrite(config_path, config)
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 1
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
        assert cli.main([command, "--config", str(config_path)] + file_flags(command, tmp)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("mode", ["cascade", "trim_train"], ids=["train", "trim_train"])
    @pytest.mark.parametrize(
        "config_scale,flag,message",
        [
            (-1, [], "error: scale must be 2, 3 or 4, got -1"),
            (0, [], "error: scale must be 2, 3 or 4, got 0"),
            (7, [], "error: scale must be 2, 3 or 4, got 7"),
            # a scale comes from the config only: the parser refuses one on the command line
            (2, ["--scale", "7"], "cascadesr: error: unrecognized arguments: --scale 7"),
        ],
        ids=["config-1", "config0", "config7", "flag7"],
    )
    def test_scale_out_of_range_rejected_before_patch_cache(self, workspace, capsys, mode, config_scale, flag,
                                                            message):
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config["scale"] = config_scale
        config["train"]["mode"] = mode
        rewrite(config_path, config)
        argv = ["train", "--config", str(config_path), "--out", model_path(tmp)] + flag
        assert exit_status(argv) == (2 if flag else 1)
        err = [line for line in capsys.readouterr().err.strip().splitlines() if not line.startswith("usage:")]
        assert err == [message]
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("mode", ["cascade", "trim_train"])
    def test_empty_patch_cache_rejected(self, empty_cache, capsys, mode):
        tmp, config, config_path = empty_cache
        config["train"]["mode"] = mode
        rewrite(config_path, config)
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "empty patch set" in err[0]
        assert not list(tmp.rglob("*.ctsr"))

    def test_manifest_scale_used_when_config_names_none(self, workspace):
        tmp, config, config_path = workspace
        manifest = data.DatasetManifest.from_json(config["manifest"])
        replace(manifest, scale=3).to_json(config["manifest"])
        del config["scale"]
        config["train"]["target_depth"] = 3
        rewrite(config_path, config)
        assert cli.main(["prepare", "--config", str(config_path)]) == 0
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 0
        assert model.load_model(model_path(tmp)).scale == 3

    def test_bad_config_invariant_rejected(self, workspace, capsys):
        tmp, config, config_path = workspace
        config["train"]["target_depth"] = 4
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 1
        assert "target_depth" in capsys.readouterr().err

    def test_unknown_train_mode_rejected(self, workspace, capsys):
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config["train"]["mode"] = "sideways"
        rewrite(config_path, config)
        assert cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: train mode must be one of") and "'sideways'" in err[0]
        assert not (tmp / "out").exists()


def trim_argv(tmp, config_path, parent=None) -> list:
    """trim of the trained model (or of parent) into out/trimmed.ctsr."""
    return ["trim", "--config", str(config_path), "--model", parent or model_path(tmp),
            "--out", str(tmp / "out" / "trimmed.ctsr")]


class TestTrim:
    @pytest.fixture
    def trained(self, workspace):
        tmp, config, config_path = workspace
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)])
        config["trim"] = {"mode": "cascade", "rate": 0.5}
        rewrite(config_path, config)
        return tmp, config, config_path

    def test_cascade_stage_checkpoints(self, trained):
        tmp, config, config_path = trained
        assert cli.main(trim_argv(tmp, config_path)) == 0
        for stage in (1, 2, 3):
            sidecar = json.loads((tmp / "out" / f"trimmed-trimS{stage}.json").read_text())
            assert len(sidecar["stage_history"]) == 3 + stage  # the training stages, then trim stages 1..n
            checkpoint = model.load_model(str(tmp / "out" / f"trimmed-trimS{stage}.ctsr"))
            assert sidecar["stage_history"][-1]["param_count_after"] == model.param_count(checkpoint)
        assert not list((tmp / "logs").glob("trim_stage_*"))

    def test_slim_sidecar_lists_training_then_trim_stages(self, trained):
        tmp, config, config_path = trained
        assert cli.main(trim_argv(tmp, config_path)) == 0
        history = json.loads((tmp / "out" / "trimmed.json").read_text())["stage_history"]
        assert [(s["depth"], s["removed_filters"]) for s in history[:3]] == [(3, {}), (5, {}), (7, {})]
        trims = history[3:]
        assert [sorted(s["removed_filters"]) for s in trims] == [["4", "5"], ["2", "3"], ["0", "1"]]
        for s in trims:
            assert s["depth"] == 7 and all(s["removed_filters"].values())
        slim = model.load_model(str(tmp / "out" / "trimmed.ctsr"))
        assert history[-1]["param_count_after"] == model.param_count(slim)
        assert slim.stage_history == model.load_model(str(tmp / "out" / "trimmed-trimS3.ctsr")).stage_history

    def test_missing_model_fails(self, trained, capsys):
        tmp, config, config_path = trained
        assert cli.main(trim_argv(tmp, config_path, str(tmp / "absent.ctsr"))) == 1
        assert "absent" in capsys.readouterr().err

    def test_trim_train_needs_no_model_and_keeps_scale(self, workspace):
        tmp, config, config_path = workspace
        config["scale"] = 3
        config["train"]["mode"] = "trim_train"
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        slim = str(tmp / "out" / "slim.ctsr")
        assert cli.main(["train", "--config", str(config_path), "--out", slim]) == 0
        net = model.load_model(slim)
        assert net.scale == 3
        assert net.filter_counts() == [32] + [16] * 5 + [1]

    @pytest.mark.parametrize(
        "argv,trim,message",
        [
            ([], {"mode": "trim_train"},
             "error: trim mode must be one of ['cascade', 'one_shot_independent'], got 'trim_train'"),
            # a trim mode comes from the config only: the parser refuses one on the command line
            (["--mode", "one_shot_greedy"], {}, "cascadesr: error: unrecognized arguments: --mode one_shot_greedy"),
            ([], {"mode": "one_shot_greedy"},
             "error: trim mode must be one of ['cascade', 'one_shot_independent'], got 'one_shot_greedy'"),
            ([], {"seed": 3}, "error: unknown trim config keys: ['seed']"),
            ([], {"rates": [0.5, 0.0]}, "error: unknown trim config keys: ['rates']"),
        ],
        ids=["mode_trim_train", "mode_greedy", "config_mode_greedy", "trim_seed", "trim_rates"],
    )
    def test_removed_mode_or_key_rejected_before_model_and_patch_cache(self, workspace, capsys, argv, trim, message):
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config["trim"] = trim
        rewrite(config_path, config)
        argv_all = ["trim", "--config", str(config_path)] + file_flags("trim", tmp) + argv
        assert exit_status(argv_all) == (2 if argv else 1)
        err = [line for line in capsys.readouterr().err.strip().splitlines() if not line.startswith("usage:")]
        assert err == [message]
        assert not (tmp / "out").exists()

    def test_bad_train_section_rejected_before_model_and_patch_cache(self, workspace, capsys):
        # fine-tuning reads the train section, so trim checks it before any work
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config["train"]["mode"] = "sideways"
        rewrite(config_path, config)
        assert cli.main(["trim", "--config", str(config_path)] + file_flags("trim", tmp)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: train mode must be one of") and "'sideways'" in err[0]
        assert not (tmp / "out").exists()

    def test_empty_patch_cache_rejected(self, empty_cache, capsys):
        tmp, config, config_path = empty_cache
        model_in = tmp / "parent.ctsr"
        model.save_model(model.build_network(5, ops.RngState(2)), str(model_in))
        assert cli.main(trim_argv(tmp, config_path, str(model_in))) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "empty patch set" in err[0]
        assert [p.name for p in tmp.rglob("*.ctsr")] == ["parent.ctsr"]

    def test_zero_rate_one_shot_keeps_weights(self, trained):
        tmp, config, config_path = trained
        config["trim"] = {"mode": "one_shot_independent", "rate": 0.0}
        rewrite(config_path, config)
        assert cli.main(trim_argv(tmp, config_path)) == 0
        # fine-tuning is part of one-shot trimming, so compare architectures and
        # the surgery identity via a fresh run without patches
        parent = model.load_model(model_path(tmp))
        import cascadesr.trimming as trimming

        out, _ = trimming.trim(parent, None, None, trimming.TrimPlan("one_shot_independent", rate=0.0))
        assert [l.weights.tobytes() for l in out.layers] == [l.weights.tobytes() for l in parent.layers]


class TestFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["prepare", "--depth", "5"], "unrecognized arguments: --depth 5"),
            (["eval", "--mode", "foo"], "invalid choice"),
            (["trim", "--scale", "3"], "unrecognized arguments: --scale 3"),
            # prepare writes the patch cache the config names, and infer reads nothing from a config
            (["prepare", "--out", "x.ctpd"], "unrecognized arguments: --out x.ctpd"),
            (["infer", "--model", "m.ctsr", "in.pgm", "--out", "sr.pgm"], "unrecognized arguments: --config"),
        ],
    )
    def test_flag_the_command_does_not_read_rejected(self, workspace, capsys, argv, message):
        tmp, config, config_path = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(config_path)] + file_flags(argv[0], tmp))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_eval_refuses_model_with_bicubic_mode(self, workspace, capsys):
        # the bicubic baseline reads no model, so naming one is refused rather than ignored
        tmp, config, config_path = workspace
        argv = ["eval", "--config", str(config_path), "--mode", "bicubic", "--model", str(tmp / "absent.ctsr"),
                "--out", str(tmp / "logs")]
        assert exit_status(argv) == 2
        assert "argument --model: not allowed with argument --mode" in capsys.readouterr().err
        assert not (tmp / "logs").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--scale", "3"],
            ["train", "--seed", "1"],
            ["train", "--mode", "one_shot"],
            ["train", "--depth", "5"],
            ["train", "--scale", "3"],
            ["trim", "--seed", "1"],
            ["trim", "--mode", "cascade"],
            ["eval", "--scale", "3"],
        ],
        ids=lambda argv: "".join(argv[:2]),
    )
    def test_run_parameter_flag_rejected(self, workspace, capsys, argv):
        # run parameters come from the config only
        tmp, config, config_path = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(config_path)] + file_flags(argv[0], tmp))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_readme_flag_table_matches_parser(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = {}
        for line in readme.split("\n## CLI\n", 1)[1].splitlines():
            cells = line.split("|")[1:-1]
            if len(cells) == 2 and cells[0].strip().startswith("`"):
                table[cells[0].strip(" `")] = [code.split()[0] for code in re.findall(r"`([^`]+)`", cells[1])]
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        options = {
            name: [a.option_strings[0] if a.option_strings else a.dest for a in p._actions if a.dest != "help"]
            for name, p in commands.items()
        }
        assert table == options
        assert sum(len(v) for v in options.values()) == 13

    def test_readme_run_json_is_a_valid_config(self, tmp_path):
        # the README's example config names only keys the CLI accepts
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = tmp_path / "run.json"
        example.write_text(readme.split("cat > run.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
        config = cli.load_config(str(example))
        assert {"manifest", "patches", "train", "trim"} <= set(config)

    @pytest.mark.parametrize("command", ["train", "trim"])
    @pytest.mark.parametrize("key", ["model_in", "model_out"])
    def test_model_path_config_key_rejected_before_any_file_is_read(self, workspace, capsys, command, key):
        # flags name models: the config has no key for one
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config[key] = str(tmp / "absent.ctsr")
        rewrite(config_path, config)
        assert cli.main([command, "--config", str(config_path)] + file_flags(command, tmp)) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: unknown config keys: ['{key}']"]
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["train"], "the following arguments are required: --out"),
            (["trim", "--out", "slim.ctsr"], "the following arguments are required: --model"),
            (["eval", "--out", "reports"], "one of the arguments --model --mode is required"),
            (["infer", "--model", "m.ctsr", "--out", "sr.pgm"], "the following arguments are required: input"),
        ],
        ids=["train", "trim", "eval", "infer"],
    )
    def test_missing_file_flag_refused_before_patch_cache(self, workspace, capsys, argv, message):
        tmp, config, config_path = workspace
        (tmp / "train.ctpd").write_bytes(b"not a patch cache")  # reading it would fail with another error
        config_flag = [] if argv[0] == "infer" else ["--config", str(config_path)]
        assert exit_status(argv + config_flag) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "out").exists() and not (tmp / "logs").exists()


class TestEvalInfer:
    def test_bicubic_eval_writes_reports(self, workspace, capsys):
        tmp, config, config_path = workspace
        assert cli.main(["eval", "--config", str(config_path), "--mode", "bicubic", "--out", str(tmp / "logs")]) == 0
        assert [p.name for p in (tmp / "logs").iterdir()] == ["eval_bicubic.json"]
        report = json.loads((tmp / "logs" / "eval_bicubic.json").read_text())
        assert report["net"] == "bicubic" and len(report["images"]) == 1
        assert report["images"][0]["error"] == "" and report["mean_psnr_db"] > 0
        assert "mean PSNR" in capsys.readouterr().out

    def test_infer_33_to_17(self, workspace, capsys):
        tmp, config, config_path = workspace
        config["train"]["target_depth"] = 3
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)])
        lr_img = synthetic_image(np.random.default_rng(1), 33, 33)
        src = tmp / "in.pgm"
        data.save_image(lr_img, str(src))
        dst = tmp / "sr.pgm"
        code = cli.main(["infer", "--model", model_path(tmp), str(src), "--out", str(dst)])
        assert code == 0
        out_img = data.load_image(str(dst))
        assert out_img.shape == (1, 1, 17, 17)

    def test_eval_model_path(self, workspace):
        tmp, config, config_path = workspace
        config["train"]["target_depth"] = 3
        rewrite(config_path, config)
        cli.main(["prepare", "--config", str(config_path)])
        cli.main(["train", "--config", str(config_path), "--out", model_path(tmp)])
        argv = ["eval", "--config", str(config_path), "--model", model_path(tmp), "--out", str(tmp / "logs")]
        assert cli.main(argv) == 0
        assert not list((tmp / "logs").glob("eval_*.csv"))
        report = json.loads((tmp / "logs" / "eval_net-d3.json").read_text())
        assert report["net"] == "net-d3" and [r["error"] for r in report["images"]] == [""]

    @staticmethod
    def nan_model(tmp) -> str:
        net = model.build_network(3, ops.RngState(0))
        net.layers[1].weights[0, 0, 2, 2] = np.nan
        model.save_model(net, str(tmp / "nan.ctsr"))
        return str(tmp / "nan.ctsr")

    def test_eval_fails_on_non_finite_output(self, workspace, capsys):
        tmp, config, config_path = workspace
        argv = ["eval", "--config", str(config_path), "--model", self.nan_model(tmp), "--out", str(tmp / "logs")]
        assert cli.main(argv) == 1
        report = json.loads((tmp / "logs" / "eval_net-d3.json").read_text())
        assert [r["error"] for r in report["images"]] == ["non-finite network output"]
        assert "non-finite network output" in capsys.readouterr().err

    def test_infer_writes_no_image_of_non_finite_output(self, workspace, capsys):
        tmp, _, _ = workspace
        src, dst = tmp / "in.pgm", tmp / "sr.pgm"
        data.save_image(synthetic_image(np.random.default_rng(1), 33, 33), str(src))
        assert cli.main(["infer", "--model", self.nan_model(tmp), str(src), "--out", str(dst)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
        assert not dst.exists()

    def test_eval_refuses_model_of_another_scale(self, workspace, capsys):
        # a scale-2 model on an x3 test set would score against the wrong degradation
        tmp, config, config_path = workspace
        manifest = data.DatasetManifest.from_json(config["manifest"])
        replace(manifest, scale=3).to_json(config["manifest"])
        del config["scale"]
        rewrite(config_path, config)
        net_path = tmp / "d3.ctsr"
        model.save_model(model.build_network(3, ops.RngState(0), scale=2), str(net_path))
        argv = ["eval", "--config", str(config_path), "--model", str(net_path), "--out", str(tmp / "logs")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: model {net_path} is x2, but eval scores at x3"
        ]
        assert not (tmp / "logs").exists()
