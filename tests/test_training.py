import tracemalloc

import numpy as np
import pytest

from cascadesr import data, model, ops, training, trimming
from cascadesr.synth import synthetic_image
from conftest import he_weights


def make_patchset(n=48, lr_size=21, seed=0):
    r = np.random.default_rng(seed)
    hr_size = lr_size - 16
    lr = r.random((n, 1, lr_size, lr_size), dtype=np.float32)
    hr = r.random((n, 1, hr_size, hr_size), dtype=np.float32)
    return data.PatchSet(lr, hr)


def quick_cfg(**kw):
    base = dict(
        learning_rate=0.05,
        plateau_threshold=0.03,
        target_depth=3,
        batch_size=8,
        max_epochs_per_stage=2,
        seed=3,
    )
    base.update(kw)
    return training.TrainConfig(**base)


class TestPlateau:
    def test_four_percent_drop_is_not_plateau(self):
        assert training.plateau_reached(1.00, 0.96, 0.03) is False

    def test_two_percent_drop_is_plateau(self):
        assert training.plateau_reached(1.00, 0.98, 0.03) is True

    def test_increase_counts_as_plateau(self):
        assert training.plateau_reached(1.00, 1.05, 0.03) is True

    def test_nonpositive_prev_rejected(self):
        with pytest.raises(ValueError):
            training.plateau_reached(0.0, 0.5, 0.03)


class TestTrainConfig:
    def test_defaults_match_reference_values(self):
        cfg = training.TrainConfig()
        assert cfg.learning_rate == 0.0001
        assert cfg.plateau_threshold == 0.03
        assert cfg.batch_size == 64

    def test_invariants(self):
        with pytest.raises(ValueError):
            training.TrainConfig(plateau_threshold=0.0)
        with pytest.raises(ValueError):
            training.TrainConfig(plateau_threshold=1.0)
        with pytest.raises(ValueError):
            training.TrainConfig(target_depth=4)
        with pytest.raises(ValueError):
            training.TrainConfig(learning_rate=-1e-4)

    def test_mode_validated(self):
        assert training.TrainConfig().mode == "cascade"
        with pytest.raises(ValueError, match="'sideways'"):
            training.TrainConfig(mode="sideways")


class TestRunEpoch:
    def test_zero_learning_rate_leaves_weights(self):
        patches = make_patchset()
        net = model.build_network(3, ops.RngState(1), scale=2)
        before = [l.weights.copy() for l in net.layers]
        cfg = quick_cfg(learning_rate=0.0)
        net, loss_a = training.run_epoch(net, patches, cfg)
        net, loss_b = training.run_epoch(net, patches, cfg, epoch=1)
        for l, w in zip(net.layers, before):
            np.testing.assert_array_equal(l.weights, w)
        assert loss_a == pytest.approx(loss_b)

    def test_fixed_seed_reproduces_trajectory(self):
        losses = []
        for _ in range(2):
            patches = make_patchset()
            net = model.build_network(3, ops.RngState(1))
            cfg = quick_cfg()
            run = []
            for epoch in range(3):
                net, loss = training.run_epoch(net, patches, cfg, epoch=epoch)
                run.append(loss)
            losses.append(run)
        assert losses[0] == losses[1]

    def test_empty_patch_set_rejected(self):
        net = model.build_network(3, ops.RngState(1))
        with pytest.raises(ValueError, match="empty patch set"):
            training.run_epoch(net, make_patchset(n=0), quick_cfg())

    def test_epochs_shuffle_differently(self):
        cfg = quick_cfg()
        order0 = ops.RngState(cfg.seed).child(2, 0, 0).permutation(100)
        order1 = ops.RngState(cfg.seed).child(2, 0, 1).permutation(100)
        assert not np.array_equal(order0, order1)

    def test_overfits_single_patch(self):
        img = synthetic_image(np.random.default_rng(5), 40, 40)
        patch = data.extract_patches(img, 2, data.PatchParams(33, 33, 17), source="one")
        single = data.PatchSet(patch.lr[:1], patch.hr[:1])
        net = model.build_network(3, ops.RngState(7))
        cfg = quick_cfg(learning_rate=0.5, batch_size=1, max_epochs_per_stage=1)
        losses = []
        for epoch in range(200):
            net, loss = training.run_epoch(net, single, cfg, epoch=epoch)
            losses.append(loss)
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 0.95 * (len(losses) - 1)
        assert losses[-1] < 0.1 * losses[0]


def reference_epoch(net, patches, cfg, epoch):
    """run_epoch written out with fresh arrays: every entry point called with ws=None."""
    n = len(patches)
    order = ops.RngState(cfg.seed).child(2, 0, epoch).permutation(n)
    total = 0.0
    for start in range(0, n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        h, tape = patches.lr[idx], []
        for layer in net.layers:
            pre, cols = ops.conv2d_forward_cols(h, layer.weights, layer.bias, layer.spec.pad, ws=None)
            tape.append((h.shape, cols, pre))
            h = np.maximum(pre, 0) if layer.spec.activation == "rectifier" else pre
        loss, grad = ops.mse_loss(h, patches.hr[idx])
        for index in reversed(range(net.depth)):
            layer = net.layers[index]
            x_shape, cols, pre = tape[index]
            if layer.spec.activation == "rectifier":
                grad = ops.relu_backward(pre, grad, out=None)
            grad, grad_w, grad_b = ops.conv2d_backward_from_cols(
                x_shape, layer.weights, grad, layer.spec.pad, cols, need_grad_input=index > 0, ws=None
            )
            ops.sgd_step([layer.weights, layer.bias], [grad_w, grad_b], cfg.learning_rate)
        total += loss * len(idx)
    return total / n


class TestReusedBuffers:
    @pytest.mark.parametrize("trimmed", [False, True], ids=["d7", "cascade_trimmed_d7"])
    def test_epochs_match_fresh_arrays_bit_for_bit(self, trimmed):
        # 44 patches at batch 8: five full batches and a partial one; the
        # trimmed net has 16-filter layers, both nets pad-0 and pad-1 layers
        patches = make_patchset(n=44, seed=4)
        net = he_weights(model.build_network(7, ops.RngState(2)), np.random.default_rng(6))
        if trimmed:
            plan = trimming.TrimPlan(7, trimming.MODE_CASCADE_TRIM, seed=1)
            net, _ = trimming.trim(net, None, None, plan)
            assert net.filter_counts() == [32, 16, 16, 16, 16, 16, 1]
        reference = model.clone(net)
        cfg = quick_cfg(learning_rate=0.001)
        for epoch in range(2):
            net, loss = training.run_epoch(net, patches, cfg, epoch=epoch)
            assert loss == reference_epoch(reference, patches, cfg, epoch)
        for got, want in zip(net.layers, reference.layers):
            np.testing.assert_array_equal(got.weights, want.weights)
            np.testing.assert_array_equal(got.bias, want.bias)

    def test_batch_after_the_first_allocates_little(self):
        # fresh arrays take 14.3 MiB per d7 batch of 8; the reused ones under 1 MiB
        net = he_weights(model.build_network(7, ops.RngState(2)), np.random.default_rng(6))
        patches = make_patchset(n=16)
        ws = training._workspaces(net)
        training._train_batch(net, patches.lr[:8], patches.hr[:8], 0.01, ws)
        x, y = patches.lr[8:], patches.hr[8:]
        tracemalloc.start()
        try:
            training._train_batch(net, x, y, 0.01, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


class TestCascadeTrain:
    def test_stage_depths_and_logs(self):
        patches = make_patchset()
        cfg = quick_cfg(target_depth=7)
        net, logs = training.train(patches, cfg)
        assert [log.depth for log in logs] == [3, 5, 7]
        assert net.depth == 7
        assert [r.depth for r in net.stage_history] == [3, 5, 7]

    def test_final_param_count_at_depth(self):
        patches = make_patchset(n=16)
        cfg = quick_cfg(target_depth=7, max_epochs_per_stage=1)
        net, _ = training.train(patches, cfg)
        assert model.param_count(net) == 94_048

    def test_reproducible_bytes(self, tmp_path):
        blobs = []
        for i in range(2):
            patches = make_patchset()
            net, _ = training.train(patches, quick_cfg(target_depth=5))
            p = tmp_path / f"{i}.ctsr"
            model.save_model(net, str(p))
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_inherited_weights_preserved_through_insertion(self):
        patches = make_patchset(n=16)
        cfg = quick_cfg(target_depth=3, max_epochs_per_stage=2)
        net3, _ = training.train(patches, cfg)
        frozen = [l.weights.copy() for l in net3.layers]
        grown = model.insert_layers(net3, ops.RngState(cfg.seed).child(1, 1), how_many=2)
        for keep, old in zip([grown.layers[0], grown.layers[1], grown.layers[-1]], frozen):
            assert keep.weights.tobytes() == old.tobytes()

    def test_constant_learning_rate_every_step(self, monkeypatch):
        seen = []
        original = ops.sgd_step

        def spy(params, grads, lr):
            seen.append(lr)
            return original(params, grads, lr)

        monkeypatch.setattr(training.ops, "sgd_step", spy)
        patches = make_patchset(n=16)
        cfg = quick_cfg(target_depth=5, learning_rate=0.0125, max_epochs_per_stage=2)
        training.train(patches, cfg)
        assert seen and all(lr == 0.0125 for lr in seen)

    def test_csv_log_and_checkpoints(self, tmp_path):
        patches = make_patchset(n=16)
        cfg = quick_cfg(target_depth=7, max_epochs_per_stage=1)
        stem = str(tmp_path / "run")
        training.train(patches, cfg, log_dir=str(tmp_path), checkpoint_stem=stem)
        for d in (3, 5, 7):
            assert (tmp_path / f"run-d{d}.ctsr").exists()
        lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
        assert lines[0] == "stage_index,depth,epoch,mean_loss,wall_seconds"
        assert len(lines) == 4  # 3 stages x 1 epoch

    def test_each_row_on_disk_before_the_next_epoch(self, tmp_path, monkeypatch):
        log = tmp_path / "train_log.csv"
        lines_seen = []
        original = training.run_epoch

        def spy(*args, **kwargs):
            lines_seen.append(len(log.read_text().splitlines()))
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "run_epoch", spy)
        cfg = quick_cfg(target_depth=5, max_epochs_per_stage=2)
        training.train(make_patchset(n=16), cfg, log_dir=str(tmp_path))
        # the header, then one more row as each epoch ends, across the stage boundary too
        assert lines_seen == [1, 2, 3, 4]
        assert len(log.read_text().splitlines()) == 5

    def test_log_holds_one_run(self, tmp_path):
        patches = make_patchset(n=16)
        training.train(patches, quick_cfg(target_depth=5, max_epochs_per_stage=1), log_dir=str(tmp_path))
        training.train(patches, quick_cfg(target_depth=3, max_epochs_per_stage=2), log_dir=str(tmp_path))
        lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
        assert lines[0] == "stage_index,depth,epoch,mean_loss,wall_seconds"
        assert [line.split(",")[:3] for line in lines[1:]] == [["0", "3", "0"], ["0", "3", "1"]]


class TestOneShotTrain:
    def test_architecture_matches_cascade(self):
        patches = make_patchset(n=8)
        cfg = quick_cfg(max_epochs_per_stage=0, target_depth=5, mode="one_shot")
        net, (log,) = training.train(patches, cfg)
        assert model.param_count(net) == 75_616
        cascade_specs = [l.spec for l in model.build_network(5, ops.RngState(0)).layers]
        assert [l.spec for l in net.layers] == cascade_specs
        assert log.epochs == 0

    def test_zero_max_epochs_returns_initialized_net(self):
        patches = make_patchset(n=8)
        cfg = quick_cfg(max_epochs_per_stage=0, mode="one_shot")
        net, _ = training.train(patches, cfg)
        fresh = model.build_network(3, ops.RngState(cfg.seed).child(1, 0))
        for a, b in zip(net.layers, fresh.layers):
            assert a.weights.tobytes() == b.weights.tobytes()


class TestStageTermination:
    def test_plateau_stops_stage(self):
        # lr=0 gives identical losses each epoch -> plateau on epoch 2
        patches = make_patchset(n=8)
        cfg = quick_cfg(learning_rate=0.0, max_epochs_per_stage=10)
        _, logs = training.train(patches, cfg)
        assert logs[0].epochs == 2
        assert logs[0].terminated_by == "plateau"

    def test_max_epochs_termination_labelled(self):
        patches = make_patchset(n=8)
        cfg = quick_cfg(max_epochs_per_stage=1)
        _, logs = training.train(patches, cfg)
        assert logs[0].terminated_by == "max_epochs"

    def test_perfect_fit_ends_as_plateau(self):
        # zero inputs and targets give a loss of exactly 0 from the first epoch
        patches = make_patchset(n=8)
        patches.lr[:] = 0
        patches.hr[:] = 0
        _, logs = training.train(patches, quick_cfg(target_depth=5, max_epochs_per_stage=4))
        assert [(log.losses, log.terminated_by) for log in logs] == [([0.0, 0.0], "plateau")] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_fails_before_checkpoint(self, tmp_path):
        patches = make_patchset(n=16)
        cfg = quick_cfg(target_depth=5, learning_rate=50.0, batch_size=4, max_epochs_per_stage=5)
        with pytest.raises(training.NonFiniteLossError, match="depth 3, stage 0, epoch 1"):
            training.train(patches, cfg, checkpoint_stem=str(tmp_path / "run"))
        assert not list(tmp_path.glob("run-d*.ctsr"))
