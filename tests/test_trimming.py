import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadesr import data, model, ops, training, trimming

TABLE_TRIM_PARAMS = [137_424, 123_600, 109_776, 95_952]  # stages 1..4 on the 13-layer net


@pytest.fixture(scope="module")
def net13():
    return model.build_network(13, ops.RngState(21))


def tiny_patches(n=16, lr_size=21, seed=0):
    r = np.random.default_rng(seed)
    return data.PatchSet(
        r.random((n, 1, lr_size, lr_size), dtype=np.float32),
        r.random((n, 1, lr_size - 16, lr_size - 16), dtype=np.float32),
    )


class TestFilterImportance:
    def test_arithmetic(self):
        assert trimming.filter_importance(np.array([0.1, -0.2, 0.3])) == pytest.approx(0.14)

    def test_all_zero(self):
        assert trimming.filter_importance(np.zeros((3, 3, 32))) == 0.0

    def test_matches_reference_summation(self, rng):
        slab = rng.standard_normal((32, 3, 3)).astype(np.float32)
        reference = float(sum(float(w) ** 2 for w in slab.reshape(-1)))
        assert abs(trimming.filter_importance(slab) - reference) < 1e-7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimming.filter_importance(np.zeros((0,)))


class TestImportanceScores:
    def test_greedy_sees_removed_mass(self):
        net = model.build_network(3, ops.RngState(3))
        # filter A of layer 1 takes all its mass from input channel 0
        w = net.layers[1].weights
        w[:] = 0
        w[0, 0] = 1.0  # filter A: all mass in channel 0
        w[1, 1:] = 0.5  # filter B: mass elsewhere
        ind = trimming.importance_scores(net, 1)
        trimmed = trimming.importance_scores(trimming.trim_filters(net, 0, [0]), 1)
        assert ind[0] > 0
        assert trimmed[0] == 0.0
        assert trimmed[1] > 0

    def test_permutation_equivariant(self, rng):
        net = model.build_network(3, ops.RngState(4))
        scores = trimming.importance_scores(net, 0)
        perm = rng.permutation(64)
        net.layers[0].weights[:] = net.layers[0].weights[perm]
        permuted = trimming.importance_scores(net, 0)
        np.testing.assert_allclose(permuted, scores[perm])

    def test_independent_scores_ignore_processing_order(self, rng, net13):
        in_order = [trimming.importance_scores(net13, i) for i in range(12)]
        shuffled_order = list(rng.permutation(12))
        shuffled = {i: trimming.importance_scores(net13, int(i)) for i in shuffled_order}
        for i in range(12):
            np.testing.assert_array_equal(in_order[i], shuffled[i])

    def test_bad_index(self, net13):
        with pytest.raises(IndexError):
            trimming.importance_scores(net13, 13)


class TestTrimFilters:
    def test_masking_equivalence(self, rng):
        net = model.build_network(5, ops.RngState(8))
        for layer in net.layers:  # give the net non-trivial responses
            layer.weights[:] = rng.standard_normal(layer.weights.shape).astype(np.float32) * 0.2
            layer.bias[:] = rng.standard_normal(layer.bias.shape).astype(np.float32) * 0.1
        victims = [3, 10, 17]
        trimmed = trimming.trim_filters(net, 2, victims)
        masked = model.clone(net)
        masked.layers[2].weights[victims] = 0
        masked.layers[2].bias[victims] = 0
        x = rng.random((2, 1, 25, 25), dtype=np.float32)
        out_t = model.forward(trimmed, x)
        out_m = model.forward(masked, x)
        assert np.abs(out_t - out_m).max() < 1e-6

    def test_table_stage1_value(self, net13):
        trimmed = trimming.trim_filters(net13, 10, list(range(16)))
        trimmed = trimming.trim_filters(trimmed, 11, list(range(16)))
        assert model.param_count(trimmed) == 137_424

    def test_empty_indices_identity(self, net13):
        out = trimming.trim_filters(net13, 4, [])
        for a, b in zip(out.layers, net13.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_last_layer_untouchable(self, net13):
        with pytest.raises(IndexError):
            trimming.trim_filters(net13, 12, [0])

    def test_cannot_remove_all(self, net13):
        with pytest.raises(ValueError):
            trimming.trim_filters(net13, 5, list(range(32)))

    def test_out_of_range(self, net13):
        with pytest.raises(IndexError):
            trimming.trim_filters(net13, 5, [40])

    def test_original_untouched(self, net13):
        before = [l.weights.tobytes() for l in net13.layers]
        trimming.trim_filters(net13, 3, [0, 1])
        assert [l.weights.tobytes() for l in net13.layers] == before

    def test_multiply_count_reduction_formula(self, net13):
        in_hw = 33
        base = model.multiply_count(net13, in_hw, in_hw)
        i = 5
        trimmed = trimming.trim_filters(net13, i, [7])
        # feature map sizes at layers i and i+1 for a 33x33 input
        sizes = []
        h = in_hw
        for layer in net13.layers:
            h = h + 2 * layer.spec.pad - layer.spec.kernel_size + 1
            sizes.append(h)
        si, sj = net13.layers[i].spec, net13.layers[i + 1].spec
        expected_drop = (
            si.kernel_size**2 * si.in_channels * sizes[i] ** 2
            + sj.kernel_size**2 * sj.out_filters * sizes[i + 1] ** 2
        )
        assert base - model.multiply_count(trimmed, in_hw, in_hw) == expected_drop


class TestOneShotTrim:
    def test_half_rate_filter_counts(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_ONE_SHOT_INDEPENDENT)
        out, log = trimming.one_shot_trim(net13, plan)
        assert out.filter_counts() == [32] + [16] * 11 + [1]
        assert log.param_count_after == 38_832
        assert sorted(log.removed_filters) == list(range(12))

    def test_zero_rate_identity(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_ONE_SHOT_INDEPENDENT, rate=0.0)
        out, log = trimming.one_shot_trim(net13, plan)
        for a, b in zip(out.layers, net13.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
        assert log.removed_filters == {}

    def test_lowest_scores_removed_with_index_ties(self):
        net = model.build_network(3, ops.RngState(5))
        w = net.layers[0].weights
        w[:] = 1.0
        w[[2, 7, 11]] = 0.0  # three clearly-least-important filters
        plan = trimming.TrimPlan(rates=[3 / 64, 0.0, 0.0], mode=trimming.MODE_ONE_SHOT_INDEPENDENT)
        out, log = trimming.one_shot_trim(net, plan)
        assert log.removed_filters[0] == [2, 7, 11]

    def test_greedy_differs_from_independent(self):
        # one-shot scores the untrimmed network: a layer-1 filter whose mass
        # sits in channels removed from layer 0 still scores high and stays
        net = model.build_network(3, ops.RngState(6))
        net.layers[0].weights[:] = 1.0
        net.layers[0].weights[:32] = 0.0  # first 32 filters of layer 0 go
        w1 = net.layers[1].weights
        w1[:] = 0.0
        w1[0, :32] = 10.0  # huge independent mass, all in removed channels
        w1[1:, 32:] = 0.2
        rate = [0.5, 1 / 32, 0.0]
        _, ind_log = trimming.one_shot_trim(net, trimming.TrimPlan(rates=rate, mode="one_shot_independent"))
        assert ind_log.removed_filters[1] == [1]

    def test_finetune_runs_to_plateau(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_ONE_SHOT_INDEPENDENT)
        cfg = training.TrainConfig(
            learning_rate=0.0, plateau_threshold=0.03, target_depth=13, batch_size=8,
            max_epochs_per_stage=5, seed=1,
        )
        out, log = trimming.one_shot_trim(net13, plan, tiny_patches(), cfg)
        assert log.epochs == 2  # lr=0 plateaus on the second epoch


class TestCascadeTrim:
    def test_pair_schedule_13(self):
        assert trimming.cascade_trim_pairs(13) == [(10, 11), (8, 9), (6, 7), (4, 5), (2, 3), (0, 1)]

    def test_six_stages_and_table_values(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_CASCADE_TRIM, seed=77)
        out, logs = trimming.cascade_trim(net13, None, None, plan)
        assert len(logs) == 6
        assert [log.param_count_after for log in logs[:4]] == TABLE_TRIM_PARAMS
        assert out.filter_counts() == [32] + [16] * 11 + [1]

    def test_param_count_strictly_decreases(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_CASCADE_TRIM, seed=1)
        _, logs = trimming.cascade_trim(net13, None, None, plan)
        counts = [model.param_count(net13)] + [log.param_count_after for log in logs]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_surgery_locality(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_CASCADE_TRIM, seed=5)
        # stage 1 only: layers 10, 11 trimmed, 12 loses input slices; 0..9 untouched
        stage_net = model.clone(net13)
        for layer_index in (10, 11):
            n = stage_net.layers[layer_index].spec.out_filters
            victims = sorted(
                ops.RngState(plan.seed).child(3, 0, layer_index).choice(n, size=n // 2, replace=False).tolist()
            )
            stage_net = trimming.trim_filters(stage_net, layer_index, victims)
        for i in range(10):
            assert stage_net.layers[i].weights.tobytes() == net13.layers[i].weights.tobytes()

    def test_random_selection_reproducible(self, net13):
        plan = trimming.default_plan(13, trimming.MODE_CASCADE_TRIM, seed=9)
        a, _ = trimming.cascade_trim(net13, None, None, plan)
        b, _ = trimming.cascade_trim(net13, None, None, plan)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()

    def test_matches_one_shot_architecture(self, net13):
        cascade, _ = trimming.cascade_trim(
            net13, None, None, trimming.default_plan(13, trimming.MODE_CASCADE_TRIM)
        )
        one_shot, _ = trimming.one_shot_trim(
            net13, trimming.default_plan(13, trimming.MODE_ONE_SHOT_INDEPENDENT)
        )
        assert [l.spec for l in cascade.layers] == [l.spec for l in one_shot.layers]

    @settings(max_examples=10, deadline=None)
    @given(depth=st.sampled_from([3, 5, 7, 9, 13]))
    def test_stage_count_is_half_depth(self, depth):
        assert len(trimming.cascade_trim_pairs(depth)) == (depth - 1) // 2


class TestStageHistory:
    @pytest.mark.parametrize("mode", [trimming.MODE_CASCADE_TRIM, trimming.MODE_ONE_SHOT_INDEPENDENT])
    def test_trim_stages_follow_training_stages(self, mode):
        net = model.build_network(7, ops.RngState(8))
        trained = model.StageLog(7, [0.01], "plateau", {}, model.param_count(net))
        net.stage_history.append(trained)
        plan = trimming.default_plan(7, mode, seed=3)
        if mode == trimming.MODE_CASCADE_TRIM:
            out, logs = trimming.cascade_trim(net, None, None, plan)
        else:
            cfg = training.TrainConfig(learning_rate=0.0, target_depth=7, batch_size=8, max_epochs_per_stage=1)
            out, log = trimming.one_shot_trim(net, plan, tiny_patches(), cfg)
            logs = [log]
            assert log.epochs == 1
        assert out.stage_history == [trained] + logs
        assert out.stage_history[-1].param_count_after == model.param_count(out)
        assert net.stage_history == [trained]


class TestTrimTrain:
    def test_slim_base_param_count(self):
        slim = model.build_network(3, ops.RngState(0), first_filters=32, mid_filters=16)
        assert model.param_count(slim) == 15_792

    def test_final_architecture_matches_cascade_trim(self, net13):
        cfg = training.TrainConfig(
            learning_rate=0.01, plateau_threshold=0.5, target_depth=13, batch_size=8,
            max_epochs_per_stage=0, seed=2,
        )
        net, _ = trimming.trim_train(tiny_patches(), cfg)
        reference, _ = trimming.cascade_trim(
            net13, None, None, trimming.default_plan(13, trimming.MODE_CASCADE_TRIM)
        )
        assert net.filter_counts() == reference.filter_counts()
        assert [l.spec for l in net.layers] == [l.spec for l in reference.layers]


class TestTrimPlan:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            trimming.TrimPlan(rates=[1.0, 0.0], mode="cascade")
        with pytest.raises(ValueError):
            trimming.TrimPlan(rates=[0.5, 0.5], mode="cascade")  # last must be 0

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            trimming.TrimPlan(rates=[0.0], mode="surprise")
