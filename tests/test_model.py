import json
import tracemalloc

import numpy as np
import pytest

from cascadesr import model, ops, trimming
from conftest import he_weights

TABLE_PARAMS = {
    3: 57_184,
    5: 75_616,
    7: 94_048,
    9: 112_480,
    11: 130_912,
    13: 149_344,
    15: 167_776,
    17: 186_208,
    19: 204_640,
}


@pytest.fixture
def base_net():
    return model.build_network(3, ops.RngState(11))


class TestBuild:
    def test_base_param_count(self, base_net):
        assert model.param_count(base_net) == 57_184

    def test_base_layer_shapes(self, base_net):
        assert base_net.filter_counts() == [64, 32, 1]
        assert [l.spec.kernel_size for l in base_net.layers] == [9, 5, 5]
        assert all(l.spec.pad == 0 for l in base_net.layers)
        assert all(not l.bias.any() for l in base_net.layers)

    def test_same_seed_serializes_identically(self, tmp_path):
        paths = []
        for i in range(2):
            net = model.build_network(3, ops.RngState(42))
            p = tmp_path / f"m{i}.ctsr"
            model.save_model(net, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("depth,expected", sorted(TABLE_PARAMS.items()))
    def test_family_param_counts(self, depth, expected):
        net = model.build_network(depth, ops.RngState(0))
        assert model.param_count(net) == expected

    def test_grown_network_matches_built_counts(self):
        net = model.build_network(3, ops.RngState(1))
        for depth in range(5, 21, 2):
            net = model.insert_layers(net, ops.RngState(depth))
            assert model.param_count(net) == TABLE_PARAMS[depth]


class TestInsertLayers:
    def test_three_to_five(self, base_net):
        grown = model.insert_layers(base_net, ops.RngState(2))
        assert grown.depth == 5
        assert model.param_count(grown) == 75_616
        assert [l.spec.kernel_size for l in grown.layers] == [9, 5, 3, 3, 5]

    def test_inherited_weights_bit_identical(self, base_net):
        before = [l.weights.tobytes() for l in base_net.layers]
        grown = model.insert_layers(base_net, ops.RngState(2))
        inherited = [grown.layers[0], grown.layers[1], grown.layers[-1]]
        assert [l.weights.tobytes() for l in inherited] == before

    def test_insertion_position_and_specs(self, base_net):
        grown = model.insert_layers(base_net, ops.RngState(2))
        for layer in grown.layers[2:4]:
            assert layer.spec.kernel_size == 3
            assert layer.spec.pad == 1
            assert layer.spec.out_filters == 32
            assert layer.spec.activation == model.ACT_RELU
            assert not layer.bias.any()

    def test_17_to_19_delta(self):
        net = model.build_network(17, ops.RngState(0))
        grown = model.insert_layers(net, ops.RngState(1))
        assert model.param_count(grown) - model.param_count(net) == 2 * (3**2 * 32 * 32)

    def test_grown_network_keeps_parent_function(self):
        r = np.random.default_rng(0)
        net = he_weights(model.build_network(3, ops.RngState(0)), r)
        x = r.random((2, 1, 33, 33), dtype=np.float32)
        y = model.forward(net, x)
        rms = np.sqrt(np.mean(y**2))
        for depth in (5, 7):
            net = model.insert_layers(net, ops.RngState(depth))
            assert net.depth == depth
            drift = np.sqrt(np.mean((model.forward(net, x) - y) ** 2))
            assert drift < 0.15 * rms, f"d{depth}: output moved by RMS {drift:.3g} vs signal RMS {rms:.3g}"

    def test_chain_invariant_preserved(self):
        net = model.build_network(3, ops.RngState(5))
        for _ in range(3):
            net = model.insert_layers(net, ops.RngState(6))
            for a, b in zip(net.layers, net.layers[1:]):
                assert a.spec.out_filters == b.spec.in_channels


class TestForward:
    @pytest.mark.parametrize("depth", [3, 5, 7, 13])
    def test_33_maps_to_17(self, depth):
        net = model.build_network(depth, ops.RngState(0))
        x = np.random.default_rng(0).random((1, 1, 33, 33), dtype=np.float32)
        assert model.forward(net, x).shape == (1, 1, 17, 17)

    def test_zero_weights_zero_output(self, base_net):
        for layer in base_net.layers:
            layer.weights[:] = 0
            layer.bias[:] = 0
        x = np.random.default_rng(0).random((1, 1, 33, 33), dtype=np.float32)
        assert not model.forward(base_net, x).any()

    def test_too_small_input_names_layer(self, base_net):
        x = np.ones((1, 1, 12, 12), np.float32)
        with pytest.raises(model.InvalidNetworkError, match="layer 1"):
            model.forward(base_net, x)

    def test_multi_channel_input_rejected(self, base_net):
        with pytest.raises(model.InvalidNetworkError):
            model.forward(base_net, np.ones((1, 3, 33, 33), np.float32))


def whole_image_chain(net, x):
    h = x
    for layer in net.layers:
        h = ops.conv2d_forward(h, layer.weights, layer.bias, layer.spec.pad)
        if layer.spec.activation == model.ACT_RELU:
            h = np.maximum(h, 0)
    return h


class TestStreamedForward:
    # a 1-byte budget gives one-row chunks, so joins fall inside padded layers too
    @pytest.mark.parametrize(
        "name,budget", [("d7", None), ("trim13", None), ("d7", 1), ("trim13", 1)],
        ids=["d7", "trim13", "d7-budget1", "trim13-budget1"],
    )
    def test_matches_whole_image_chain(self, name, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(model, "BAND_BUDGET", budget)
        if name == "d7":
            net = he_weights(model.build_network(7, ops.RngState(7)), np.random.default_rng(7))
        else:
            d13 = he_weights(model.build_network(13, ops.RngState(13)), np.random.default_rng(13))
            plan = trimming.TrimPlan(trimming.MODE_CASCADE_TRIM)
            net, _ = trimming.trim(d13, None, None, plan)
        widest = max(net.filter_counts())
        width = 18
        band_rows = model.BAND_BUDGET // (2 * widest * width * 4)
        x = np.random.default_rng(3).random((2, 1, 2 * band_rows + 40, width), dtype=np.float32)
        got = model.forward(net, x)
        assert got.shape[2] > 2 * band_rows  # three chunks or more
        np.testing.assert_array_equal(got, whole_image_chain(net, x))

    def test_no_row_is_computed_twice(self, monkeypatch):
        net = model.build_network(7, ops.RngState(4), first_filters=8, mid_filters=4)
        width = 2_048
        band_rows = model.BAND_BUDGET // (8 * width * 4)
        x = np.random.default_rng(4).random((1, 1, 3 * band_rows + 40, width), dtype=np.float32)
        handed = []

        def counting(h, kernel, bias, pad, **kwargs):
            co, ci, k, _ = kernel.shape
            oh, ow = (ops.conv2d_output_size(d, k, pad) for d in h.shape[2:])
            handed.append(h.shape[0] * co * ci * k * k * oh * ow)
            return ops.conv2d_forward(h, kernel, bias, pad, **kwargs)

        monkeypatch.setattr(model, "conv2d_forward", counting)
        model.forward(net, x)
        assert len(handed) > 3 * net.depth  # several chunks through every layer
        assert sum(handed) == model.multiply_count(net, *x.shape[2:])

    def test_peak_memory_does_not_grow_with_height(self):
        net = he_weights(model.build_network(7, ops.RngState(2), mid_filters=4), np.random.default_rng(2))

        def peak(rows):
            x = np.random.default_rng(rows).random((1, 1, rows, 96), dtype=np.float32)
            tracemalloc.start()
            try:
                y = model.forward(net, x)
                return tracemalloc.get_traced_memory()[1], x.nbytes + y.nbytes
            finally:
                tracemalloc.stop()

        short_peak, short_bytes = peak(1600)
        tall_peak, tall_bytes = peak(3200)
        assert tall_peak - short_peak <= (tall_bytes - short_bytes) + (1 << 20)

    def test_budget_bounds_what_a_pass_allocates(self):
        # BAND_BUDGET bounds each conv's float64 working set, not one
        # activation, so a wide pass stays within a small multiple of it
        net = model.build_network(7, ops.RngState(5))
        x = np.random.default_rng(5).random((1, 1, 96, 512), dtype=np.float32)
        tracemalloc.start()
        try:
            y = model.forward(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes <= 3 * model.BAND_BUDGET


class TestMultiplyCount:
    def test_formula_for_base_on_33(self, base_net):
        # 9x9: 1*81*64*25*25, 5x5: 64*25*32*21*21, 5x5: 32*25*1*17*17
        expected = 81 * 64 * 625 + 64 * 25 * 32 * 441 + 32 * 25 * 1 * 289
        assert model.multiply_count(base_net, 33, 33) == expected

    def test_padded_layers_keep_size(self):
        net = model.build_network(5, ops.RngState(0))
        base = model.build_network(3, ops.RngState(0))
        delta = model.multiply_count(net, 33, 33) - model.multiply_count(base, 33, 33)
        assert delta == 2 * (32 * 9 * 32 * 21 * 21)


class TestSerialization:
    def test_round_trip_bytes(self, base_net, tmp_path):
        p1, p2 = tmp_path / "a.ctsr", tmp_path / "b.ctsr"
        model.save_model(base_net, str(p1))
        loaded = model.load_model(str(p1))
        model.save_model(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_params(self, base_net, tmp_path):
        p = tmp_path / "m.ctsr"
        model.save_model(base_net, str(p))
        assert model.param_count(model.load_model(str(p))) == 57_184

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ctsr"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(model.ModelFormatError, match="bad magic"):
            model.load_model(str(p))

    def test_version_mismatch(self, base_net, tmp_path):
        p = tmp_path / "m.ctsr"
        model.save_model(base_net, str(p))
        blob = bytearray(p.read_bytes())
        blob[4] = 99
        p.write_bytes(bytes(blob))
        with pytest.raises(model.ModelFormatError, match="version"):
            model.load_model(str(p))

    def test_truncated_payload(self, base_net, tmp_path):
        p = tmp_path / "m.ctsr"
        model.save_model(base_net, str(p))
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(model.ModelFormatError, match="truncated"):
            model.load_model(str(p))

    def test_trailing_bytes_rejected(self, base_net, tmp_path):
        p = tmp_path / "m.ctsr"
        model.save_model(base_net, str(p))
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(model.ModelFormatError, match="trailing"):
            model.load_model(str(p))

    def test_sidecar_written_and_parsed(self, base_net, tmp_path):
        p = tmp_path / "m.ctsr"
        base_net.stage_history.append(model.StageLog(3, [0.002, 0.001], "plateau", {1: [0, 4]}, 57_184))
        model.save_model(base_net, str(p))
        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["layers"][0]["kernel_size"] == 9
        assert meta["stage_history"] == [
            {
                "depth": 3,
                "losses": [0.002, 0.001],
                "terminated_by": "plateau",
                "removed_filters": {"1": [0, 4]},
                "param_count_after": 57_184,
            }
        ]
        loaded = model.load_model(str(p))
        assert loaded.stage_history == base_net.stage_history

    def test_unreadable_sidecar_rejected(self, base_net, tmp_path):
        # dropping it would load an empty history, which trim then saves with every stage
        p = tmp_path / "m.ctsr"
        base_net.stage_history.append(model.StageLog(3, [0.002], "plateau", {}, 57_184))
        model.save_model(base_net, str(p))
        sidecar = tmp_path / "m.json"
        sidecar.write_text(sidecar.read_text() + "garbage")
        with pytest.raises(model.ModelFormatError, match="m.json"):
            model.load_model(str(p))

    @pytest.mark.parametrize("depth,scale", [(5, 2), (3, 3)], ids=["d5", "x3"])
    def test_foreign_sidecar_rejected(self, base_net, tmp_path, depth, scale):
        # loading it would hand the d3 x2 weights another model's stage_history, which trim then extends
        other = model.build_network(depth, ops.RngState(1), scale=scale)
        other.stage_history.append(model.StageLog(depth, [0.002], "plateau", {}, model.param_count(other)))
        model.save_model(other, str(tmp_path / "other.ctsr"))
        model.save_model(base_net, str(tmp_path / "m.ctsr"))
        foreign = (tmp_path / "other.json").read_bytes()
        (tmp_path / "m.json").write_bytes(foreign)
        with pytest.raises(model.ModelFormatError, match="m.json"):
            model.load_model(str(tmp_path / "m.ctsr"))
        assert (tmp_path / "m.json").read_bytes() == foreign

    def test_missing_sidecar_loads_with_no_history(self, base_net, tmp_path):
        p = tmp_path / "m.ctsr"
        base_net.stage_history.append(model.StageLog(3, [0.002], "plateau", {}, 57_184))
        model.save_model(base_net, str(p))
        (tmp_path / "m.json").unlink()
        loaded = model.load_model(str(p))
        assert loaded.stage_history == []
        assert loaded.filter_counts() == base_net.filter_counts()

    def test_failed_save_leaves_old_files(self, base_net, tmp_path, monkeypatch):
        p = tmp_path / "m.ctsr"
        model.save_model(base_net, str(p))
        before = p.read_bytes(), (tmp_path / "m.json").read_bytes()

        def partial_dump(obj, fh, **kwargs):
            fh.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(model.json, "dump", partial_dump)
        with pytest.raises(OSError, match="disk full"):
            model.save_model(model.insert_layers(base_net, ops.RngState(1)), str(p))
        assert (p.read_bytes(), (tmp_path / "m.json").read_bytes()) == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.ctsr", "m.json"]

    def test_invariants_checked_on_load(self, tmp_path):
        # hand-build a file whose chain is broken (layer0 out=2 feeds in=3)
        import struct

        blob = model.MAGIC + struct.pack("<III", 1, 2, 2)
        blob += struct.pack("<IIIII", 9, 1, 2, 0, 1) + b"\x00" * 4 * (81 * 2 + 2)
        blob += struct.pack("<IIIII", 5, 3, 1, 0, 0) + b"\x00" * 4 * (25 * 3 + 1)
        p = tmp_path / "bad.ctsr"
        p.write_bytes(blob)
        with pytest.raises(model.InvalidNetworkError):
            model.load_model(str(p))


class TestValidation:
    def test_kernel_pattern_enforced(self):
        net = model.build_network(3, ops.RngState(0))
        spec = net.layers[1].spec
        net.layers[1] = model.Layer(
            model.LayerSpec(3, spec.in_channels, spec.out_filters, 1, spec.activation),
            np.zeros((32, 64, 3, 3), np.float32),
            np.zeros(32, np.float32),
        )
        with pytest.raises(model.InvalidNetworkError, match="pattern"):
            net.validate()

    def test_layer_spec_rules(self):
        with pytest.raises(model.InvalidNetworkError):
            model.LayerSpec(7, 1, 1, 0, model.ACT_NONE)
        with pytest.raises(model.InvalidNetworkError):
            model.LayerSpec(5, 1, 1, 1, model.ACT_NONE)  # pad 1 only for 3x3
        with pytest.raises(model.InvalidNetworkError):
            model.LayerSpec(3, 1, 0, 1, model.ACT_NONE)
