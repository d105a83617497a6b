import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadesr import ops
from conftest import central_differences, naive_conv2d, rand_tensor, relative_error


class TestConvForward:
    def test_all_ones_sum(self):
        x = np.ones((1, 1, 3, 3), np.float32)
        k = np.ones((1, 1, 3, 3), np.float32)
        out = ops.conv2d_forward(x, k, np.zeros(1, np.float32), 0)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_identity_kernel(self, rng):
        x = rand_tensor(rng, 1, 1, 5, 5)
        k = np.ones((1, 1, 1, 1), np.float32)
        out = ops.conv2d_forward(x, k, np.zeros(1, np.float32), 0)
        np.testing.assert_array_equal(out, x)

    def test_matches_naive_loop(self, rng):
        x = rand_tensor(rng, 1, 2, 6, 6)
        k = rand_tensor(rng, 3, 2, 3, 3)
        b = rand_tensor(rng, 3)
        out = ops.conv2d_forward(x, k, b, 1)
        ref = naive_conv2d(x, k, b, 1)
        assert np.abs(out - ref).max() < 1e-6

    def test_output_size_formula(self, rng):
        for h, k, pad in [(8, 3, 0), (8, 3, 1), (9, 5, 0), (10, 9, 0)]:
            x = rand_tensor(rng, 1, 1, h, h)
            kern = rand_tensor(rng, 2, 1, k, k)
            out = ops.conv2d_forward(x, kern, np.zeros(2, np.float32), pad)
            assert out.shape[2] == h + 2 * pad - k + 1

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2),
        ci=st.integers(1, 3),
        co=st.integers(1, 3),
        hw=st.integers(1, 8),
        k=st.sampled_from([1, 3, 5, 9]),
        pad=st.integers(0, 1),
        seed=st.integers(0, 2**31),
    )
    def test_property_matches_naive(self, n, ci, co, hw, k, pad, seed):
        if hw + 2 * pad - k + 1 < 1:
            return
        r = np.random.default_rng(seed)
        x = rand_tensor(r, n, ci, hw, hw)
        kern = rand_tensor(r, co, ci, k, k)
        b = rand_tensor(r, co)
        out = ops.conv2d_forward(x, kern, b, pad)
        assert np.abs(out - naive_conv2d(x, kern, b, pad)).max() < 1e-6

    def test_channel_mismatch_names_dims(self, rng):
        x = rand_tensor(rng, 1, 2, 5, 5)
        k = rand_tensor(rng, 1, 3, 3, 3)
        with pytest.raises(ops.ShapeMismatchError, match="channels"):
            ops.conv2d_forward(x, k, np.zeros(1, np.float32), 0)

    def test_nonpositive_output_rejected(self, rng):
        x = rand_tensor(rng, 1, 1, 4, 4)
        k = rand_tensor(rng, 1, 1, 5, 5)
        with pytest.raises(ops.ShapeMismatchError, match="output size"):
            ops.conv2d_forward(x, k, np.zeros(1, np.float32), 0)

    def test_deterministic(self, rng):
        x = rand_tensor(rng, 2, 3, 7, 7)
        k = rand_tensor(rng, 4, 3, 3, 3)
        b = rand_tensor(rng, 4)
        a = ops.conv2d_forward(x, k, b, 1)
        c = ops.conv2d_forward(x, k, b, 1)
        assert a.tobytes() == c.tobytes()


    @pytest.mark.parametrize("pad", [0, 1])
    def test_bit_equals_explicit_numpy_sum(self, rng, pad):
        # a multi-channel input sums one matrix product per kernel row, in
        # row order, then the bias; a 1-channel input is one whole unfold
        for ci, co, k in ((16, 8, 5), (3, 4, 3), (1, 6, 9)):
            x = rand_tensor(rng, 2, ci, 30, 40)
            kern = rand_tensor(rng, co, ci, k, k)
            b = rand_tensor(rng, co)
            oh, ow = 30 + 2 * pad - k + 1, 40 + 2 * pad - k + 1
            xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))  # n, ci, oh, ow, k, k
            kern64 = kern.astype(np.float64)
            if ci == 1:
                cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(2, ci * k * k, oh * ow)
                total = np.matmul(kern64.reshape(co, -1), cols)
            else:
                total = 0
                for i in range(k):
                    cols = windows[..., i, :].transpose(0, 1, 4, 2, 3).reshape(2, ci * k, oh * ow)
                    total = total + np.matmul(kern64[:, :, i, :].reshape(co, -1), cols)
            want = (total + b.astype(np.float64)[:, None]).reshape(2, co, oh, ow)
            np.testing.assert_array_equal(ops.conv2d_forward(x.astype(np.float64), kern, b, pad), want)
            np.testing.assert_array_equal(ops.conv2d_forward(x, kern, b, pad), want.astype(np.float32))


class TestConvBackward:
    def test_zero_grad_output(self, rng):
        x = rand_tensor(rng, 1, 2, 5, 5)
        k = rand_tensor(rng, 2, 2, 3, 3)
        gi, gk, gb = ops.conv2d_backward(x, k, np.zeros((1, 2, 3, 3), np.float32), 0)
        assert not gi.any() and not gk.any() and not gb.any()

    def test_scalar_product_rule(self):
        v, w, g = derivs = np.float32(1.7), np.float32(-0.3), np.float32(2.5)
        x = np.full((1, 1, 1, 1), v)
        k = np.full((1, 1, 1, 1), w)
        go = np.full((1, 1, 1, 1), g)
        gi, gk, gb = ops.conv2d_backward(x, k, go, 0)
        assert gi[0, 0, 0, 0] == pytest.approx(w * g)
        assert gk[0, 0, 0, 0] == pytest.approx(v * g)
        assert gb[0] == pytest.approx(g)

    def test_grad_output_shape_checked(self, rng):
        x = rand_tensor(rng, 1, 1, 5, 5)
        k = rand_tensor(rng, 1, 1, 3, 3)
        with pytest.raises(ops.ShapeMismatchError):
            ops.conv2d_backward(x, k, np.zeros((1, 1, 2, 2), np.float32), 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        r = np.random.default_rng(seed)
        n, ci, co, hw, k, pad = 1, 2, 2, r.integers(3, 6), int(r.choice([1, 3])), int(r.integers(0, 2))
        if hw + 2 * pad - k + 1 < 1:
            hw = k
        x = r.uniform(-1, 1, (n, ci, hw, hw))
        kern = r.uniform(-1, 1, (co, ci, k, k))
        b = r.uniform(-1, 1, co)
        proj = r.uniform(-1, 1, (n, co, hw + 2 * pad - k + 1, hw + 2 * pad - k + 1))

        def loss():
            return float(np.sum(ops.conv2d_forward(x, kern, b, pad) * proj))

        gi, gk, gb = ops.conv2d_backward(x, kern, proj, pad)
        assert relative_error(gi, central_differences(loss, x)) < 1e-4
        assert relative_error(gk, central_differences(loss, kern)) < 1e-4
        assert relative_error(gb, central_differences(loss, b)) < 1e-4


class TestConvEntryPoints:
    def test_names_and_leading_parameters(self):
        def leading(fn, n):
            return list(inspect.signature(fn).parameters)[:n]

        assert leading(ops.conv2d_forward, 4) == ["x", "kernel", "bias", "pad"]
        assert leading(ops.conv2d_forward_cols, 4) == ["x", "kernel", "bias", "pad"]
        assert leading(ops.conv2d_backward_from_cols, 6) == [
            "x_shape", "kernel", "grad_output", "pad", "cols", "need_grad_input"
        ]
        assert inspect.signature(ops.conv2d_backward_from_cols).parameters["need_grad_input"].default is True
        assert leading(ops.conv2d_backward, 4) == ["x", "kernel", "grad_output", "pad"]

    @pytest.mark.parametrize("pad", [0, 1])
    def test_training_pair_stays_float32_and_matches(self, rng, pad):
        x = rand_tensor(rng, 2, 3, 7, 7)
        k = rand_tensor(rng, 4, 3, 3, 3)
        b = rand_tensor(rng, 4)
        out, cols = ops.conv2d_forward_cols(x, k, b, pad)
        assert out.dtype == np.float32 and cols.dtype == np.float32
        np.testing.assert_allclose(out, ops.conv2d_forward(x, k, b, pad), rtol=1e-5, atol=1e-5)
        go = rand_tensor(rng, *out.shape)
        got = ops.conv2d_backward_from_cols(x.shape, k, go, pad, cols)
        for g, want in zip(got, ops.conv2d_backward(x, k, go, pad)):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, want, rtol=1e-5, atol=1e-5)
        assert ops.conv2d_backward_from_cols(x.shape, k, go, pad, cols, need_grad_input=False)[0] is None

    @pytest.mark.parametrize("pad", [0, 1])
    def test_float64_reference_pair_equals_training_pair_bit_for_bit(self, rng, pad):
        x = rand_tensor(rng, 2, 3, 7, 7).astype(np.float64)
        k = rand_tensor(rng, 4, 3, 3, 3).astype(np.float64)
        b = rand_tensor(rng, 4).astype(np.float64)
        out, cols = ops.conv2d_forward_cols(x, k, b, pad)
        # conv2d_forward sums kernel row by kernel row, the training forward in one product
        np.testing.assert_allclose(ops.conv2d_forward(x, k, b, pad), out, rtol=1e-12, atol=1e-12)
        go = rand_tensor(rng, *out.shape).astype(np.float64)
        got = ops.conv2d_backward(x, k, go, pad)
        for g, want in zip(got, ops.conv2d_backward_from_cols(x.shape, k, go, pad, cols)):
            assert g.dtype == np.float64
            np.testing.assert_array_equal(g, want)


class TestRelu:
    def test_backward_masks(self):
        x = np.array([-1.0, 0.0, 2.0], np.float32).reshape(1, 1, 1, 3)
        g = np.ones_like(x)
        np.testing.assert_array_equal(
            ops.relu_backward(x, g), np.array([0.0, 0.0, 1.0], np.float32).reshape(1, 1, 1, 3)
        )

    def test_backward_leaves_grad_without_out(self, rng):
        x = rand_tensor(rng, 2, 3, 4, 4)
        g = rand_tensor(rng, 2, 3, 4, 4)
        x.flat[:4] = [0.0, -0.0, np.nan, np.inf]
        g.flat[4:8] = [-0.0, np.nan, -np.inf, np.inf]
        before = g.copy()
        want = np.where(x > 0, g, np.float32(0)).tobytes()
        fresh = ops.relu_backward(x, g)
        assert g.tobytes() == before.tobytes()
        assert fresh.dtype == g.dtype and fresh.tobytes() == want
        assert ops.relu_backward(x, g, out=g) is g
        assert g.tobytes() == want

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.uniform(0.05, 1.0, (1, 1, 3, 3)) * rng.choice([-1.0, 1.0], (1, 1, 3, 3))
        proj = rng.uniform(-1, 1, (1, 1, 3, 3))

        def loss():
            return float(np.sum(np.maximum(x, 0) * proj))

        analytic = ops.relu_backward(x, proj)
        assert relative_error(analytic, central_differences(loss, x)) < 1e-4


class TestMseLoss:
    def test_identical_inputs(self, rng):
        x = rand_tensor(rng, 1, 1, 3, 3)
        loss, grad = ops.mse_loss(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_constant_difference(self):
        pred = np.full((1, 1, 2, 2), 3.0, np.float32)
        target = np.full((1, 1, 2, 2), 1.0, np.float32)
        loss, _ = ops.mse_loss(pred, target)
        assert loss == pytest.approx(4.0)

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.uniform(-1, 1, (2, 1, 3, 3))
        target = rng.uniform(-1, 1, (2, 1, 3, 3))

        def loss():
            return ops.mse_loss(pred, target)[0]

        _, grad = ops.mse_loss(pred, target)
        assert relative_error(grad, central_differences(loss, pred)) < 1e-4

    def test_shape_mismatch(self, rng):
        with pytest.raises(ops.ShapeMismatchError):
            ops.mse_loss(rand_tensor(rng, 1, 1, 2, 2), rand_tensor(rng, 1, 1, 3, 3))


class TestSgdStep:
    def test_zero_gradient(self):
        p = np.array([1.0, 2.0], np.float32)
        ops.sgd_step([p], [np.zeros(2, np.float32)], 0.1)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_reference_value(self):
        p = np.array([1.0], np.float32)
        ops.sgd_step([p], [np.array([1.0], np.float32)], 0.0001)
        assert p[0] == pytest.approx(0.9999)

    def test_two_steps_equal_summed_gradient(self, rng):
        g1, g2 = rand_tensor(rng, 3), rand_tensor(rng, 3)
        summed = g1 + g2
        p_a = np.ones(3, np.float32)
        ops.sgd_step([p_a], [g1], 0.01)
        ops.sgd_step([p_a], [g2], 0.01)
        p_b = np.ones(3, np.float32)
        ops.sgd_step([p_b], [summed], 0.01)
        np.testing.assert_allclose(p_a, p_b, atol=1e-7)

    def test_in_place_step_bit_equals_out_of_place(self, rng):
        p, g = rand_tensor(rng, 32, 5, 5), rand_tensor(rng, 32, 5, 5)
        expected = p.copy() - ops.FLOAT(0.05) * g.copy()
        ops.sgd_step([p], [g], 0.05)
        assert p.tobytes() == expected.tobytes()

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            ops.sgd_step([np.ones(1, np.float32)], [np.ones(1, np.float32)], 0.0)


class TestGaussianInit:
    def test_same_seed_identical(self):
        a = ops.gaussian_init((4, 3, 3, 3), 0.001, ops.RngState(9).generator())
        b = ops.gaussian_init((4, 3, 3, 3), 0.001, ops.RngState(9).generator())
        assert a.tobytes() == b.tobytes()

    def test_sample_statistics(self):
        draws = ops.gaussian_init((1_000_000,), 0.01, ops.RngState(3).generator())
        assert abs(float(draws.mean())) < 5 * 0.01 / 1000.0
        assert abs(float(draws.std()) - 0.01) < 0.0001

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            ops.gaussian_init((2, 2), 0.0, ops.RngState(0).generator())


class TestRngState:
    def test_child_streams_deterministic(self):
        a = ops.RngState(5).child(1, 2).standard_normal(4)
        b = ops.RngState(5).child(1, 2).standard_normal(4)
        c = ops.RngState(5).child(1, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
