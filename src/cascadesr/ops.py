"""Dense-tensor kernels: convolution, activation, loss, SGD and random init.

All tensors are float32 numpy arrays. Image-like data ("tensor4") is laid out
(batch, channels, height, width); convolution kernels are laid out
(out_filters, in_channels, kh, kw). Every operation here is a pure function
and is deterministic for fixed inputs and a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLOAT = np.float32


class ShapeMismatchError(ValueError):
    """Two tensors disagree on a dimension that must match."""

    def __init__(self, what: str, expected, got):
        super().__init__(f"{what}: expected {expected}, got {got}")
        self.what = what
        self.expected = expected
        self.got = got


@dataclass(frozen=True)
class RngState:
    """Reproducible random source: a 64-bit seed for numpy's PCG64 generator.

    Identical seed and call sequence give identical streams on every
    platform. Children derived through ``child`` get independent streams
    that are themselves fully determined by (seed, keys).
    """

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))

    def child(self, *keys: int) -> np.random.Generator:
        """Generator for a named sub-stream, e.g. child(stage, epoch)."""
        seq = np.random.SeedSequence(self.seed, spawn_key=tuple(int(k) for k in keys))
        return np.random.default_rng(seq)


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    if x.ndim != 4:
        raise ShapeMismatchError(f"{name} rank", 4, x.ndim)
    if min(x.shape) < 1:
        raise ShapeMismatchError(f"{name} dims", ">= 1 everywhere", x.shape)
    return x


def _pad_cast(x: np.ndarray, pad: int, dtype) -> np.ndarray:
    """Zero-pad and convert in one pass."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int, acc_dtype):
    """Unfold sliding windows into (n, c*kh*kw, oh*ow) for one big matmul."""
    xp = _pad_cast(x, pad, acc_dtype)
    n, c, hp, wp = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, oh, ow), (s[0], s[1], s[2], s[3], s[2], s[3])
    )
    return np.ascontiguousarray(windows).reshape(n, c * kh * kw, oh * ow), oh, ow


def conv2d_output_size(in_size: int, kernel: int, pad: int) -> int:
    return in_size + 2 * pad - kernel + 1


def _check_conv_args(x, kernel, bias, pad):
    check_tensor4(x, "input")
    if kernel.ndim != 4:
        raise ShapeMismatchError("kernel rank", 4, kernel.ndim)
    co, ci, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeMismatchError("kernel height vs width", kh, kw)
    if x.shape[1] != ci:
        raise ShapeMismatchError("input channels vs kernel in_channels", ci, x.shape[1])
    if bias.shape != (co,):
        raise ShapeMismatchError("bias length vs out_filters", (co,), bias.shape)
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    oh = conv2d_output_size(x.shape[2], kh, pad)
    ow = conv2d_output_size(x.shape[3], kw, pad)
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(
            "conv output size", ">= 1", f"{oh}x{ow} (input {x.shape[2]}x{x.shape[3]}, kernel {kh}, pad {pad})"
        )
    return co, ci, kh, kw, oh, ow


def _conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int, acc):
    """Cross-correlation plus bias accumulated in dtype acc; also returns the
    unfolded input columns."""
    co, ci, kh, kw, oh, ow = _check_conv_args(x, kernel, bias, pad)
    cols, oh, ow = _im2col(x, kh, kw, pad, acc)
    out = np.matmul(kernel.reshape(co, -1).astype(acc, copy=False), cols)
    out += bias.astype(acc, copy=False)[:, None]
    return out.reshape(x.shape[0], co, oh, ow).astype(x.dtype, copy=False), cols


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 cross-correlation of a 4-D batch with square kernels,
    accumulated in float64."""
    return _conv(x, kernel, bias, pad, np.float64)[0]


def conv2d_forward_cols(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int):
    """Training forward: conv2d_forward accumulated in the input's dtype,
    plus the unfolded input columns.

    The columns are what the backward pass needs for the kernel gradient, so
    the training loop keeps them instead of re-unfolding.
    """
    return _conv(x, kernel, bias, pad, x.dtype)


def conv2d_backward_from_cols(
    x_shape: tuple,
    kernel: np.ndarray,
    grad_output: np.ndarray,
    pad: int,
    cols: np.ndarray,
    need_grad_input: bool = True,
):
    """Backward pass given the forward pass's unfolded columns, accumulated
    in the columns' dtype."""
    co, ci, kh, kw = kernel.shape
    n, _, oh, ow = grad_output.shape
    go3 = grad_output.reshape(n, co, oh * ow).astype(cols.dtype, copy=False)
    grad_kernel = (
        np.matmul(go3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape).astype(kernel.dtype)
    )
    grad_bias = grad_output.sum(axis=(0, 2, 3), dtype=cols.dtype).astype(kernel.dtype)
    grad_input = None
    if need_grad_input:
        # grad wrt input = cross-correlation of grad_output with the kernel
        # flipped spatially and transposed in/out, padded to undo the forward pad
        flipped = np.ascontiguousarray(kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        zero_bias = np.zeros(ci, dtype=kernel.dtype)
        grad_input, _ = _conv(grad_output, flipped, zero_bias, kh - 1 - pad, cols.dtype)
    return grad_input, grad_kernel, grad_bias


def conv2d_backward(x: np.ndarray, kernel: np.ndarray, grad_output: np.ndarray, pad: int):
    """Analytical gradients of a scalar loss through conv2d_forward,
    accumulated in float64.

    Returns (grad_input, grad_kernel, grad_bias).
    """
    co, ci, kh, kw, oh, ow = _check_conv_args(x, kernel, np.zeros(kernel.shape[0], dtype=FLOAT), pad)
    if grad_output.shape != (x.shape[0], co, oh, ow):
        raise ShapeMismatchError("grad_output dims", (x.shape[0], co, oh, ow), grad_output.shape)
    cols, _, _ = _im2col(x, kh, kw, pad, np.float64)
    return conv2d_backward_from_cols(x.shape, kernel, grad_output, pad, cols)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    return np.where(x > 0, grad_output, FLOAT(0))


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Per-element mean squared error and its gradient wrt pred.

    The reported loss is the mean (not the raw half-sum) so convergence
    thresholds do not depend on batch or patch size; the gradient matches
    the reported form.
    """
    if pred.shape != target.shape:
        raise ShapeMismatchError("pred vs target dims", target.shape, pred.shape)
    diff = pred - target
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    grad = (FLOAT(2.0) / FLOAT(diff.size)) * diff
    return loss, grad


def sgd_step(params, grads, lr: float):
    """In-place p <- p - lr * g over matching lists of arrays."""
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    lr = FLOAT(lr)
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError("param vs grad dims", p.shape, g.shape)
        p -= lr * g
    return params


def gaussian_init(dims, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. zero-mean Gaussian tensor with the given standard deviation."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return rng.standard_normal(dims, dtype=FLOAT) * FLOAT(sigma)
