"""Dense-tensor kernels: convolution, activation, loss, SGD and random init.

Tensors are float32 numpy arrays, except that the reference pair
conv2d_forward / conv2d_backward also takes float64. Image-like data
("tensor4") is laid out (batch, channels, height, width); convolution
kernels (out_filters, in_channels, kh, kw). Every operation here is
deterministic for fixed inputs and a fixed BLAS thread count. The four conv
entry points share one engine (pad, unfold, one matmul plus bias in the
dtype each entry point fixes) whose arrays live in a Workspace (ws=):
training passes its own to reuse them from batch to batch, model.forward
its own to reuse them from chunk to chunk, and ws=None means a throwaway
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FLOAT = np.float32

# bytes of float64 input columns conv2d_forward unfolds at once
COLS_BUDGET = 8 << 20


class ShapeMismatchError(ValueError):
    """Two tensors disagree on a dimension that must match."""

    def __init__(self, what: str, expected, got):
        super().__init__(f"{what}: expected {expected}, got {got}")


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


class Workspace:
    """Arrays that conv calls handed the same workspace reuse from call to call.

    Each array is kept under a key, zero-filled when first made, and made
    again only when a call needs more elements or another dtype; a call
    takes a view of its leading elements. A batch dimension that shrinks
    (a partial last batch) keeps each sample's block in place, and padded
    inputs are keyed by their padded shape and pad, so their zero borders,
    written once, stay zero: calls write only the interior.
    """

    def __init__(self):
        self._arrays: dict = {}

    def array(self, key, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        a = self._arrays.get(key)
        if a is None or a.size < size or a.dtype != dtype:
            a = self._arrays[key] = np.zeros(size, dtype)
        return a[:size].reshape(shape)


def _pad(x: np.ndarray, pad: int, ws: Workspace) -> np.ndarray:
    """x zero-padded by pad on both spatial sides, in a workspace array."""
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = ws.array(("padded", c, h + 2 * pad, w + 2 * pad, pad), (n, c, h + 2 * pad, w + 2 * pad), x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _unfold(x: np.ndarray, kh: int, kw: int, pad: int, acc, ws: Workspace, role: str) -> np.ndarray:
    """Sliding windows of the padded input as (n, c*kh*kw, oh*ow) columns of dtype acc."""
    xp = _pad(x, pad, ws)
    n, c, hp, wp = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(xp, (n, c, kh, kw, oh, ow), (s[0], s[1], s[2], s[3], s[2], s[3]))
    cols = ws.array(role + "_cols", (n, c * kh * kw, oh * ow), acc)
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


def _conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int, acc, ws: Workspace, role: str):
    """Cross-correlation plus bias accumulated in dtype acc, and the unfolded
    input columns, both in the workspace's arrays under role."""
    co, ci, kh, kw, oh, ow = _check_conv_args(x, kernel, bias, pad)
    cols = _unfold(x, kh, kw, pad, acc, ws, role)
    out = ws.array(role + "_out", (x.shape[0], co, oh * ow), acc)
    np.matmul(kernel.reshape(co, -1).astype(acc, copy=False), cols, out=out)
    out += bias.astype(acc, copy=False)[:, None]
    return out.reshape(x.shape[0], co, oh, ow), cols


def conv2d_forward(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int, *, ws: Workspace | None = None
) -> np.ndarray:
    """Stride-1 cross-correlation of a 4-D batch with square kernels,
    accumulated in float64.

    The input is unfolded and multiplied one band of output rows at a time,
    each band's float64 columns kept under COLS_BUDGET bytes in one buffer
    that every band reuses, and every band is written into one preallocated
    output. Each output value is the same sum, in the same order, as with
    one unfold of the whole input. A caller that convolves many chunks
    passes one workspace, so the buffers are reused across its calls too.
    """
    co, ci, kh, kw, oh, ow = _check_conv_args(x, kernel, bias, pad)
    ws = ws or Workspace()
    xp = _pad(x, pad, ws)
    kernel64, bias64 = kernel.astype(np.float64), bias.astype(np.float64)
    out = np.empty((x.shape[0], co, oh, ow), dtype=x.dtype)
    rows = max(1, COLS_BUDGET // (x.shape[0] * ci * kh * kw * ow * 8))
    for top in range(0, oh, rows):
        bottom = min(top + rows, oh)
        out[:, :, top:bottom] = _conv(xp[:, :, top : bottom + kh - 1], kernel64, bias64, 0, np.float64, ws, "band")[0]
    return out


def conv2d_forward_cols(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int, *, ws: Workspace | None = None):
    """Training forward: conv2d_forward accumulated in the input's dtype,
    plus the unfolded input columns.

    The columns are what the backward pass needs for the kernel gradient, so
    the training loop keeps them instead of re-unfolding. Both returned
    arrays live in the workspace and are overwritten by its next use; a
    caller that keeps them across calls gives each layer its own workspace.
    """
    return _conv(x, kernel, bias, pad, x.dtype, ws or Workspace(), "forward")


def conv2d_backward_from_cols(
    x_shape: tuple, kernel: np.ndarray, grad_output: np.ndarray, pad: int, cols: np.ndarray,
    need_grad_input: bool = True, *, ws: Workspace | None = None,
):
    """Backward pass given the forward pass's unfolded columns, accumulated
    in the columns' dtype.

    The input and kernel gradients live in the workspace and are
    overwritten by its next use; one workspace can serve every layer in
    turn. grad_output may be the input gradient an earlier call returned
    from the same workspace: it is read in full before that array is
    rewritten.
    """
    ws = ws or Workspace()
    co, ci, kh, kw = kernel.shape
    n, _, oh, ow = grad_output.shape
    go3 = grad_output.reshape(n, co, oh * ow).astype(cols.dtype, copy=False)
    per_sample = ws.array("grad_kernel_stack", (n, co, ci * kh * kw), cols.dtype)
    np.matmul(go3, cols.transpose(0, 2, 1), out=per_sample)
    summed = per_sample.sum(axis=0, out=ws.array("grad_kernel", (co, ci * kh * kw), cols.dtype))
    grad_kernel = summed.reshape(kernel.shape).astype(kernel.dtype, copy=False)
    grad_bias = grad_output.sum(axis=(0, 2, 3), dtype=cols.dtype).astype(kernel.dtype)
    grad_input = None
    if need_grad_input:
        # grad wrt input = cross-correlation of grad_output with the kernel
        # flipped spatially and transposed in/out, padded to undo the forward pad
        flipped = ws.array("flipped", (ci, co, kh, kw), kernel.dtype)
        np.copyto(flipped, kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        zero_bias = np.zeros(ci, dtype=kernel.dtype)
        grad_input = _conv(grad_output, flipped, zero_bias, kh - 1 - pad, cols.dtype, ws, "grad_input")[0]
        grad_input = grad_input.astype(grad_output.dtype, copy=False)
    return grad_input, grad_kernel, grad_bias


def conv2d_backward(x: np.ndarray, kernel: np.ndarray, grad_output: np.ndarray, pad: int):
    """Analytical gradients of a scalar loss through conv2d_forward,
    accumulated in float64.

    Returns (grad_input, grad_kernel, grad_bias).
    """
    co, ci, kh, kw, oh, ow = _check_conv_args(x, kernel, np.zeros(kernel.shape[0], dtype=FLOAT), pad)
    if grad_output.shape != (x.shape[0], co, oh, ow):
        raise ShapeMismatchError("grad_output dims", (x.shape[0], co, oh, ow), grad_output.shape)
    cols = _unfold(x, kh, kw, pad, np.float64, Workspace(), "forward")
    return conv2d_backward_from_cols(x.shape, kernel, grad_output, pad, cols)


def relu_backward(x: np.ndarray, grad_output: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """grad_output where x > 0, else +0, written into out (a fresh array by
    default); out may be grad_output itself."""
    # an integer multiply of the bit patterns by the 0/1 mask keeps them or
    # writes +0: np.where's result bit for bit, without its per-element branch
    bits = grad_output.view(f"u{grad_output.itemsize}")
    if out is None:
        return np.multiply(bits, x > 0).view(grad_output.dtype)
    np.multiply(bits, x > 0, out=out.view(bits.dtype))
    return out


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
    """In-place p <- p - lr * g over matching lists of arrays.

    Each g is overwritten with lr * g, so the step allocates nothing; pass
    copies of gradients that are still needed.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    lr = FLOAT(lr)
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError("param vs grad dims", p.shape, g.shape)
        p -= np.multiply(g, lr, out=g)
    return params


def gaussian_init(dims, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. zero-mean Gaussian tensor with the given standard deviation."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return rng.standard_normal(dims, dtype=FLOAT) * FLOAT(sigma)
