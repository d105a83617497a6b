import numpy as np
import pytest

from cascadesr.ops import FLOAT


def pytest_collection_modifyitems(config, items):
    """Mark every test that uses the desk fixture, so `pytest -m "not desk"` skips the long runs."""
    for item in items:
        if "desk" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.desk)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_tensor(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, shape).astype(FLOAT)


def naive_conv2d(x, kernel, bias, pad):
    """Sextuple-loop reference convolution (float64 accumulation)."""
    n, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    xp = np.zeros((n, ci, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for b in range(n):
        for f in range(co):
            for r in range(oh):
                for c in range(ow):
                    acc = 0.0
                    for ch in range(ci):
                        for i in range(kh):
                            for j in range(kw):
                                acc += float(xp[b, ch, r + i, c + j]) * float(kernel[f, ch, i, j])
                    out[b, f, r, c] = acc + float(bias[f])
    return out


def central_differences(f, x, step=1e-3):
    """Numerical gradient of scalar f wrt every element of x (float64)."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def relative_error(analytic, numeric, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
