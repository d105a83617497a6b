"""Network description, forward pass, growth by layer insertion, and model IO.

The architecture family is a chain of square convolutions with kernel
pattern 9, 5, then zero or more 3s, then 5. The 3x3 layers are padded by one
pixel per side so every depth maps an input of size S to S - 16, which keeps
training patches shareable across growth stages.

Model files are little-endian binary with magic "CTSR" (format below); a
JSON sidecar with the same stem duplicates the layer specs and holds the
stage history (training, then trimming stages) for inspection. The binary
file is authoritative: a model with no sidecar loads with an empty history,
but a sidecar that cannot be read is a ModelFormatError. A save replaces
both files only once both are written in full.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import atomic_write
from .ops import (
    FLOAT, RngState, Workspace, check_tensor4, conv2d_forward, conv2d_output_size, forward_row_bytes, gaussian_init,
)

MAGIC = b"CTSR"
FORMAT_VERSION = 1

ACT_NONE = "none"
ACT_RELU = "rectifier"
_ACT_CODES = {ACT_NONE: 0, ACT_RELU: 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

# bytes of float64 working set (ops.forward_row_bytes) the costliest layer of
# a forward chunk may hold. Line buffers make small chunks recompute nothing,
# but every chunk unfolds its k-1 halo rows again. Chosen by measurement on a
# 2-core box: a 512-px d7 plus trimmed d13 pass took a median 2.8 s at 4 MiB
# and 1.7-2.2 s from 8 to 16 MiB. The infer-large benchmark's peak RSS, set
# by whether its float64 reference check fits in the heap space a pass freed,
# read 74.6 MiB at 11 MiB and 79-87 MiB at 6-10 and 12-16 MiB
BAND_BUDGET = 11 << 20

# init std for every built layer, and the noise added to each inserted layer's identity tap
GAUSSIAN_SIGMA = 0.001


class ModelFormatError(ValueError):
    """Model file is malformed: bad magic, version, size, or invariants."""


class InvalidNetworkError(ValueError):
    """Layer list violates the architecture family's invariants."""


@dataclass(frozen=True)
class LayerSpec:
    kernel_size: int
    in_channels: int
    out_filters: int
    pad: int
    activation: str

    def __post_init__(self):
        if self.kernel_size not in (3, 5, 9):
            raise InvalidNetworkError(f"kernel_size must be 3, 5 or 9, got {self.kernel_size}")
        if self.out_filters < 1 or self.in_channels < 1:
            raise InvalidNetworkError(f"channel counts must be >= 1, got {self.in_channels}->{self.out_filters}")
        if self.pad not in (0, 1) or (self.pad == 1 and self.kernel_size != 3):
            raise InvalidNetworkError(f"pad {self.pad} invalid for kernel {self.kernel_size}")
        if self.activation not in _ACT_CODES:
            raise InvalidNetworkError(f"unknown activation {self.activation!r}")

    def weight_count(self) -> int:
        return self.kernel_size**2 * self.in_channels * self.out_filters


@dataclass
class Layer:
    spec: LayerSpec
    weights: np.ndarray  # (out, in, k, k) float32
    bias: np.ndarray  # (out,) float32

    def validate(self):
        s = self.spec
        expect = (s.out_filters, s.in_channels, s.kernel_size, s.kernel_size)
        if self.weights.shape != expect:
            raise InvalidNetworkError(f"weight shape {self.weights.shape} != spec {expect}")
        if self.bias.shape != (s.out_filters,):
            raise InvalidNetworkError(f"bias shape {self.bias.shape} != ({s.out_filters},)")


@dataclass
class StageLog:
    """One stage of cascade training or of trimming.

    losses holds the mean loss of each epoch run; terminated_by is
    "plateau" or "max_epochs". removed_filters maps a layer index to the
    output filters a trimming stage removed from it (empty for training
    stages); param_count_after is the weight count when the stage ended.
    """

    depth: int
    losses: list[float] = field(default_factory=list)
    terminated_by: str = "max_epochs"
    removed_filters: dict[int, list[int]] = field(default_factory=dict)
    param_count_after: int = 0

    @property
    def epochs(self) -> int:
        return len(self.losses)

    @classmethod
    def from_dict(cls, d: dict) -> StageLog:
        """Inverse of dataclasses.asdict through JSON, which turns the layer keys into strings."""
        return cls(**{**d, "removed_filters": {int(k): v for k, v in d["removed_filters"].items()}})


@dataclass
class NetworkModel:
    layers: list[Layer]
    scale: int = 2
    stage_history: list[StageLog] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def validate(self):
        if not self.layers:
            raise InvalidNetworkError("empty layer list")
        for layer in self.layers:
            layer.validate()
        specs = [l.spec for l in self.layers]
        if specs[0].in_channels != 1:
            raise InvalidNetworkError(f"first layer must take 1 channel, got {specs[0].in_channels}")
        if specs[-1].out_filters != 1:
            raise InvalidNetworkError(f"last layer must emit 1 filter, got {specs[-1].out_filters}")
        if specs[-1].activation != ACT_NONE:
            raise InvalidNetworkError("last layer must be linear")
        for a, b in zip(specs, specs[1:]):
            if a.out_filters != b.in_channels:
                raise InvalidNetworkError(
                    f"chain break: {a.out_filters} out filters feed {b.in_channels} in channels"
                )
        kernels = [s.kernel_size for s in specs]
        if kernels[0] != 9 or kernels[1] != 5 or kernels[-1] != 5 or any(k != 3 for k in kernels[2:-1]):
            raise InvalidNetworkError(f"kernel pattern must be 9-5-3...3-5, got {kernels}")
        return self

    def filter_counts(self) -> list[int]:
        return [l.spec.out_filters for l in self.layers]


def param_count(net: NetworkModel) -> int:
    """Weights-only parameter count (biases excluded)."""
    return sum(l.spec.weight_count() for l in net.layers)


def _layer_sizes(net: NetworkModel, h: int, w: int) -> list[tuple[int, int]]:
    """(height, width) of each layer's input, then of the output; raises
    naming the first layer the input is too small for."""
    sizes = [(h, w)]
    for index, layer in enumerate(net.layers):
        s = layer.spec
        oh, ow = (conv2d_output_size(d, s.kernel_size, s.pad) for d in sizes[-1])
        if oh < 1 or ow < 1:
            raise InvalidNetworkError(
                f"input too small: layer {index} (kernel {s.kernel_size}) gets {sizes[-1][0]}x{sizes[-1][1]}"
            )
        sizes.append((oh, ow))
    return sizes


def multiply_count(net: NetworkModel, in_h: int, in_w: int) -> int:
    """Analytic multiplications of one forward pass at the given input size.

    Per layer: in_channels * k^2 * out_filters * out_h * out_w.
    """
    sizes = _layer_sizes(net, in_h, in_w)
    return sum(l.spec.weight_count() * h * w for l, (h, w) in zip(net.layers, sizes[1:]))


def _family_specs(depth: int, first_filters: int, mid_filters: int) -> list[LayerSpec]:
    if depth < 3 or depth % 2 == 0:
        raise InvalidNetworkError(f"depth must be odd and >= 3, got {depth}")
    specs = [
        LayerSpec(9, 1, first_filters, 0, ACT_RELU),
        LayerSpec(5, first_filters, mid_filters, 0, ACT_RELU),
    ]
    specs += [LayerSpec(3, mid_filters, mid_filters, 1, ACT_RELU)] * (depth - 3)
    specs.append(LayerSpec(5, mid_filters, 1, 0, ACT_NONE))
    return specs


def build_network(
    depth: int,
    rng: RngState | np.random.Generator,
    scale: int = 2,
    first_filters: int = 64,
    mid_filters: int = 32,
) -> NetworkModel:
    """Full architecture at the given depth, Gaussian sigma=0.001 weights, zero biases."""
    gen = rng.generator() if isinstance(rng, RngState) else rng
    layers = []
    for spec in _family_specs(depth, first_filters, mid_filters):
        w = gaussian_init(
            (spec.out_filters, spec.in_channels, spec.kernel_size, spec.kernel_size), GAUSSIAN_SIGMA, gen
        )
        layers.append(Layer(spec, w, np.zeros(spec.out_filters, dtype=FLOAT)))
    return NetworkModel(layers, scale=scale).validate()


def insert_layers(
    net: NetworkModel, rng: RngState | np.random.Generator, how_many: int = 2
) -> NetworkModel:
    """Grow the network by 3x3 pad-1 layers just before the last 5x5 layer.

    Pre-existing layers are carried over untouched (same arrays). Each new
    layer is an identity map plus noise: centre tap w[c, c, 1, 1] = 1 on top
    of Gaussian sigma=0.001 weights, and zero biases. The new layers read the
    post-ReLU output of the layer before, so ReLU(I x) = x and the grown
    network computes what its parent did, up to the noise, in the spirit of
    Net2Net's function-preserving deepening (arXiv:1511.05641). The paper's
    abstract does not say how inserted layers are initialized; this is a
    choice of this reproduction. Two noise-only sigma=0.001 layers would
    shrink the signal about 3e-4 times, so the grown network would output
    roughly the last layer's bias and each stage would start over.
    """
    gen = rng.generator() if isinstance(rng, RngState) else rng
    filters = net.layers[-1].spec.in_channels
    layers = list(net.layers)
    for _ in range(how_many):
        spec = LayerSpec(3, filters, filters, 1, ACT_RELU)
        w = gaussian_init((filters, filters, 3, 3), GAUSSIAN_SIGMA, gen)
        w[np.arange(filters), np.arange(filters), 1, 1] += 1
        layers.insert(-1, Layer(spec, w, np.zeros(filters, dtype=FLOAT)))
    return NetworkModel(layers, scale=net.scale, stage_history=list(net.stage_history)).validate()


def forward(net: NetworkModel, x: np.ndarray) -> np.ndarray:
    """Whole-network forward pass, streamed through all layers in chunks of
    input rows.

    Each layer keeps a line buffer (the reuse model of fused-layer
    streaming, Alwani et al., MICRO 2016): the last k - 1 rows of its
    column-padded input. It joins them to the rows the layer before passed
    on, convolves, keeps the new last k - 1 rows and passes on exactly the
    output rows it could compute, so no row is computed twice. A padded
    layer gets its top zero rows with its first rows and its bottom zero
    rows with the image's last chunk. A chunk has as many rows as keep the
    costliest layer's float64 working set (ops.forward_row_bytes) within
    BAND_BUDGET, so each layer of a chunk is one conv2d_forward call and
    peak memory is bounded whatever the image height; each output pixel is
    the same sum, in the same order, as a whole-image pass.
    """
    check_tensor4(x, "input")
    if x.shape[1] != 1:
        raise InvalidNetworkError(f"network takes 1 input channel, got {x.shape[1]}")
    heights, widths = zip(*_layer_sizes(net, x.shape[2], x.shape[3]))
    n = x.shape[0]
    costliest = max(forward_row_bytes(l.weights.shape, w) for l, w in zip(net.layers, widths[1:]))
    rows = max(1, BAND_BUDGET // (n * costliest))
    out = np.empty((n, 1, heights[-1], widths[-1]), dtype=x.dtype)
    held = [None] * net.depth  # each layer's line buffer, once the layer has had rows
    ws = Workspace()  # one set of float64 buffers for every chunk's convolutions, not one per call
    done = 0
    for top in range(0, x.shape[2], rows):
        last = top + rows >= x.shape[2]
        h = x[:, :, top : top + rows]
        for i, layer in enumerate(net.layers):
            s = layer.spec
            if s.pad:  # zero columns, and zero rows only at the image's true top and bottom
                h = np.pad(h, ((0, 0), (0, 0), (s.pad * (held[i] is None), s.pad * last), (s.pad, s.pad)))
            if held[i] is not None:
                h = np.concatenate([held[i], h], axis=2)
            held[i] = h[:, :, 1 - s.kernel_size :].copy()
            if h.shape[2] < s.kernel_size:
                break  # too few rows yet for one output row
            h = conv2d_forward(h, layer.weights, layer.bias, 0, ws=ws)
            if s.activation == ACT_RELU:
                np.maximum(h, 0, out=h)
        else:
            out[:, :, done : done + h.shape[2]] = h
            done += h.shape[2]
    return out


def clone(net: NetworkModel) -> NetworkModel:
    return NetworkModel(
        [Layer(l.spec, l.weights.copy(), l.bias.copy()) for l in net.layers],
        scale=net.scale,
        stage_history=list(net.stage_history),
    )


def model_stem(path: str) -> str:
    """A model path without its .ctsr suffix: the stem of its sidecar and of its stage checkpoints."""
    return path[: -len(".ctsr")] if path.endswith(".ctsr") else path


def stage_path(out: str | None, tag: str, last: bool) -> str | None:
    """Where a run ending in the model out saves a stage: out if last, else <stem>-<tag>.ctsr beside it."""
    return None if out is None else out if last else f"{model_stem(out)}-{tag}.ctsr"


def save_model(net: NetworkModel, path: str) -> None:
    net.validate()
    parts = [MAGIC, struct.pack("<III", FORMAT_VERSION, net.scale, net.depth)]
    for layer in net.layers:
        s = layer.spec
        parts.append(
            struct.pack(
                "<IIIII", s.kernel_size, s.in_channels, s.out_filters, s.pad, _ACT_CODES[s.activation]
            )
        )
        parts.append(np.ascontiguousarray(layer.weights, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())
    sidecar = {
        "format_version": FORMAT_VERSION,
        "scale": net.scale,
        "layers": [asdict(l.spec) for l in net.layers],
        "stage_history": [asdict(log) for log in net.stage_history],
    }
    # both files are replaced only once both are written in full
    with atomic_write(path) as fh, atomic_write(model_stem(path) + ".json", "w") as side:
        fh.write(b"".join(parts))
        json.dump(sidecar, side, indent=2, sort_keys=True)
        side.write("\n")


def load_model(path: str) -> NetworkModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {blob[:4]!r}")
    off = 4
    try:
        version, scale, depth = struct.unpack_from("<III", blob, off)
    except struct.error as exc:
        raise ModelFormatError("truncated header") from exc
    off += 12
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    layers = []
    for i in range(depth):
        try:
            k, cin, cout, pad, act = struct.unpack_from("<IIIII", blob, off)
        except struct.error as exc:
            raise ModelFormatError(f"truncated layer header at layer {i}") from exc
        off += 20
        if act not in _ACT_NAMES:
            raise ModelFormatError(f"unknown activation code {act} at layer {i}")
        n_w = k * k * cin * cout
        end = off + 4 * (n_w + cout)
        if end > len(blob):
            raise ModelFormatError(f"truncated payload at layer {i}")
        w = np.frombuffer(blob, dtype="<f4", count=n_w, offset=off).reshape(cout, cin, k, k)
        off += 4 * n_w
        b = np.frombuffer(blob, dtype="<f4", count=cout, offset=off)
        off += 4 * cout
        spec = LayerSpec(k, cin, cout, pad, _ACT_NAMES[act])
        layers.append(Layer(spec, w.astype(FLOAT), b.astype(FLOAT)))
    if off != len(blob):
        raise ModelFormatError(f"{len(blob) - off} trailing bytes after last layer")
    net = NetworkModel(layers, scale=scale)
    net.validate()
    sidecar = model_stem(path) + ".json"
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
        net.stage_history = [StageLog.from_dict(r) for r in meta.get("stage_history", [])]
        specs = (meta["scale"], meta["layers"])
    except FileNotFoundError:
        return net  # a bare binary loads with no history: the binary is authoritative
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ModelFormatError(f"unreadable sidecar {sidecar}: {exc}") from exc
    # save_model replaces the sidecar first: a save cut there leaves the new sidecar beside the old binary
    if specs != (scale, [asdict(l.spec) for l in layers]):
        raise ModelFormatError(f"sidecar {sidecar} describes another model than {path} (scale or layer specs differ)")
    return net

