"""Plain convolutional stacks with exact parameter and multiply accounting.

The network is a sequence of conv+bias+activation layers followed by global
average pooling and a linear classifier head. Layers are numbered L0..L(K-1).
Each layer is one ``tensor.conv2d`` call that adds the bias and applies the
activation itself, so it costs one tape record (``run_layer``).
Analytic multiply counts follow the usual convention: one MAdd per
kernel-times-input multiply, biases and pooling uncounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class LayerSpec:
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0
    activation: str = "relu"

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_size) < 1:
            raise ValueError(f"layer dimensions must be positive: {self}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def kernel_shape(self) -> tuple[int, int, int, int]:
        """The layer's kernel shape, (O, I, K, K)."""
        return (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)

    @property
    def kernel_params(self) -> int:
        """Weights in the layer's kernel, also its MAdds per output position."""
        return self.out_channels * self.in_channels * self.kernel_size ** 2


@dataclass(frozen=True)
class BackboneSpec:
    """Input shape (C, H, W), ordered conv layers L0..L(K-1), and a classifier head."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("a backbone needs at least one conv layer")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        chain = self.input_shape[0]
        for i, layer in enumerate(self.layers):
            if layer.in_channels != chain:
                raise ValueError(
                    f"layer L{i} expects {layer.in_channels} input channels but receives {chain}"
                )
            chain = layer.out_channels
        self.spatial_sizes()  # raises if any layer shrinks the map below 1x1
        # the price memo keys by spec on every image: hash the tree once
        object.__setattr__(self, "_hash", hash((self.input_shape, self.layers, self.num_classes)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def feature_channels(self) -> int:
        return self.layers[-1].out_channels

    def spatial_sizes(self) -> list[tuple[int, int]]:
        """Per-layer output (H, W), starting from the spec input."""
        h, w = self.input_shape[1:]
        sizes = []
        for i, layer in enumerate(self.layers):
            h = (h + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
            w = (w + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
            if h < 1 or w < 1:
                raise ValueError(f"layer L{i} reduces the spatial map to {h}x{w}")
            sizes.append((h, w))
        return sizes


class LayerParams(NamedTuple):
    kernel: T.Tensor
    bias: T.Tensor


@dataclass
class BackboneParams:
    layers: list[LayerParams] = field(default_factory=list)
    head_w: T.Tensor | None = None
    head_b: T.Tensor | None = None


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> T.Tensor:
    # uniform with std = 1/sqrt(fan_in)
    bound = np.sqrt(3.0) / np.sqrt(fan_in)
    return T.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zero_bias(n: int) -> T.Tensor:
    """A trainable zero bias of length ``n``."""
    return T.Tensor(np.zeros(n), requires_grad=True)


def init_kernel(rng: np.random.Generator, layer: LayerSpec, lead: tuple[int, ...] = ()) -> T.Tensor:
    """A fan-in-scaled uniform (*lead, O, I, K, K) kernel for ``layer``, in one draw."""
    return _uniform(rng, (*lead, *layer.kernel_shape), layer.in_channels * layer.kernel_size ** 2)


def init_linear(rng: np.random.Generator, fan_in: int, width: int) -> tuple[T.Tensor, T.Tensor]:
    """A fan-in-scaled uniform (fan_in, width) weight and a zero bias."""
    return _uniform(rng, (fan_in, width), fan_in), zero_bias(width)


def build(spec: BackboneSpec, seed: int) -> BackboneParams:
    """Initialize parameters: fan-in-scaled uniform kernels, zero biases."""
    rng = np.random.default_rng(seed)
    layers = [LayerParams(init_kernel(rng, layer), zero_bias(layer.out_channels))
              for layer in spec.layers]
    return BackboneParams(layers, *init_linear(rng, spec.feature_channels, spec.num_classes))


def run_layer(x: T.Tensor, layer: LayerSpec, lp: LayerParams) -> T.Tensor:
    """One conv layer, bias and activation included, as one ``conv2d`` call."""
    return T.conv2d(x, lp.kernel, layer.stride, layer.padding, lp.bias, layer.activation == "relu")


def forward_features(params: BackboneParams, spec: BackboneSpec, x: T.Tensor,
                     trace: list | None = None) -> T.Tensor:
    """Conv stack plus global average pooling: NCHW -> (B, feature_channels).

    When ``trace`` is given, an ("execute", k) event is appended as each
    layer runs, so tests can check execution order against coefficient
    availability.
    """
    if x.data.shape[1:] != spec.input_shape:  # also refuses any input that is not NCHW
        raise T.ShapeError(f"input {x.shape} does not match spec input shape {spec.input_shape}")
    out = x
    for k, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        if trace is not None:
            trace.append(("execute", k))
        out = run_layer(out, layer, lp)
    return T.global_avg_pool(out)


def plan_features(spec: BackboneSpec, shape: tuple, share_mask: tuple[bool, ...] | None = None) -> tuple:
    """``forward_features``' geometry on a (B, C, H, W) input, checked: each
    layer's (ReLU, conv plan). A layer that ``share_mask`` does not share
    takes per-sample (B, O, I, K, K) kernels; with no mask every layer shares."""
    plans = []
    for k, layer in enumerate(spec.layers):
        kshape = layer.kernel_shape if share_mask is None or share_mask[k] else (shape[0], *layer.kernel_shape)
        plans.append((layer.activation == "relu",
                      T._conv_plan(shape, kshape, layer.stride, layer.padding, (layer.out_channels,))))
        shape = plans[-1][1][-1]
    return tuple(plans)


def planned_features(x: np.ndarray, plans: tuple, kernels, biases, trace: list | None = None) -> np.ndarray:
    """``forward_features`` on ndarrays through ``plan_features``' plans: each
    layer's conv kernel on its kernel array and bias Tensor, then the
    pooling, with the same trace events."""
    for k, ((relu, plan), kernel, bias) in enumerate(zip(plans, kernels, biases)):
        if trace is not None:
            trace.append(("execute", k))
        x = T._conv(x, kernel, bias.data, relu, plan)[0]
    return T._pool(x)


def forward(params: BackboneParams, spec: BackboneSpec, x: T.Tensor,
            trace: list | None = None) -> T.Tensor:
    """Full forward to logits of shape (B, num_classes)."""
    feats = forward_features(params, spec, x, trace)
    return T.linear(feats, params.head_w, params.head_b)


def count_params(spec: BackboneSpec) -> int:
    head = spec.feature_channels * spec.num_classes + spec.num_classes
    return sum(layer.kernel_params + layer.out_channels for layer in spec.layers) + head


def madds_per_layer(spec: BackboneSpec) -> list[int]:
    """Multiplies per conv layer for one image; the classifier is appended last."""
    sizes = spec.spatial_sizes()
    counts = [h * w * layer.kernel_params for layer, (h, w) in zip(spec.layers, sizes)]
    return counts + [spec.feature_channels * spec.num_classes]


def count_madds(spec: BackboneSpec) -> int:
    return sum(madds_per_layer(spec))
