"""Layer-by-layer architecture specs for op/byte counting.

The paper's timing experiments (Tables 1, 3, 4; Figures 3, 5, 6, 7) run
full-size VGG16/ResNet50/MobileNet on ImageNet-shaped inputs — far beyond
what a numpy simulator should *execute*.  What the performance model needs
is exact *counts*: multiply-accumulates per linear layer, element counts per
non-linear layer, activation and weight bytes.  A :class:`ModelSpec` is that
inventory, built layer by layer with shapes propagated exactly as the real
network would.

Specs are pure data — no tensors are ever allocated — so building VGG16 at
224x224 costs microseconds while reporting its true 15.5 GMAC forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import ConfigurationError
from repro.nn.functional import conv_output_size

#: ImageNet's input shape, at which every full-size spec is counted.
IMAGENET_INPUT = (3, 224, 224)

#: Operator classes the cost model prices separately.
LINEAR_KINDS = frozenset({"conv", "dense", "depthwise_conv"})
NONLINEAR_KINDS = frozenset(
    {"relu", "maxpool", "global_avgpool", "batchnorm", "add", "softmax", "flatten"}
)


@dataclass(frozen=True)
class LayerCounts:
    """Static cost inventory of one layer.

    Attributes
    ----------
    macs_forward:
        Multiply-accumulates of the forward linear op (0 for non-linear).
    macs_grad_w / macs_grad_x:
        Backward MACs for the weight and input gradients.
    elementwise:
        Element-operations for non-linear layers (per forward pass).
    params / param_bytes:
        Trainable scalar count and float32 footprint.
    activation_elems / activation_bytes:
        Output tensor size per sample (float32 bytes).
    """

    macs_forward: int = 0
    macs_grad_w: int = 0
    macs_grad_x: int = 0
    elementwise: int = 0
    params: int = 0
    param_bytes: int = 0
    activation_elems: int = 0
    activation_bytes: int = 0


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a counted architecture."""

    name: str
    kind: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    counts: LayerCounts

    @property
    def is_linear(self) -> bool:
        """True for the bilinear ops DarKnight offloads."""
        return self.kind in LINEAR_KINDS


@dataclass
class ModelSpec:
    """A named, counted architecture."""

    name: str
    input_shape: tuple[int, int, int]
    layers: list[LayerSpec] = dataclass_field(default_factory=list)

    # ------------------------------------------------------------------
    # aggregate queries used by the perf model
    # ------------------------------------------------------------------
    @property
    def param_bytes(self) -> int:
        """float32 weight footprint."""
        return sum(l.counts.param_bytes for l in self.layers)

    def elementwise_ops(self, kinds: frozenset[str] | None = None) -> int:
        """Non-linear element-ops per sample, optionally for specific kinds."""
        selected = NONLINEAR_KINDS if kinds is None else kinds
        return sum(l.counts.elementwise for l in self.layers if l.kind in selected)

    def activation_bytes(self) -> int:
        """Sum of per-layer output bytes for one sample (forward footprint)."""
        return sum(l.counts.activation_bytes for l in self.layers)


class SpecBuilder:
    """Incremental :class:`ModelSpec` construction with shape propagation."""

    def __init__(self, name: str, input_shape: tuple[int, int, int]) -> None:
        self.spec = ModelSpec(name=name, input_shape=tuple(input_shape))
        self.shape: tuple[int, ...] = tuple(input_shape)
        self._counter = 0

    def _add(self, kind: str, out_shape: tuple[int, ...], counts: LayerCounts, label=None):
        self._counter += 1
        self.spec.layers.append(
            LayerSpec(
                name=label or f"{kind}_{self._counter}",
                kind=kind,
                in_shape=self.shape,
                out_shape=out_shape,
                counts=counts,
            )
        )
        self.shape = out_shape
        return self

    # ------------------------------------------------------------------
    # linear layers
    # ------------------------------------------------------------------
    def conv(self, out_channels: int, kernel: int = 3, stride: int = 1, pad: int = 1,
             bias: bool = True, label: str | None = None) -> "SpecBuilder":
        """Standard convolution."""
        c, h, w = self.shape
        oh = conv_output_size(h, kernel, stride, pad)
        ow = conv_output_size(w, kernel, stride, pad)
        macs = oh * ow * out_channels * c * kernel * kernel
        params = out_channels * c * kernel * kernel + (out_channels if bias else 0)
        out_elems = out_channels * oh * ow
        counts = LayerCounts(
            macs_forward=macs,
            macs_grad_w=macs,
            macs_grad_x=macs,
            params=params,
            param_bytes=params * 4,
            activation_elems=out_elems,
            activation_bytes=out_elems * 4,
        )
        return self._add("conv", (out_channels, oh, ow), counts, label)

    def depthwise_conv(self, kernel: int = 3, stride: int = 1, pad: int = 1,
                       label: str | None = None) -> "SpecBuilder":
        """Depthwise convolution (MobileNet)."""
        c, h, w = self.shape
        oh = conv_output_size(h, kernel, stride, pad)
        ow = conv_output_size(w, kernel, stride, pad)
        macs = oh * ow * c * kernel * kernel
        params = c * kernel * kernel
        out_elems = c * oh * ow
        counts = LayerCounts(
            macs_forward=macs,
            macs_grad_w=macs,
            macs_grad_x=macs,
            params=params,
            param_bytes=params * 4,
            activation_elems=out_elems,
            activation_bytes=out_elems * 4,
        )
        return self._add("depthwise_conv", (c, oh, ow), counts, label)

    def dense(self, out_features: int, bias: bool = True, label=None) -> "SpecBuilder":
        """Fully connected layer; flattens implicitly if needed."""
        if len(self.shape) != 1:
            self.flatten()
        (in_features,) = self.shape
        macs = in_features * out_features
        params = in_features * out_features + (out_features if bias else 0)
        counts = LayerCounts(
            macs_forward=macs,
            macs_grad_w=macs,
            macs_grad_x=macs,
            params=params,
            param_bytes=params * 4,
            activation_elems=out_features,
            activation_bytes=out_features * 4,
        )
        return self._add("dense", (out_features,), counts, label)

    # ------------------------------------------------------------------
    # non-linear layers
    # ------------------------------------------------------------------
    def _elementwise(self, kind: str, out_shape, elems_factor: float = 1.0, label=None):
        out_elems = 1
        for d in out_shape:
            out_elems *= d
        counts = LayerCounts(
            elementwise=int(out_elems * elems_factor),
            activation_elems=out_elems,
            activation_bytes=out_elems * 4,
        )
        return self._add(kind, tuple(out_shape), counts, label)

    def relu(self, label=None) -> "SpecBuilder":
        """Rectifier (1 op per element)."""
        return self._elementwise("relu", self.shape, 1.0, label)

    def maxpool(self, size: int = 2, stride: int | None = None, label=None) -> "SpecBuilder":
        """Max pooling (size^2 comparisons per output element)."""
        stride = stride or size
        c, h, w = self.shape
        oh = conv_output_size(h, size, stride, 0)
        ow = conv_output_size(w, size, stride, 0)
        return self._elementwise("maxpool", (c, oh, ow), float(size * size), label)

    def global_avgpool(self, label=None) -> "SpecBuilder":
        """Spatial mean per channel."""
        c, h, w = self.shape
        builder = self._elementwise("global_avgpool", (c,), float(h * w), label)
        return builder

    def batchnorm(self, label=None) -> "SpecBuilder":
        """Batch normalisation: ~4 passes over the tensor plus 2 params/channel."""
        c = self.shape[0]
        out_elems = 1
        for d in self.shape:
            out_elems *= d
        counts = LayerCounts(
            elementwise=4 * out_elems,
            params=2 * c,
            param_bytes=8 * c,
            activation_elems=out_elems,
            activation_bytes=out_elems * 4,
        )
        return self._add("batchnorm", self.shape, counts, label)

    def add(self, label=None) -> "SpecBuilder":
        """Residual addition (1 op per element)."""
        return self._elementwise("add", self.shape, 1.0, label)

    def flatten(self, label=None) -> "SpecBuilder":
        """Shape-only reshape."""
        out = 1
        for d in self.shape:
            out *= d
        counts = LayerCounts(activation_elems=out, activation_bytes=out * 4)
        return self._add("flatten", (out,), counts, label)

    def softmax(self, label=None) -> "SpecBuilder":
        """Final probability layer (counted ~3 ops/element)."""
        return self._elementwise("softmax", self.shape, 3.0, label)

    def build(self) -> ModelSpec:
        """Finish and return the spec."""
        if not self.spec.layers:
            raise ConfigurationError("spec has no layers")
        return self.spec
