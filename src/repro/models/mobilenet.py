"""MobileNetV1/V2: full-size specs and a runnable Mini variant.

The paper calls MobileNetV2 "the worst-case benchmark for our model as it
reduces linear operations considerably (using depth-wise separable
convolution)" — little linear work to offload, lots of BN to keep in the
enclave, hence only 2.2x training speedup (Fig. 5).  MobileNetV1 appears in
the inference comparison against Slalom (Fig. 6a).
"""

from __future__ import annotations

import numpy as np

from repro.models.specs import IMAGENET_INPUT, ModelSpec, SpecBuilder
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    ReLU,
    Sequential,
)

#: MobileNetV1 separable blocks: (pointwise_out_channels, stride).
_MOBILENET_V1_BLOCKS = [
    (64, 1),
    (128, 2), (128, 1),
    (256, 2), (256, 1),
    (512, 2), (512, 1), (512, 1), (512, 1), (512, 1), (512, 1),
    (1024, 2), (1024, 1),
]

#: MobileNetV2 inverted residual plan: (expansion, out_channels, repeats, stride).
_MOBILENET_V2_BLOCKS = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
]


def mobilenet_v1_spec(n_classes: int = 1000) -> ModelSpec:
    """Exact MobileNetV1 inventory: ~4.2M params, ~0.57 GMACs at 224x224."""
    b = SpecBuilder("MobileNetV1", IMAGENET_INPUT)
    b.conv(32, kernel=3, stride=2, pad=1).batchnorm().relu()
    for out_channels, stride in _MOBILENET_V1_BLOCKS:
        b.depthwise_conv(kernel=3, stride=stride, pad=1).batchnorm().relu()
        b.conv(out_channels, kernel=1, stride=1, pad=0).batchnorm().relu()
    b.global_avgpool()
    b.dense(n_classes)
    b.softmax()
    return b.build()


def mobilenet_v2_spec(n_classes: int = 1000) -> ModelSpec:
    """Exact MobileNetV2 inventory: ~3.5M params, ~0.3 GMACs at 224x224.

    Inverted residuals: 1x1 expand (t×), 3x3 depthwise, 1x1 linear project,
    residual add when stride 1 and shapes match.
    """
    b = SpecBuilder("MobileNetV2", IMAGENET_INPUT)
    b.conv(32, kernel=3, stride=2, pad=1).batchnorm().relu()
    in_channels = 32
    for expansion, out_channels, repeats, first_stride in _MOBILENET_V2_BLOCKS:
        for i in range(repeats):
            stride = first_stride if i == 0 else 1
            hidden = in_channels * expansion
            if expansion != 1:
                b.conv(hidden, kernel=1, stride=1, pad=0).batchnorm().relu()
            b.depthwise_conv(kernel=3, stride=stride, pad=1).batchnorm().relu()
            b.conv(out_channels, kernel=1, stride=1, pad=0).batchnorm()
            if stride == 1 and in_channels == out_channels:
                b.add()
            in_channels = out_channels
    b.conv(1280, kernel=1, stride=1, pad=0).batchnorm().relu()
    b.global_avgpool()
    b.dense(n_classes)
    b.softmax()
    return b.build()


def build_mini_mobilenet(
    input_shape: tuple[int, int, int] = (3, 16, 16),
    n_classes: int = 10,
    rng: np.random.Generator | None = None,
    width: int = 16,
) -> Sequential:
    """Laptop-scale MobileNet-family net (depthwise-separable blocks + BN)."""
    rng = rng or np.random.default_rng()
    c, _, _ = input_shape

    def separable(in_ch: int, out_ch: int, stride: int) -> list:
        return [
            DepthwiseConv2D(in_ch, 3, stride, 1, rng=rng),
            BatchNorm2D(in_ch),
            ReLU(),
            Conv2D(in_ch, out_ch, 1, 1, 0, rng=rng),
            BatchNorm2D(out_ch),
            ReLU(),
        ]

    layers = [
        Conv2D(c, width, 3, 1, 1, rng=rng),
        BatchNorm2D(width),
        ReLU(),
        *separable(width, 2 * width, 2),
        *separable(2 * width, 4 * width, 2),
        GlobalAvgPool(),
        Dense(4 * width, n_classes, rng=rng),
    ]
    return Sequential(layers, input_shape)
