"""ResNet50: full-size spec and a runnable Mini residual network.

ResNet50 [He et al. 2016] brings batch normalisation into every block.  BN
is non-linear, so DarKnight must run it inside the enclave — the paper's
Table 3 shows ResNet spending 75% of DarKnight time in non-linear TEE work,
capping the speedup at 4.2x (Fig. 5).  The spec below reproduces the exact
bottleneck layout (3-4-6-3 blocks) so those ratios emerge from counting.
"""

from __future__ import annotations

import numpy as np

from repro.models.specs import IMAGENET_INPUT, ModelSpec, SpecBuilder
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Dense,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
)

#: (n_blocks, bottleneck_channels, output_channels, first_stride) per stage.
_RESNET50_STAGES = [
    (3, 64, 256, 1),
    (4, 128, 512, 2),
    (6, 256, 1024, 2),
    (3, 512, 2048, 2),
]


def resnet50_spec(n_classes: int = 1000) -> ModelSpec:
    """Exact ResNet50 inventory: ~25.6M params, ~4.1 GMACs at 224x224."""
    b = SpecBuilder("ResNet50", IMAGENET_INPUT)
    b.conv(64, kernel=7, stride=2, pad=3).batchnorm().relu()
    b.maxpool(3, stride=2)
    for n_blocks, mid, out, first_stride in _RESNET50_STAGES:
        for block in range(n_blocks):
            stride = first_stride if block == 0 else 1
            project = block == 0
            # The projection path needs the *pre-block* shape; SpecBuilder is
            # sequential, so we count the projection right after the expand
            # conv with matching dims (counts are identical).
            _bottleneck_with_shape(b, mid, out, stride, project)
    b.global_avgpool()
    b.dense(n_classes)
    b.softmax()
    return b.build()


def _bottleneck_with_shape(b: SpecBuilder, mid: int, out: int, stride: int, project: bool):
    """One bottleneck (1x1 reduce, 3x3, 1x1 expand) with optional projection.

    The projection shortcut runs in parallel in the real graph; counting it
    sequentially right after the expand conv is exact for ops/bytes (the
    totals do not depend on ordering), using the stored pre-block shape.
    """
    in_shape = b.shape
    b.conv(mid, kernel=1, stride=1, pad=0).batchnorm().relu()
    b.conv(mid, kernel=3, stride=stride, pad=1).batchnorm().relu()
    b.conv(out, kernel=1, stride=1, pad=0).batchnorm()
    if project:
        # Count the 1x1/stride projection from the stored input shape.
        c_in = in_shape[0]
        oh, ow = b.shape[1], b.shape[2]
        macs = oh * ow * out * c_in
        params = out * c_in + out
        from repro.models.specs import LayerCounts

        counts = LayerCounts(
            macs_forward=macs,
            macs_grad_w=macs,
            macs_grad_x=macs,
            params=params,
            param_bytes=params * 4,
            activation_elems=out * oh * ow,
            activation_bytes=out * oh * ow * 4,
        )
        b._add("conv", (out, oh, ow), counts, label=f"shortcut_proj_{len(b.spec.layers)}")
        b.batchnorm()
    b.add().relu()


def build_mini_resnet(
    input_shape: tuple[int, int, int] = (3, 16, 16),
    n_classes: int = 10,
    rng: np.random.Generator | None = None,
    width: int = 16,
) -> Sequential:
    """Laptop-scale ResNet-family network (BN + residual blocks + GAP head)."""
    rng = rng or np.random.default_rng()
    c, _, _ = input_shape

    def block(channels: int) -> ResidualBlock:
        return ResidualBlock(
            body=[
                Conv2D(channels, channels, 3, 1, 1, rng=rng),
                BatchNorm2D(channels),
                ReLU(),
                Conv2D(channels, channels, 3, 1, 1, rng=rng),
                BatchNorm2D(channels),
            ]
        )

    layers = [
        Conv2D(c, width, 3, 1, 1, rng=rng),
        BatchNorm2D(width),
        ReLU(),
        block(width),
        MaxPool2D(2),
        Conv2D(width, 2 * width, 3, 1, 1, rng=rng),
        BatchNorm2D(2 * width),
        ReLU(),
        block(2 * width),
        GlobalAvgPool(),
        Dense(2 * width, n_classes, rng=rng),
    ]
    return Sequential(layers, input_shape)
