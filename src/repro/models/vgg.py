"""VGG16: full-size spec (op counting) and a runnable Mini variant.

VGG16 [Simonyan & Zisserman 2014] is the paper's headline benchmark — 138 M
parameters, almost all time in big dense convolutions, no normalisation
layers.  That profile is why DarKnight's GPU offload shines on it (Table 1,
Fig. 5) and why it needs the dynamic max-abs quantization (Section 5).
"""

from __future__ import annotations

import numpy as np

from repro.models.specs import IMAGENET_INPUT, ModelSpec, SpecBuilder
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential

#: Channel plan per block: (n_convs, channels).
_VGG16_BLOCKS = [(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)]


def vgg16_spec(n_classes: int = 1000) -> ModelSpec:
    """The exact VGG16 layer inventory at ImageNet's 224x224.

    This reports ~138.4M parameters and ~15.5 GMACs forward, matching the
    published architecture.
    """
    b = SpecBuilder("VGG16", IMAGENET_INPUT)
    for n_convs, channels in _VGG16_BLOCKS:
        for _ in range(n_convs):
            b.conv(channels, kernel=3, stride=1, pad=1).relu()
        b.maxpool(2)
    b.dense(4096).relu()
    b.dense(4096).relu()
    b.dense(n_classes)
    b.softmax()
    return b.build()


def build_mini_vgg(
    input_shape: tuple[int, int, int] = (3, 16, 16),
    n_classes: int = 10,
    rng: np.random.Generator | None = None,
    width: int = 16,
) -> Sequential:
    """A laptop-scale VGG-family network (conv stacks + maxpool, no BN).

    Structurally faithful to VGG — plain 3x3 conv stacks, ReLU, maxpool,
    dense head, *no* normalisation layers — so it exercises exactly the
    DarKnight code paths full VGG16 would (including the dynamic
    normalisation requirement).  Used for the Fig. 4 accuracy experiments.
    """
    rng = rng or np.random.default_rng()
    c, h, w = input_shape
    layers = [
        Conv2D(c, width, 3, 1, 1, rng=rng),
        ReLU(),
        Conv2D(width, width, 3, 1, 1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(width, 2 * width, 3, 1, 1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(2 * width * (h // 4) * (w // 4), 4 * width, rng=rng),
        ReLU(),
        Dense(4 * width, n_classes, rng=rng),
    ]
    return Sequential(layers, input_shape)
