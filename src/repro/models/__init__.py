"""Model zoo: exact full-size specs for counting + runnable Mini variants."""

from repro.models.mobilenet import (
    build_mini_mobilenet,
    mobilenet_v1_spec,
    mobilenet_v2_spec,
)
from repro.models.resnet import build_mini_resnet, resnet50_spec
from repro.models.specs import (
    LINEAR_KINDS,
    NONLINEAR_KINDS,
    LayerCounts,
    LayerSpec,
    ModelSpec,
    SpecBuilder,
)
from repro.models.vgg import build_mini_vgg, vgg16_spec

__all__ = [
    "ModelSpec",
    "LayerSpec",
    "LayerCounts",
    "SpecBuilder",
    "LINEAR_KINDS",
    "NONLINEAR_KINDS",
    "vgg16_spec",
    "build_mini_vgg",
    "resnet50_spec",
    "build_mini_resnet",
    "mobilenet_v1_spec",
    "mobilenet_v2_spec",
    "build_mini_mobilenet",
]
