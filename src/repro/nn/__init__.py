"""From-scratch numpy DNN substrate with a pluggable linear backend."""

from repro.nn import functional
from repro.nn.backends import LinearBackend, PlainBackend
from repro.nn.layers import (
    BatchNorm2D,
    BranchJoin,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    GlobalAvgPool,
    Layer,
    MaxPool2D,
    ReLU,
    ResidualBlock,
)
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.network import PLAN_INPUT, PlanStep, Sequential
from repro.nn.optimizer import SGD

__all__ = [
    "functional",
    "LinearBackend",
    "PlainBackend",
    "Layer",
    "Conv2D",
    "DepthwiseConv2D",
    "Dense",
    "ReLU",
    "MaxPool2D",
    "GlobalAvgPool",
    "Flatten",
    "BatchNorm2D",
    "ResidualBlock",
    "BranchJoin",
    "PlanStep",
    "PLAN_INPUT",
    "Sequential",
    "SoftmaxCrossEntropy",
    "SGD",
]
