"""Tests for architecture specs: published counts and builder consistency."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import (
    SpecBuilder,
    build_mini_mobilenet,
    build_mini_resnet,
    build_mini_vgg,
    mobilenet_v1_spec,
    mobilenet_v2_spec,
    resnet50_spec,
    vgg16_spec,
)


def _params(spec):
    return sum(l.counts.params for l in spec.layers)


def _macs_forward(spec):
    return sum(l.counts.macs_forward for l in spec.layers if l.is_linear)


def test_vgg16_published_counts():
    spec = vgg16_spec()
    assert _params(spec) == pytest.approx(138.36e6, rel=0.01)
    assert _macs_forward(spec) == pytest.approx(15.47e9, rel=0.01)


def test_resnet50_published_counts():
    spec = resnet50_spec()
    assert _params(spec) == pytest.approx(25.6e6, rel=0.02)
    assert _macs_forward(spec) == pytest.approx(4.1e9, rel=0.03)


def test_mobilenet_v1_published_counts():
    spec = mobilenet_v1_spec()
    assert _params(spec) == pytest.approx(4.2e6, rel=0.03)
    assert _macs_forward(spec) == pytest.approx(0.57e9, rel=0.03)


def test_mobilenet_v2_published_counts():
    spec = mobilenet_v2_spec()
    assert _params(spec) == pytest.approx(3.5e6, rel=0.03)
    assert _macs_forward(spec) == pytest.approx(0.3e9, rel=0.05)


def test_backward_macs_double_forward():
    spec = vgg16_spec()
    backward = sum(l.counts.macs_grad_w + l.counts.macs_grad_x for l in spec.layers if l.is_linear)
    assert backward == 2 * _macs_forward(spec)


def test_spec_queries():
    spec = vgg16_spec()
    assert spec.elementwise_ops(frozenset({"relu"})) > 0
    assert spec.elementwise_ops(frozenset({"batchnorm"})) == 0  # VGG has no BN
    assert resnet50_spec().elementwise_ops(frozenset({"batchnorm"})) > 0
    assert spec.activation_bytes() > max(l.counts.activation_bytes for l in spec.layers) > 0
    assert [l.kind for l in spec.layers].count("conv") == 13
    assert [l.kind for l in spec.layers].count("dense") == 3


def test_empty_spec_rejected():
    with pytest.raises(ConfigurationError):
        SpecBuilder("empty", (3, 8, 8)).build()


@pytest.mark.parametrize(
    "builder", [build_mini_vgg, build_mini_resnet, build_mini_mobilenet]
)
def test_mini_models_run_forward_backward(builder, nprng):
    from repro.nn import SoftmaxCrossEntropy

    net = builder(input_shape=(3, 16, 16), n_classes=10, rng=nprng, width=8)
    x = nprng.normal(size=(4, 3, 16, 16))
    y = nprng.integers(0, 10, 4)
    loss = SoftmaxCrossEntropy()
    value = loss.forward(net.forward(x), y)
    assert np.isfinite(value)
    net.backward(loss.backward())
    grads = [g for layer, _, _ in net.parameters() for g in layer.grads.values()]
    assert grads and all(np.all(np.isfinite(g)) for g in grads)


#: Every layer's name, in walk order, of each builder's model: the names a
#: first build in a fresh process has always carried, and so the keys of
#: state dicts saved from one.
_FIRST_BUILD_NAMES = {
    "build_mini_vgg": [
        "conv2d_1", "relu_1", "conv2d_2", "relu_2", "maxpool2d_1", "conv2d_3", "relu_3",
        "maxpool2d_2", "flatten_1", "dense_1", "relu_4", "dense_2",
    ],
    "build_mini_resnet": [
        "conv2d_1", "batchnorm2d_1", "relu_1", "residualblock_1", "conv2d_2", "batchnorm2d_2",
        "relu_2", "conv2d_3", "batchnorm2d_3", "maxpool2d_1", "conv2d_4", "batchnorm2d_4",
        "relu_3", "residualblock_2", "conv2d_5", "batchnorm2d_5", "relu_4", "conv2d_6",
        "batchnorm2d_6", "globalavgpool_1", "dense_1",
    ],
    "build_mini_mobilenet": [
        "conv2d_1", "batchnorm2d_1", "relu_1", "depthwiseconv2d_1", "batchnorm2d_2", "relu_2",
        "conv2d_2", "batchnorm2d_3", "relu_3", "depthwiseconv2d_2", "batchnorm2d_4", "relu_4",
        "conv2d_3", "batchnorm2d_5", "relu_5", "globalavgpool_1", "dense_1",
    ],
}
_BUILDERS = [build_mini_vgg, build_mini_resnet, build_mini_mobilenet]


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_identically_built_models_load_each_others_state(builder):
    """A layer's name comes from its model, so a second build has the same
    state-dict keys as the first, and each loads the other's state."""
    first, second = (builder(rng=np.random.default_rng(seed)) for seed in (0, 1))
    state = first.state_dict()
    assert list(second.state_dict()) == list(state)
    second.load_state_dict(state)
    for key, value in second.state_dict().items():
        assert np.array_equal(value, state[key]), key


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_every_build_keeps_the_first_builds_names(builder):
    """However many models the process built before, a build is named as
    the first one in a fresh process was, so saved state dicts still load."""
    for seed in range(2):
        net = builder(rng=np.random.default_rng(seed))
        assert [layer.name for layer in net._walk_layers()] == _FIRST_BUILD_NAMES[builder.__name__]
