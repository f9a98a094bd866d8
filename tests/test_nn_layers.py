"""Gradient checks and contract tests for every layer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    BatchNorm2D,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    PlainBackend,
    ReLU,
    ResidualBlock,
    Sequential,
)
from repro.nn.layers import BN_EPS

BACKEND = PlainBackend()


def _numeric_param_grad(layer, x, param_name, idx, eps=1e-6):
    """Central-difference gradient of 0.5*||out||^2 wrt one parameter."""
    p = layer.params[param_name]
    p[idx] += eps
    plus = 0.5 * np.sum(layer.forward(x, BACKEND) ** 2)
    p[idx] -= 2 * eps
    minus = 0.5 * np.sum(layer.forward(x, BACKEND) ** 2)
    p[idx] += eps
    return (plus - minus) / (2 * eps)


def _check_param_grads(layer, x, samples=3, seed=0):
    out = layer.forward(x, BACKEND, training=True)
    layer.backward(out.copy(), BACKEND)  # d(0.5||out||^2)/dout = out
    rng = np.random.default_rng(seed)
    for name, grad in layer.grads.items():
        flat_indices = rng.choice(grad.size, size=min(samples, grad.size), replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, grad.shape)
            num = _numeric_param_grad(layer, x, name, idx)
            assert grad[idx] == pytest.approx(num, rel=1e-4, abs=1e-7), (name, idx)


def _check_input_grad(layer, x, samples=3, seed=1, backward=None):
    """``backward``: what returns the input gradient, ``layer.backward`` by
    default (a network's own stops at its first layer's parameters)."""
    out = layer.forward(x, BACKEND, training=True)
    grad_in = (backward or layer.backward)(out.copy(), BACKEND)
    rng = np.random.default_rng(seed)
    eps = 1e-6
    for flat in rng.choice(x.size, size=min(samples, x.size), replace=False):
        idx = np.unravel_index(flat, x.shape)
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        num = (
            0.5 * np.sum(layer.forward(xp, BACKEND) ** 2)
            - 0.5 * np.sum(layer.forward(xm, BACKEND) ** 2)
        ) / (2 * eps)
        assert grad_in[idx] == pytest.approx(num, rel=1e-4, abs=1e-6), idx


@pytest.fixture()
def x_img(nprng):
    return nprng.normal(size=(3, 2, 6, 6))


def test_conv2d_grads(nprng, x_img):
    layer = Conv2D(2, 4, 3, 1, 1, rng=nprng)
    _check_param_grads(layer, x_img)
    _check_input_grad(layer, x_img)


def test_conv2d_strided_no_bias(nprng, x_img):
    layer = Conv2D(2, 4, 3, 2, 1, bias=False, rng=nprng)
    assert "b" not in layer.params
    assert layer.output_shape((2, 6, 6)) == (4, 3, 3)
    _check_param_grads(layer, x_img)


def test_depthwise_grads(nprng, x_img):
    layer = DepthwiseConv2D(2, 3, 1, 1, rng=nprng)
    _check_param_grads(layer, x_img)
    _check_input_grad(layer, x_img)


def test_dense_grads(nprng):
    layer = Dense(10, 4, rng=nprng)
    x = nprng.normal(size=(5, 10))
    _check_param_grads(layer, x)
    _check_input_grad(layer, x)


def test_batchnorm_grads(nprng, x_img):
    layer = BatchNorm2D(2)
    _check_param_grads(layer, x_img)
    _check_input_grad(layer, x_img)


def test_batchnorm_inference_uses_running_stats(nprng, x_img):
    layer = BatchNorm2D(2, momentum=0.5)
    for _ in range(10):
        layer.forward(x_img, BACKEND, training=True)
    out_eval = layer.forward(x_img, BACKEND, training=False)
    # Running stats converge toward batch stats, so eval ~ standardised.
    assert abs(out_eval.mean()) < 0.5


def _bn_expression(x, mean, var, gamma, beta, eps):
    """``γ·((x − μ)/σ) + β`` as whole-batch temporaries, per channel."""
    c = (1, -1, 1, 1)
    x_hat = (x - mean.reshape(c)) / np.sqrt(var + eps).reshape(c)
    return gamma.reshape(c) * x_hat + beta.reshape(c)


@pytest.mark.parametrize("shape", [(1, 3, 1, 1), (5, 3, 7, 4), (2, 3, 16, 16)])
def test_batchnorm_forward_is_the_whole_expression_bit_for_bit(shape):
    """Eval writes ``x − μ``, then ``/σ``, ``·γ`` and ``+β`` into one
    buffer — the expression's elementwise ops in its order, so the same
    bits; the input is left alone.  Training's forward is the expression
    under the batch statistics, with the running stats updated as before."""
    rng = np.random.default_rng(sum(shape))
    layer = BatchNorm2D(3, momentum=0.7)
    layer.params["gamma"][:] = rng.normal(size=3)
    layer.params["beta"][:] = rng.normal(size=3)
    layer.running_mean = rng.normal(size=3)
    layer.running_var = rng.uniform(0.1, 4.0, size=3)
    x = rng.normal(size=shape) * 10
    kept = x.copy()
    params = (layer.params["gamma"], layer.params["beta"], BN_EPS)
    expected = _bn_expression(x, layer.running_mean, layer.running_var, *params)
    assert np.array_equal(layer.forward(x, BACKEND, training=False), expected)
    assert np.array_equal(x, kept)

    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    keep, take = 0.7, 1 - 0.7
    running = keep * layer.running_mean + take * mean, keep * layer.running_var + take * var
    out = layer.forward(x, BACKEND, training=True)
    assert np.array_equal(out, _bn_expression(x, mean, var, *params))
    assert np.array_equal(layer.running_mean, running[0])
    assert np.array_equal(layer.running_var, running[1])


def test_relu_maxpool_flatten_gap(nprng, x_img):
    for layer in [ReLU(), MaxPool2D(2), Flatten(), GlobalAvgPool()]:
        _check_input_grad(layer, x_img)


def test_residual_block_grads(nprng, x_img):
    block = ResidualBlock(
        body=[Conv2D(2, 2, 3, 1, 1, rng=nprng), BatchNorm2D(2)]
    )
    _check_input_grad(Sequential([block], (2, 6, 6)), x_img, backward=block.backward)


def test_residual_block_with_projection(nprng, x_img):
    block = ResidualBlock(
        body=[Conv2D(2, 4, 3, 1, 1, rng=nprng)],
        shortcut=[Conv2D(2, 4, 1, 1, 0, rng=nprng)],
    )
    net = Sequential([block], (2, 6, 6))
    assert net.forward(x_img, BACKEND).shape == (3, 4, 6, 6)
    assert block.output_shape((2, 6, 6)) == (4, 6, 6)
    _check_input_grad(net, x_img, backward=block.backward)


def test_a_network_fills_its_first_layers_grads_without_an_input_gradient(nprng, x_img):
    """``Sequential.backward`` returns nothing; its first layer fills the
    parameter gradients its own ``backward`` fills, whether it skips its
    input gradient (``Conv2D``) or backs through ``backward`` (a residual
    block, by the layer contract's default)."""
    conv = Conv2D(2, 2, 3, 1, 1, rng=nprng)
    block = ResidualBlock(body=[Conv2D(2, 2, 3, 1, 1, rng=nprng), BatchNorm2D(2)])
    for first, layer in ((conv, conv), (block, block.body[0])):
        net = Sequential([first, ReLU()], (2, 6, 6))
        out = net.forward(x_img, BACKEND)
        assert net.backward(out.copy(), BACKEND) is None
        got = {name: grad.copy() for name, grad in layer.grads.items()}
        first.backward(net.layers[1].backward(out.copy(), BACKEND), BACKEND)
        assert got.keys() == layer.grads.keys()
        for name, grad in got.items():
            assert np.array_equal(layer.grads[name], grad)


def test_residual_shape_mismatch_raises(nprng, x_img):
    block = ResidualBlock(body=[Conv2D(2, 4, 3, 1, 1, rng=nprng)])
    with pytest.raises(ConfigurationError):
        Sequential([block], (2, 6, 6))


def test_backward_before_forward_raises(nprng, x_img):
    for layer in [
        Conv2D(2, 2, rng=nprng),
        Dense(3, 2, rng=nprng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        GlobalAvgPool(),
        BatchNorm2D(2),
        DepthwiseConv2D(2, rng=nprng),
    ]:
        with pytest.raises(ConfigurationError):
            layer.backward(np.ones((1, 1)), BACKEND)


def test_inference_forward_does_not_cache(nprng, x_img):
    layer = Conv2D(2, 2, rng=nprng)
    layer.forward(x_img, BACKEND, training=False)
    with pytest.raises(ConfigurationError):
        layer.backward(np.ones((3, 2, 6, 6)), BACKEND)


def test_output_shape_validation(nprng):
    with pytest.raises(ConfigurationError):
        Conv2D(2, 2, rng=nprng).output_shape((3, 6, 6))
    with pytest.raises(ConfigurationError):
        Dense(10, 2, rng=nprng).output_shape((11,))
    with pytest.raises(ConfigurationError):
        BatchNorm2D(2).output_shape((3, 6, 6))
    with pytest.raises(ConfigurationError):
        DepthwiseConv2D(2, rng=nprng).output_shape((3, 6, 6))


def test_geometry_validation(nprng):
    with pytest.raises(ConfigurationError):
        Conv2D(0, 2, rng=nprng)
    with pytest.raises(ConfigurationError):
        Dense(0, 2, rng=nprng)
    with pytest.raises(ConfigurationError):
        MaxPool2D(0)
    with pytest.raises(ConfigurationError):
        BatchNorm2D(0)
    with pytest.raises(ConfigurationError):
        BatchNorm2D(2, momentum=1.5)
    with pytest.raises(ConfigurationError):
        ResidualBlock(body=[])


def test_unique_auto_names(nprng):
    """The model names its unnamed layers, per kind in walk order; a given
    name is kept and takes no number."""
    a, b = Conv2D(1, 1, rng=nprng), Conv2D(1, 1, rng=nprng)
    assert a.name is None  # nothing is named outside a model
    head = Dense(4, 2, rng=nprng, name="head")
    block = ResidualBlock(body=[Conv2D(1, 1, rng=nprng), ReLU()])
    Sequential([a, block, b, Flatten(), Dense(4, 4, rng=nprng), head], (1, 2, 2))
    assert (a.name, block.name, block.body[0].name, block.body[1].name, b.name) == (
        "conv2d_1", "residualblock_1", "conv2d_2", "relu_1", "conv2d_3",
    )
    assert head.name == "head"
    assert block.join_layer.name == "residualblock_1/join"


def test_n_params(nprng):
    layer = Conv2D(2, 4, 3, rng=nprng)
    assert sum(p.size for p in layer.params.values()) == 4 * 2 * 9 + 4


# ----------------------------------------------------------------------
# initialisers
# ----------------------------------------------------------------------
def test_he_normal_has_the_relu_scale():
    from repro.nn.initializers import he_normal

    w = he_normal((200, 200), fan_in=50, rng=np.random.default_rng(0))
    assert w.shape == (200, 200)
    assert abs(w.mean()) < 0.01
    assert w.std() == pytest.approx(np.sqrt(2.0 / 50), rel=0.02)
    with pytest.raises(ConfigurationError):
        he_normal((2, 2), fan_in=0, rng=np.random.default_rng(0))


def test_xavier_uniform_stays_inside_the_glorot_limit():
    from repro.nn.initializers import xavier_uniform

    limit = np.sqrt(6.0 / (30 + 10))
    w = xavier_uniform((30, 10), fan_in=30, fan_out=10, rng=np.random.default_rng(0))
    assert w.shape == (30, 10)
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.9 * limit  # the whole range is used
    for fans in ((0, 10), (30, 0)):
        with pytest.raises(ConfigurationError):
            xavier_uniform((30, 10), *fans, rng=np.random.default_rng(0))
