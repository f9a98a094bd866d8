"""Tests for Sequential networks, loss, and optimiser."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    SGD,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    PlainBackend,
    ReLU,
    ResidualBlock,
    Sequential,
    SoftmaxCrossEntropy,
)


def _tiny_net(rng):
    return Sequential(
        [
            Conv2D(1, 4, 3, 1, 1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, 3, rng=rng),
        ],
        input_shape=(1, 8, 8),
    )


def test_shape_propagation_checked_at_construction(nprng):
    net = _tiny_net(nprng)
    assert net.plan_shapes()[-1] == (3,)
    assert net.layer_shapes[0] == (1, 8, 8)
    with pytest.raises(ConfigurationError):
        Sequential(
            [Conv2D(3, 4, rng=nprng), Dense(10, 2, rng=nprng)], input_shape=(3, 8, 8)
        )


def test_empty_network_rejected():
    with pytest.raises(ConfigurationError):
        Sequential([], input_shape=(1, 4, 4))


def test_forward_validates_input_shape(nprng):
    net = _tiny_net(nprng)
    with pytest.raises(ConfigurationError):
        net.forward(nprng.normal(size=(2, 3, 8, 8)))


def test_parameters_walk_includes_residual_children(nprng):
    net = Sequential(
        [
            Conv2D(1, 2, 3, 1, 1, rng=nprng),
            ResidualBlock(body=[Conv2D(2, 2, 3, 1, 1, rng=nprng)]),
            Flatten(),
            Dense(2 * 16, 2, rng=nprng),
        ],
        input_shape=(1, 4, 4),
    )
    names = [layer.name for layer, _, _ in net.parameters()]
    assert len(names) >= 3


def test_state_dict_roundtrip(nprng):
    net = _tiny_net(nprng)
    state = net.state_dict()
    for layer, name, param in net.parameters():
        param += 1.0
    net.load_state_dict(state)
    for key, value in net.state_dict().items():
        assert np.array_equal(value, state[key])


def test_load_state_dict_validation(nprng):
    net = _tiny_net(nprng)
    state = net.state_dict()
    missing = dict(list(state.items())[1:])
    with pytest.raises(ConfigurationError):
        net.load_state_dict(missing)
    bad_shape = dict(state)
    first = next(iter(bad_shape))
    bad_shape[first] = np.zeros((1, 1))
    with pytest.raises(ConfigurationError):
        net.load_state_dict(bad_shape)


def test_training_reduces_loss(nprng):
    net = _tiny_net(nprng)
    loss = SoftmaxCrossEntropy()
    opt = SGD(net, lr=0.05, momentum=0.9)
    x = nprng.normal(size=(12, 1, 8, 8))
    y = nprng.integers(0, 3, 12)
    losses = []
    for _ in range(25):
        logits = net.forward(x)
        losses.append(loss.forward(logits, y))
        net.backward(loss.backward())
        opt.step()
        opt.zero_grad()
    assert losses[-1] < 0.3 * losses[0]


def test_sgd_validation(nprng):
    net = _tiny_net(nprng)
    with pytest.raises(ConfigurationError):
        SGD(net, lr=0)
    with pytest.raises(ConfigurationError):
        SGD(net, lr=0.1, momentum=1.0)


def test_loss_validation(nprng):
    loss = SoftmaxCrossEntropy()
    with pytest.raises(ConfigurationError):
        loss.forward(nprng.normal(size=(2, 3)), np.array([0]))
    with pytest.raises(ConfigurationError):
        loss.forward(nprng.normal(size=(2, 3)), np.array([0, 5]))
    with pytest.raises(ConfigurationError):
        SoftmaxCrossEntropy().backward()


def test_loss_gradient_numeric(nprng):
    loss = SoftmaxCrossEntropy()
    logits = nprng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    loss.forward(logits, labels)
    grad = loss.backward()
    eps = 1e-6
    for idx in [(0, 0), (1, 2), (2, 1)]:
        lp = logits.copy(); lp[idx] += eps
        lm = logits.copy(); lm[idx] -= eps
        num = (loss.forward(lp, labels) - loss.forward(lm, labels)) / (2 * eps)
        assert grad[idx] == pytest.approx(num, rel=1e-4, abs=1e-8)


def test_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    assert SoftmaxCrossEntropy.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


def test_predict_inference_mode(nprng):
    net = _tiny_net(nprng)
    out = net.predict(nprng.normal(size=(2, 1, 8, 8)))
    assert out.shape == (2, 3)
    # Inference must not populate caches: backward should fail.
    with pytest.raises(ConfigurationError):
        net.backward(np.ones((2, 3)), PlainBackend())


def test_state_dict_is_a_copy(nprng):
    net = _tiny_net(nprng)
    state = net.state_dict()
    for value in state.values():
        value += 1.0
    for key, value in net.state_dict().items():
        assert np.array_equal(value + 1.0, state[key])


def test_a_trained_state_reproduces_predictions_in_a_second_build():
    """mini-VGG has no BatchNorm, so its weights are all of its inference
    state: a second build that loads a trained first build's state dict
    predicts exactly what the first does."""
    from repro.data import cifar_like
    from repro.models import build_mini_vgg
    from repro.runtime import Trainer

    data = cifar_like(n_train=32, n_test=8, seed=0, size=8)
    trained = build_mini_vgg(input_shape=(3, 8, 8), rng=np.random.default_rng(0), width=8)
    Trainer(trained, lr=0.05).fit(data.x_train, data.y_train, epochs=1, batch_size=16)
    expected = trained.predict(data.x_test)
    fresh = build_mini_vgg(input_shape=(3, 8, 8), rng=np.random.default_rng(1), width=8)
    assert not np.allclose(fresh.predict(data.x_test), expected)
    fresh.load_state_dict(trained.state_dict())
    assert np.array_equal(fresh.predict(data.x_test), expected)


def test_plan_shapes_follow_every_step(nprng):
    net = _tiny_net(nprng)
    assert net.plan_shapes() == [(4, 8, 8), (4, 8, 8), (4, 4, 4), (64,), (3,)]
