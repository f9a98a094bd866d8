"""Tests for the trainer over both backends and private inference."""

import numpy as np
import pytest

from repro.data import cifar_like
from repro.errors import ConfigurationError
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, PlainBackend, ReLU, Sequential
from repro.pipeline import PipelineExecutor
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer


def _net(rng, n_classes=4):
    return Sequential(
        [
            Conv2D(3, 4, 3, 1, 1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, n_classes, rng=rng),
        ],
        input_shape=(3, 8, 8),
    )


def test_plain_training_learns(nprng):
    data = cifar_like(n_train=48, n_test=24, seed=0, size=8)
    net = _net(nprng, n_classes=10)
    trainer = Trainer(net, lr=0.08, momentum=0.9)
    history = trainer.fit(
        data.x_train, data.y_train, epochs=6, batch_size=16,
        val_x=data.x_test, val_y=data.y_test,
    )
    assert len(history.loss) == 6
    assert len(history.val_accuracy) == 6
    assert history.loss[-1] < history.loss[0]
    assert history.accuracy[-1] > 0.4  # well above the 10% chance floor


def test_darknight_training_learns(nprng):
    data = cifar_like(n_train=24, n_test=12, seed=1, size=8)
    net = _net(nprng, n_classes=10)
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=2))
    trainer = Trainer(net, backend, lr=0.08, momentum=0.9)
    history = trainer.fit(data.x_train, data.y_train, epochs=3, batch_size=8)
    assert history.loss[-1] < history.loss[0]
    assert backend.cluster.total_mac_ops() > 0


def test_histories_comparable_between_backends(nprng):
    """Raw and DarKnight training from identical init track each other
    (the Fig. 4 claim) on a small task."""
    data = cifar_like(n_train=32, n_test=16, seed=3, size=8)
    curves = {}
    for mode in ("raw", "darknight"):
        rng = np.random.default_rng(7)
        net = _net(rng, n_classes=10)
        if mode == "raw":
            trainer = Trainer(net, lr=0.08, momentum=0.9)
        else:
            backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=7))
            trainer = Trainer(net, backend, lr=0.08, momentum=0.9)
        history = trainer.fit(
            data.x_train, data.y_train, epochs=3, batch_size=8, shuffle_seed=7
        )
        curves[mode] = history.accuracy
    # Final training accuracy differs by a small margin only.
    assert abs(curves["raw"][-1] - curves["darknight"][-1]) < 0.3


def test_trainer_validation(nprng):
    net = _net(nprng)
    trainer = Trainer(net)
    with pytest.raises(ConfigurationError):
        trainer.fit(np.zeros((4, 3, 8, 8)), np.zeros(3), epochs=1, batch_size=2)
    with pytest.raises(ConfigurationError):
        trainer.fit(np.zeros((4, 3, 8, 8)), np.zeros(4), epochs=1, batch_size=0)


def test_private_inference_engine(nprng):
    data = cifar_like(n_train=32, n_test=16, seed=4, size=8)
    net = _net(nprng, n_classes=10)
    Trainer(net, lr=0.08).fit(data.x_train, data.y_train, epochs=4, batch_size=16)
    executor = PipelineExecutor(
        net, DarKnightBackend(DarKnightConfig(virtual_batch_size=2, integrity=True, seed=5))
    )
    preds = np.argmax(executor.run(data.x_test[:6]).output, axis=1)
    assert preds.shape == (6,)
    # Private predictions match the plain model's predictions.
    plain = np.argmax(net.predict(data.x_test[:6], PlainBackend()), axis=1)
    assert np.mean(preds == plain) >= 0.8
