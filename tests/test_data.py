"""Tests for synthetic datasets."""

import numpy as np
import pytest

from repro.data import cifar_like, make_image_dataset
from repro.errors import ConfigurationError


def test_dataset_shapes_and_labels():
    data = make_image_dataset(40, 20, n_classes=5, shape=(3, 8, 8), seed=0)
    assert data.x_train.shape == (40, 3, 8, 8)
    assert data.x_test.shape == (20, 3, 8, 8)
    assert data.input_shape == (3, 8, 8)
    assert set(np.unique(data.y_train)).issubset(set(range(5)))
    assert np.all(np.abs(data.x_train) <= 1.0)


def test_dataset_deterministic_by_seed():
    a = make_image_dataset(10, 5, seed=3, shape=(1, 4, 4))
    b = make_image_dataset(10, 5, seed=3, shape=(1, 4, 4))
    c = make_image_dataset(10, 5, seed=4, shape=(1, 4, 4))
    assert np.array_equal(a.x_train, b.x_train)
    assert not np.array_equal(a.x_train, c.x_train)


def test_dataset_is_learnable():
    """A linear probe beats chance comfortably — the task carries signal."""
    data = make_image_dataset(300, 100, n_classes=4, shape=(1, 6, 6), seed=0)
    x = data.x_train.reshape(300, -1)
    xt = data.x_test.reshape(100, -1)
    # One-step least-squares classifier.
    onehot = np.eye(4)[data.y_train]
    w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    acc = float(np.mean(np.argmax(xt @ w, axis=1) == data.y_test))
    assert acc > 0.5  # chance is 0.25


def test_validation():
    with pytest.raises(ConfigurationError):
        make_image_dataset(0, 5)
    with pytest.raises(ConfigurationError):
        make_image_dataset(20, 0)
    with pytest.raises(ConfigurationError):
        make_image_dataset(20, 5, n_classes=1)


def test_cifar_like_defaults():
    data = cifar_like(n_train=16, n_test=8, seed=0)
    assert data.input_shape == (3, 16, 16)
    assert data.n_classes == 10
    assert cifar_like(16, 8, size=32).input_shape == (3, 32, 32)


def test_every_class_appears_and_the_input_shape_is_per_sample():
    data = make_image_dataset(n_train=40, n_test=20, n_classes=4, shape=(2, 5, 7), seed=3)
    assert data.input_shape == (2, 5, 7)
    assert set(data.y_train.tolist()) == set(data.y_test.tolist()) == {0, 1, 2, 3}
    assert data.x_train.shape == (40, 2, 5, 7) and data.x_test.shape == (20, 2, 5, 7)
