"""Tests for synthetic datasets."""

import numpy as np
import pytest

from repro.data import cifar_like, make_image_dataset
from repro.data.synthetic import SAMPLE_BLOCK_BYTES, _class_templates
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


# ----------------------------------------------------------------------
# the per-class, per-sample reference: four ``uniform`` calls per wave per
# class, then one jitter draw and one pixel draw per sample
# ----------------------------------------------------------------------
def _class_template(shape, rng, n_waves=4):
    c, h, w = shape
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    template = np.zeros(shape)
    for _ in range(n_waves):
        fy, fx = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.5, 1.0)
        wave = amp * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
        channel_mix = rng.uniform(0.2, 1.0, size=(c, 1, 1))
        template += channel_mix * wave
    return template / np.max(np.abs(template))


def _per_sample_loop(n_train, n_test, n_classes=10, shape=(3, 16, 16), noise=0.35, seed=0):
    rng = np.random.default_rng(seed)
    templates = [_class_template(shape, rng) for _ in range(n_classes)]

    def sample(n):
        labels = rng.integers(0, n_classes, size=n)
        images = np.empty((n,) + shape)
        for i, label in enumerate(labels):
            jitter = rng.normal(0.0, 0.15)
            images[i] = (1.0 + jitter) * templates[label] + noise * rng.normal(size=shape)
        return np.clip(images, -2.0, 2.0) / 2.0, labels

    return sample(n_train) + sample(n_test)


@pytest.mark.parametrize("shape", [(3, 8, 8), (1, 5, 7), (2, 5, 7), (3, 32, 32)])
@pytest.mark.parametrize("n_classes", [2, 4, 10])
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_array_built_templates_are_the_per_class_loop(seed, n_classes, shape, monkeypatch):
    """All classes' templates come off one ``random`` draw and are summed
    wave by wave for every class at once: every dataset byte and the
    generator's next draw match the per-class loop."""
    made, real = [], np.random.default_rng

    def recording_rng(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    data = make_image_dataset(9, 4, n_classes=n_classes, shape=shape, seed=seed)
    reference_data = _per_sample_loop(9, 4, n_classes=n_classes, shape=shape, seed=seed)
    monkeypatch.undo()
    _assert_same_bytes(data, reference_data)
    ours, theirs = made
    assert ours.random() == theirs.random()

    rng = np.random.default_rng(seed)
    templates = _class_templates(n_classes, shape, rng)
    reference_rng = np.random.default_rng(seed)
    reference = np.stack([_class_template(shape, reference_rng) for _ in range(n_classes)])
    assert templates.tobytes() == reference.tobytes()
    assert rng.random() == reference_rng.random()


def _per_block(shape):
    return SAMPLE_BLOCK_BYTES // (8 * (1 + int(np.prod(shape))))


def _assert_same_bytes(data, reference):
    x_train, y_train, x_test, y_test = reference
    for ours, theirs in ((data.x_train, x_train), (data.y_train, y_train),
                         (data.x_test, x_test), (data.y_test, y_test)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("shape", [(3, 8, 8), (1, 5, 7), (3, 16, 16)])
@pytest.mark.parametrize("seed", [0, 7, 2026])
@pytest.mark.parametrize("n_train", ["1", "17", "block-1", "block", "block+1", "384"])
def test_block_drawn_dataset_is_the_per_sample_loop(n_train, seed, shape):
    """Each block's jitters and pixels come off one ``standard_normal``
    call, in the per-sample loop's stream order, so every byte matches."""
    per_block = _per_block(shape)
    n = {"block-1": per_block - 1, "block": per_block, "block+1": per_block + 1}.get(n_train)
    n = int(n_train) if n is None else n
    data = make_image_dataset(n, 5, n_classes=4, shape=shape, seed=seed)
    _assert_same_bytes(data, _per_sample_loop(n, 5, n_classes=4, shape=shape, seed=seed))


@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_cifar_like_is_the_per_sample_loop(seed):
    for size in (8, 16):
        _assert_same_bytes(
            cifar_like(n_train=40, n_test=9, seed=seed, size=size),
            _per_sample_loop(40, 9, shape=(3, size, size), seed=seed),
        )


def test_a_shape_given_as_a_list_builds_the_tuple_shaped_dataset():
    as_list = make_image_dataset(6, 3, n_classes=3, shape=[1, 5, 7], seed=2)
    as_tuple = make_image_dataset(6, 3, n_classes=3, shape=(1, 5, 7), seed=2)
    assert as_list.input_shape == (1, 5, 7)
    assert as_list.x_train.tobytes() == as_tuple.x_train.tobytes()
    assert as_list.x_test.tobytes() == as_tuple.x_test.tobytes()


def test_each_draw_stays_under_the_mmap_threshold(monkeypatch):
    """No block draw of a 3x16x16 dataset is above ``SAMPLE_BLOCK_BYTES``."""
    sizes = []
    real = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self._rng = real(seed)

        def standard_normal(self, size):
            sizes.append(int(np.prod(size)) * 8)
            return self._rng.standard_normal(size)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    make_image_dataset(100, 7, shape=(3, 16, 16), seed=0)
    assert len(sizes) > 2
    assert all(nbytes <= SAMPLE_BLOCK_BYTES for nbytes in sizes)
