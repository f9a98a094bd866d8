"""Seeded synthetic image-classification datasets.

The paper trains on CIFAR-10 and ImageNet; neither ships with this offline
reproduction, so every dataset here is a seeded class-conditional synthetic
stand-in.  Each class gets a smooth random template (low-frequency
sinusoid mixture — image-like spatial correlation);
samples are template + per-sample texture + Gaussian noise.  The task is
learnable but not trivial, which is all the Fig. 4 experiment needs: it
compares *relative* accuracy of raw vs. masked training on identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Largest block of samples one draw makes, here and in ``serving/trace.py``.
#: It stays under glibc's 128 KiB mmap threshold: freeing a larger, mapped
#: block raises that threshold, after which mid-size arrays stay on the heap
#: (an 8,000-request trace drawn in one piece cost 0.65 MB of peak RSS).
SAMPLE_BLOCK_BYTES = 64 << 10


@dataclass(frozen=True)
class Dataset:
    """An in-memory split dataset."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Per-sample shape."""
        return tuple(self.x_train.shape[1:])


def _class_templates(
    n_classes: int, shape: tuple[int, int, int], rng: np.random.Generator
) -> np.ndarray:
    """``n_classes`` smooth random patterns with image-like spatial correlation.

    Each class sums 4 sinusoid waves over one ``(h, w)`` grid, mixed into
    the channels, and is scaled to a max-abs of 1.  One ``rng.random`` draw
    is a per-class loop's stream: per class, per wave, ``fy, fx, phase,
    amp`` and ``c`` channel mixes, each scaled as ``Generator.uniform``
    scales its draw (``low + (high - low) * u``).  The waves are summed for
    every class at once, in the same order, so every byte is that loop's.
    """
    n_waves = 4
    c, h, w = shape
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    u = rng.random((n_classes, n_waves, 4 + c))

    def uniform(low: float, high: float, draw: np.ndarray) -> np.ndarray:
        return low + (high - low) * draw

    freq = uniform(0.5, 3.0, u[..., :2, None, None])
    phase = uniform(0, 2 * np.pi, u[..., 2, None, None])
    amp = uniform(0.5, 1.0, u[..., 3, None, None])
    channel_mix = uniform(0.2, 1.0, u[..., 4:, None, None])
    templates = np.zeros((n_classes,) + shape)
    for i in range(n_waves):
        fy, fx = freq[:, i, 0], freq[:, i, 1]
        wave = amp[:, i] * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase[:, i])
        templates += channel_mix[:, i] * wave[:, None]
    return templates / np.abs(templates).max(axis=(1, 2, 3), keepdims=True)


def make_image_dataset(
    n_train: int,
    n_test: int,
    n_classes: int = 10,
    shape: tuple[int, int, int] = (3, 16, 16),
    noise: float = 0.35,
    seed: int = 0,
) -> Dataset:
    """Build a seeded class-conditional synthetic image dataset.

    Parameters
    ----------
    noise:
        Standard deviation of the additive Gaussian noise; higher values
        make the task harder (0.35 gives mid-90s accuracy for the Mini
        models after a few epochs).
    """
    if n_train < 1 or n_test < 1:
        raise ConfigurationError(
            f"need at least 1 train and 1 test sample, got ({n_train}, {n_test})"
        )
    if n_classes < 2:
        raise ConfigurationError(f"need at least 2 classes, got {n_classes}")
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    pixels = math.prod(shape)
    templates = _class_templates(n_classes, shape, rng).reshape(n_classes, pixels)
    # A sample consumes one jitter draw, then its pixels: one
    # ``standard_normal`` row of ``1 + pixels`` per sample is that stream,
    # drawn a block of whole samples at a time.
    per_block = max(1, SAMPLE_BLOCK_BYTES // (8 * (1 + pixels)))

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, size=n)
        images = np.empty((n,) + shape)
        rows = images.reshape(n, pixels)
        for lo in range(0, n, per_block):
            block = rows[lo : lo + per_block]
            draw = rng.standard_normal((len(block), 1 + pixels))
            jitter = 0.15 * draw[:, :1]
            np.multiply(1.0 + jitter, templates[labels[lo : lo + per_block]], out=block)
            block += noise * draw[:, 1:]
        # Keep pixel range roughly [-1, 1] like normalised CIFAR.
        np.clip(images, -2.0, 2.0, out=images)
        images /= 2.0
        return images, labels

    x_train, y_train = sample(n_train)
    x_test, y_test = sample(n_test)
    return Dataset(
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        n_classes=n_classes,
    )


def cifar_like(
    n_train: int = 512, n_test: int = 128, seed: int = 0, size: int = 16
) -> Dataset:
    """CIFAR-10-shaped synthetic data (10 classes, 3 channels).

    ``size`` defaults to 16 rather than 32 to keep the numpy masked-training
    experiments fast; pass 32 for full CIFAR geometry.
    """
    return make_image_dataset(
        n_train, n_test, n_classes=10, shape=(3, size, size), seed=seed
    )
