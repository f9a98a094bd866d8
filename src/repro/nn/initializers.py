"""Weight initialisers for the numpy DNN substrate."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def he_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal init — the right scale for ReLU stacks."""
    if fan_in < 1:
        raise ConfigurationError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def xavier_uniform(
    shape: tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot uniform init — used for the final classifier layer."""
    if fan_in < 1 or fan_out < 1:
        raise ConfigurationError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zero init (biases, BN shifts)."""
    return np.zeros(shape, dtype=np.float64)

