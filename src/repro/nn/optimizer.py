"""Optimisers: plain/momentum SGD, matching the paper's training recipe."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.network import Sequential


class SGD:
    """Stochastic gradient descent with optional momentum.

    The paper trains with "the well known SGD process" (Section 4); we add
    the standard momentum knob every practical run uses.
    """

    def __init__(
        self,
        network: Sequential,
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.network = network
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update from the gradients stored in the layers."""
        for layer, name, param in self.network.parameters():
            if name not in layer.grads:
                continue
            grad = layer.grads[name]
            if self.momentum:
                key = id(param)
                vel = self._velocity.get(key)
                vel = self.momentum * vel + grad if vel is not None else grad
                self._velocity[key] = vel
                grad = vel
            param -= self.lr * grad

    def zero_grad(self) -> None:
        """Clear all stored gradients."""
        for layer, name, _ in self.network.parameters():
            layer.grads.pop(name, None)
