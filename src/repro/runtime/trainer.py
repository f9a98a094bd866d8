"""Training loops over any linear backend (raw float or DarKnight).

The same :class:`Trainer` drives both sides of the paper's Fig. 4 accuracy
comparison: construct it with a :class:`~repro.nn.backends.PlainBackend`
for the "Raw Data" curve and a
:class:`~repro.runtime.darknight.DarKnightBackend` for the private curve —
model code and data pipeline stay identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import SGD, PlainBackend, Sequential, SoftmaxCrossEntropy
from repro.nn.backends import LinearBackend
from repro.runtime.config import DarKnightConfig
from repro.runtime.darknight import DarKnightBackend


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected by :meth:`Trainer.fit`."""

    loss: list[float] = dataclass_field(default_factory=list)
    accuracy: list[float] = dataclass_field(default_factory=list)
    val_accuracy: list[float] = dataclass_field(default_factory=list)


class Trainer:
    """Minibatch SGD training over a pluggable backend.

    Parameters
    ----------
    network:
        The model (built by :mod:`repro.models` or by hand).
    backend:
        Where linear ops execute; default plain float.
    lr / momentum / weight_decay:
        Optimiser knobs.
    """

    def __init__(
        self,
        network: Sequential,
        backend: LinearBackend | None = None,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        self.network = network
        self.backend = backend or PlainBackend()
        self.loss = SoftmaxCrossEntropy()
        self.optimizer = SGD(network, lr=lr, momentum=momentum, weight_decay=weight_decay)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    # steps and epochs
    # ------------------------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One SGD step; returns the batch loss.

        The step's stored encodings are released and its gradients zeroed
        on every exit path: a step that raises (an integrity failure on a
        byzantine GPU, a range overflow) applies no update and leaves
        neither shares on the devices nor a partial gradient behind.
        """
        try:
            logits = self.network.forward(x, self.backend, training=True)
            loss_value = self.loss.forward(logits, y)
            self.network.backward(self.loss.backward(), self.backend)
            self.optimizer.step()
        finally:
            self.optimizer.zero_grad()
            self.backend.end_batch()
        return loss_value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        val_x: np.ndarray | None = None,
        val_y: np.ndarray | None = None,
        shuffle_seed: int = 0,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes, recording loss/accuracy per epoch."""
        if x.shape[0] != np.asarray(y).shape[0]:
            raise ConfigurationError("x and y disagree on sample count")
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
        rng = np.random.default_rng(shuffle_seed)
        n = x.shape[0]
        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_losses.append(self.train_step(x[idx], y[idx]))
            self.history.loss.append(float(np.mean(epoch_losses)))
            self.history.accuracy.append(self.evaluate(x, y))
            if val_x is not None and val_y is not None:
                self.history.val_accuracy.append(self.evaluate(val_x, val_y))
            if verbose:  # pragma: no cover - console convenience
                print(
                    f"epoch {epoch + 1}/{epochs}: loss={self.history.loss[-1]:.4f}"
                    f" acc={self.history.accuracy[-1]:.3f}"
                )
        return self.history

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy in inference mode (plain backend: evaluation is
        not privacy-sensitive on the server's own held-out checks; use
        :mod:`repro.runtime.inference` for private predictions)."""
        logits = self.network.predict(x, PlainBackend())
        return SoftmaxCrossEntropy.accuracy(logits, y)


def make_darknight_trainer(
    network: Sequential,
    config: DarKnightConfig | None = None,
    lr: float = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
) -> tuple[Trainer, DarKnightBackend]:
    """Convenience: build a trainer wired to a fresh DarKnight backend."""
    backend = DarKnightBackend(config or DarKnightConfig())
    trainer = Trainer(
        network, backend, lr=lr, momentum=momentum, weight_decay=weight_decay
    )
    return trainer, backend
