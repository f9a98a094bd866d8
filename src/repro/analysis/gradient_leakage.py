"""Gradient-leakage measurement backing Section 6's large-batch argument.

The paper acknowledges (citing Zhu et al.'s "Deep Leakage from Gradients")
that the aggregate weight update ``▽W`` exposed to GPUs "may leak some
information about the intermediate features", and argues that aggregating
over *large batches* "can eliminate nearly all the side channel leakage".

This module measures that claim on the actual pipeline: for a fixed probe
input, it computes how strongly a single sample's contribution survives in
the batch-aggregate update as the aggregation width grows.  The signal is
the cosine alignment between the per-sample gradient and the aggregate — an
upper bound proxy for what a gradient-inversion attack can exploit — which
should decay like ``~1/√B`` for i.i.d. batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import PlainBackend, Sequential, SoftmaxCrossEntropy


@dataclass(frozen=True)
class LeakagePoint:
    """Leakage measurement at one aggregation width."""

    batch_size: int
    alignment: float  # |cos| between target-sample gradient and aggregate


def _flat_grads(net: Sequential) -> np.ndarray:
    pieces = []
    for layer, name, _ in net.parameters():
        if name in layer.grads:
            pieces.append(layer.grads[name].ravel())
    if not pieces:
        raise ConfigurationError("no gradients recorded; run backward first")
    return np.concatenate(pieces)


def _gradient_for(net: Sequential, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    backend = PlainBackend()
    loss = SoftmaxCrossEntropy()
    logits = net.forward(x, backend, training=True)
    loss.forward(logits, y)
    net.backward(loss.backward(), backend)
    grads = _flat_grads(net)
    for layer, _, _ in net.parameters():
        layer.grads.clear()
    return grads


def gradient_leakage_curve(
    net: Sequential,
    x_pool: np.ndarray,
    y_pool: np.ndarray,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16),
    seed: int = 0,
) -> list[LeakagePoint]:
    """Alignment of one sample's gradient with aggregates of growing width.

    The target is the pool's first sample.  ``batch_sizes`` must fit
    within the pool; the target sample is always included so the
    measurement isolates dilution, not absence.
    """
    x_pool = np.asarray(x_pool)
    y_pool = np.asarray(y_pool)
    if max(batch_sizes) > x_pool.shape[0]:
        raise ConfigurationError(
            f"largest batch {max(batch_sizes)} exceeds pool of {x_pool.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    target_grad = _gradient_for(net, x_pool[:1], y_pool[:1])
    target_unit = target_grad / (np.linalg.norm(target_grad) + 1e-12)

    points = []
    for batch_size in batch_sizes:
        others = list(range(1, x_pool.shape[0]))
        chosen = [0] + list(
            rng.choice(others, size=batch_size - 1, replace=False)
        ) if batch_size > 1 else [0]
        aggregate = _gradient_for(net, x_pool[chosen], y_pool[chosen])
        unit = aggregate / (np.linalg.norm(aggregate) + 1e-12)
        points.append(
            LeakagePoint(
                batch_size=batch_size,
                alignment=float(abs(np.dot(target_unit, unit))),
            )
        )
    return points


def leakage_reduction(points: list[LeakagePoint]) -> float:
    """How much the largest aggregate dilutes the single-sample signal."""
    if len(points) < 2:
        raise ConfigurationError("need at least two batch sizes to compare")
    first = points[0].alignment
    last = points[-1].alignment
    if first <= 0:
        return 0.0
    return 1.0 - last / first
