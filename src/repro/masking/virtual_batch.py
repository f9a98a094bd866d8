"""Virtual-batch partitioning (Section 3.1, step 3 and Section 6).

A *virtual batch* is the largest group of inputs the enclave can encode at
once (limited by SGX memory, ``K ~ 4-8`` in the paper), which is generally
smaller than the ML batch.  This module slices training batches into virtual
batches and remembers padding so ragged tails round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError


@dataclass(slots=True)
class VirtualBatch:
    """One ``K``-sized slice of a larger batch.

    Attributes
    ----------
    data:
        Array of shape ``(k, *feature_shape)``; padded rows are zero.
    indices:
        Positions of the real rows inside the parent batch.
    n_real:
        How many leading rows are real (the rest is padding).
    """

    data: np.ndarray
    indices: tuple[int, ...]
    n_real: int


def iter_virtual_batches(batch: np.ndarray, k: int) -> Iterator[VirtualBatch]:
    """Split ``batch`` (first axis = samples) into ``K``-sized virtual batches.

    The final slice is zero-padded up to ``k`` so every virtual batch uses
    the same coefficient shapes; padded positions carry zero inputs and the
    caller must ignore their decoded outputs (``VirtualBatch.n_real`` says
    how many are real).
    """
    batch = np.asarray(batch)
    if k < 1:
        raise ConfigurationError(f"virtual batch size must be >= 1, got {k}")
    if batch.shape[0] == 0:
        raise ConfigurationError("cannot split an empty batch")
    n = batch.shape[0]
    for start in range(0, n, k):
        stop = min(start + k, n)
        chunk = batch[start:stop]
        n_real = chunk.shape[0]
        if n_real < k:
            pad = np.zeros((k - n_real,) + batch.shape[1:], dtype=batch.dtype)
            chunk = np.concatenate([chunk, pad], axis=0)
        yield VirtualBatch(
            data=chunk,
            indices=tuple(range(start, stop)),
            n_real=n_real,
        )
