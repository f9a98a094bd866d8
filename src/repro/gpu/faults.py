"""Adversarial fault models for the untrusted accelerators.

The paper's threat model (Section 3) allows malicious GPUs to "inject faults
in the computation to sabotage training or inference"; DarKnight must detect
any such tamper via the redundant-share check.  These injectors corrupt a
device's outputs under configurable policies so tests and examples can
exercise the integrity machinery.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fieldmath import PrimeField


class FaultInjector:
    """Base class: honest device (never corrupts)."""

    def corrupt(self, tensor: np.ndarray, device_id: int, op_name: str) -> np.ndarray:
        """Return the (possibly tampered) tensor a device would emit."""
        return tensor


class RandomTamper(FaultInjector):
    """Adds a uniform non-zero field offset at one random position.

    Parameters
    ----------
    field:
        Field the outputs live in (offsets are sampled mod p).
    probability:
        Chance that any given output tensor gets corrupted.
    seed:
        Generator seed for reproducible sabotage.
    """

    def __init__(
        self,
        field: PrimeField,
        probability: float = 1.0,
        seed=None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"probability must be in [0, 1], got {probability}")
        self.field = field
        self.probability = probability
        self._rng = np.random.default_rng(seed)
        self._tampered = 0

    def corrupt(self, tensor: np.ndarray, device_id: int, op_name: str) -> np.ndarray:
        if self._rng.random() > self.probability:
            return tensor
        out = np.array(tensor, dtype=np.int64, copy=True)
        flat = out.reshape(-1)
        k = min(1, flat.size)
        positions = self._rng.choice(flat.size, size=k, replace=False)
        offsets = self.field.nonzero_uniform((k,), self._rng)
        flat[positions] = self.field.add(flat[positions], offsets)
        self._tampered += 1
        return out

    @property
    def tamper_count(self) -> int:
        return self._tampered


class TargetedTamper(FaultInjector):
    """Corrupts only a specific operation (e.g. sabotage backward Eq only)."""

    def __init__(self, inner: FaultInjector, target_op: str) -> None:
        self.inner = inner
        self.target_op = target_op

    def corrupt(self, tensor: np.ndarray, device_id: int, op_name: str) -> np.ndarray:
        if op_name != self.target_op:
            return tensor
        return self.inner.corrupt(tensor, device_id, op_name)

HONEST = FaultInjector()
