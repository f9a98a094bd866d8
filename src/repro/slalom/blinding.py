"""Slalom's additive stream-cipher blinding with precomputed unblinding.

Slalom [Tramèr & Boneh, ICLR 2019] protects inference inputs by adding a
one-time random field vector: the GPU sees ``x + r`` and computes
``W·(x + r)``; the enclave recovers ``W·x`` by subtracting a *precomputed*
``u = W·r``.  The precomputation is the crux: it is done offline, the pairs
``(r, u)`` are encrypted and parked in untrusted memory, and each layer
fetches + decrypts its pair during inference (that reload/decrypt traffic is
exactly where DarKnight's ~30% inference edge in Fig. 6a comes from).

And it is why Slalom cannot train (Section 7.2): after every optimiser step
``W`` changes, invalidating every precomputed ``u`` — recomputing ``W·r``
inside SGX per batch would defeat the offload entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.enclave import Enclave
from repro.errors import EncodingError
from repro.fieldmath import PrimeField


@dataclass(frozen=True)
class BlindingPair:
    """One precomputed ``(r, u = f(r))`` pair for a specific layer+weights."""

    r: np.ndarray
    u: np.ndarray
    weight_version: int


class BlindingStore:
    """Offline-precomputed blinding state, sealed into untrusted memory.

    Parameters
    ----------
    enclave:
        Supplies randomness, sealing and the untrusted store.
    """

    def __init__(self, enclave: Enclave) -> None:
        self.enclave = enclave
        self.field: PrimeField = enclave.field
        self._counters: dict[str, int] = {}
        self._precomputed: dict[str, int] = {}
        self._versions: dict[str, int] = {}

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    def precompute(
        self,
        layer_key: str,
        n_pairs: int,
        input_shape: tuple[int, ...],
        linear_op: Callable[[np.ndarray], np.ndarray],
        weight_version: int = 0,
    ) -> None:
        """Generate ``n_pairs`` blinding pairs for a layer and seal them out.

        ``linear_op`` is the layer's bilinear op bound to its (quantized)
        weights — computing it on ``r`` is the offline work.
        """
        if n_pairs < 1:
            raise EncodingError(f"need at least one pair, got {n_pairs}")
        start = self._precomputed.get(layer_key, 0)
        for i in range(start, start + n_pairs):
            r = self.enclave.rng.uniform(input_shape)
            u = linear_op(r)
            self.enclave.seal_and_evict(
                f"slalom/{layer_key}/r{i}", r, label=layer_key.encode()
            )
            self.enclave.seal_and_evict(
                f"slalom/{layer_key}/u{i}", u, label=layer_key.encode()
            )
        self._precomputed[layer_key] = start + n_pairs
        # Weight version is implicit in the op closure; remember it so a
        # retrained layer invalidates its pool.
        self._versions[layer_key] = weight_version

    def pairs_available(self, layer_key: str) -> int:
        """Unconsumed pairs for a layer."""
        return self._precomputed.get(layer_key, 0) - self._counters.get(layer_key, 0)

    def pool_version(self, layer_key: str) -> int | None:
        """Weight version the layer's pool was built for (None = no pool)."""
        return self._versions.get(layer_key)

    def invalidate(self, layer_key: str) -> None:
        """Discard a layer's pool (weights changed — all ``u`` are stale)."""
        for i in range(self._counters.get(layer_key, 0), self._precomputed.get(layer_key, 0)):
            self.enclave.drop_evicted(f"slalom/{layer_key}/r{i}")
            self.enclave.drop_evicted(f"slalom/{layer_key}/u{i}")
        self._counters[layer_key] = 0
        self._precomputed[layer_key] = 0
        self._versions.pop(layer_key, None)

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def next_pair(self, layer_key: str, weight_version: int = 0) -> BlindingPair:
        """Reload + unseal the next one-time pair (each is used exactly once)."""
        if self._versions.get(layer_key, 0) != weight_version:
            raise EncodingError(
                f"blinding pool for {layer_key!r} was precomputed for weight"
                f" version {self._versions.get(layer_key)} but weights are at"
                f" {weight_version}; Slalom cannot train (Section 7.2)"
            )
        index = self._counters.get(layer_key, 0)
        if index >= self._precomputed.get(layer_key, 0):
            raise EncodingError(
                f"blinding pool for {layer_key!r} exhausted; precompute more"
            )
        self._counters[layer_key] = index + 1
        r = self.enclave.reload_and_unseal(f"slalom/{layer_key}/r{index}")
        u = self.enclave.reload_and_unseal(f"slalom/{layer_key}/u{index}")
        return BlindingPair(r=r, u=u, weight_version=weight_version)

    def blind(self, x_q: np.ndarray, pair: BlindingPair) -> np.ndarray:
        """``x̄ = (x + r) mod p`` — information-theoretic one-time pad."""
        if x_q.shape != pair.r.shape:
            raise EncodingError(
                f"input shape {x_q.shape} != blinding shape {pair.r.shape}"
            )
        return self.field.add(x_q, pair.r)

    def unblind(self, y_blinded: np.ndarray, pair: BlindingPair) -> np.ndarray:
        """``y = (f(x̄) - u) mod p`` — exact by linearity."""
        if y_blinded.shape != pair.u.shape:
            raise EncodingError(
                f"GPU output shape {y_blinded.shape} != precomputed {pair.u.shape}"
            )
        return self.field.sub(y_blinded, pair.u)
