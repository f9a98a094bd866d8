"""Sealing: encrypt-and-authenticate enclave state for untrusted storage.

DarKnight's Algorithm 2 seals each virtual batch's weight-update shard
(``▽W_v``) and evicts it to untrusted DRAM, reloading and decrypting during
the final aggregation; ``perf.costs`` prices that flow for Fig. 3, and the
Slalom baseline seals its precomputed blinding pairs here.  Sealing binds
the blob to the enclave measurement so a different (or tampered) enclave
cannot unseal it — mirrored here by mixing the measurement into the
sealing key.
"""

from __future__ import annotations

import numpy as np

from repro.enclave.crypto import (
    ByteStream,
    Envelope,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
    derive_key,
)
from repro.errors import SealingError


class Sealer:
    """Seals/unseals numpy arrays under a measurement-bound key.

    Parameters
    ----------
    root_key:
        The platform sealing secret (per-CPU fuse key in real SGX).
    measurement:
        The enclave identity the blobs are bound to (MRENCLAVE analogue).
    rng:
        Nonce source: a :class:`~repro.enclave.crypto.ByteStream`, or a
        generator the sealer then owns (it is read ahead by the block).
    """

    def __init__(
        self,
        root_key: bytes,
        measurement: bytes,
        rng: ByteStream | np.random.Generator | None = None,
    ) -> None:
        key = derive_key(root_key, measurement, context=b"repro-seal")
        self._aead = StreamAead(key, rng)
        self.measurement = measurement

    def seal(self, array: np.ndarray, label: bytes = b"") -> Envelope:
        """Seal an array; ``label`` is bound as associated data."""
        data, dtype, shape = array_to_bytes(array)
        return Envelope(self._aead.encrypt(data, label), dtype, shape)

    def unseal(self, blob: Envelope) -> np.ndarray:
        """Authenticate and decrypt a sealed array.

        Raises
        ------
        SealingError
            On tag mismatch (tampered blob or wrong enclave identity).
        """
        try:
            data = self._aead.decrypt(blob.ciphertext)
        except Exception as exc:
            raise SealingError("sealed blob failed authentication") from exc
        return bytes_to_array(data, blob.dtype, blob.shape)


class UntrustedStore:
    """Untrusted DRAM region holding sealed blobs.

    The adversary-visible surface is ciphertext only; the enclave's ledger
    books the bytes each eviction and reload moves.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, Envelope] = {}

    def evict(self, key: str, blob: Envelope) -> None:
        """Store a sealed blob under ``key``."""
        self._blobs[key] = blob

    def reload(self, key: str) -> Envelope:
        """Fetch a sealed blob back."""
        if key not in self._blobs:
            raise SealingError(f"no sealed blob under key {key!r}")
        return self._blobs[key]

    def drop(self, key: str) -> None:
        """Delete a blob (a stale Slalom pool's pairs)."""
        self._blobs.pop(key, None)

