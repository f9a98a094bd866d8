"""Sealing: encrypt-and-authenticate enclave state for untrusted storage.

DarKnight's Algorithm 2 seals each virtual batch's weight-update shard
(``▽W_v``) and evicts it to untrusted DRAM, reloading and decrypting during
the final aggregation.  Sealing binds the blob to the enclave measurement so
a different (or tampered) enclave cannot unseal it — mirrored here by mixing
the measurement into the sealing key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.enclave.crypto import (
    ByteStream,
    Ciphertext,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
    derive_key,
)
from repro.errors import SealingError


@dataclass(frozen=True)
class SealedBlob:
    """An array sealed for untrusted storage."""

    ciphertext: Ciphertext
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Wire/storage size of the sealed blob."""
        return self.ciphertext.nbytes


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

    def seal(self, array: np.ndarray, label: bytes = b"") -> SealedBlob:
        """Seal an array; ``label`` is bound as associated data."""
        data, meta = array_to_bytes(np.asarray(array))
        ct = self._aead.encrypt(data, aad=label)
        return SealedBlob(ciphertext=ct, dtype=meta["dtype"], shape=tuple(meta["shape"]))

    def unseal(self, blob: SealedBlob) -> np.ndarray:
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
        return bytes_to_array(data, {"dtype": blob.dtype, "shape": blob.shape})


class UntrustedStore:
    """Untrusted DRAM region holding sealed blobs (Algorithm 2's eviction).

    Byte counters feed the perf model's encryption/eviction cost; the
    adversary-visible surface is ciphertext only.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, SealedBlob] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def evict(self, key: str, blob: SealedBlob) -> None:
        """Store a sealed blob under ``key``."""
        self._blobs[key] = blob
        self.bytes_written += blob.nbytes

    def reload(self, key: str) -> SealedBlob:
        """Fetch a sealed blob back."""
        if key not in self._blobs:
            raise SealingError(f"no sealed blob under key {key!r}")
        blob = self._blobs[key]
        self.bytes_read += blob.nbytes
        return blob

    def drop(self, key: str) -> None:
        """Delete a blob (after aggregation consumed it)."""
        self._blobs.pop(key, None)

    def keys(self) -> list[str]:
        """Keys currently stored."""
        return list(self._blobs)

    def tamper(self, key: str, position: int = 0) -> None:
        """Adversarial helper: flip a ciphertext byte (tests the MAC)."""
        blob = self._blobs[key]
        data = bytearray(blob.ciphertext.data)
        data[position % len(data)] ^= 0xFF
        self._blobs[key] = SealedBlob(
            ciphertext=Ciphertext(
                nonce=blob.ciphertext.nonce,
                data=bytes(data),
                tag=blob.ciphertext.tag,
                aad=blob.ciphertext.aad,
            ),
            dtype=blob.dtype,
            shape=blob.shape,
        )
