"""Toy authenticated encryption and key exchange for the SGX simulator.

**Not cryptographically secure.**  These are deterministic, dependency-free
stand-ins modelling the *interface and cost* of the primitives a real
enclave uses (AES-GCM page encryption, ECDH session keys): a BLAKE2b-keyed
stream cipher with a BLAKE2b MAC, and finite-field Diffie-Hellman over a
fixed 256-bit prime.  They let the simulator exercise the same control flow
— key derivation, nonce handling, tag verification failures — that the real
system depends on, with byte counts the performance model can charge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError

#: secp256k1's base-field prime — just a convenient public 256-bit prime.
DH_PRIME = 2**256 - 2**32 - 977
DH_GENERATOR = 3

_BLOCK = 64  # BLAKE2b digest size, bytes per keystream block


def derive_key(*parts: bytes, context: bytes = b"repro-kdf") -> bytes:
    """Derive a 32-byte key from the concatenated parts (BLAKE2b KDF)."""
    h = hashlib.blake2b(person=context[:16], digest_size=32)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Counter-mode keystream: BLAKE2b(key, nonce || counter) blocks.

    The hash is keyed and fed the nonce once per message; each block is a
    copy of that state finished with its counter.
    """
    keyed = hashlib.blake2b(nonce, key=key, digest_size=_BLOCK)
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        h = keyed.copy()
        h.update(counter.to_bytes(8, "little"))
        blocks.append(h.digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data ^ stream`` over the whole buffer at once (equal lengths)."""
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


def _mac(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    h = hashlib.blake2b(key=key, digest_size=16, person=b"repro-mac")
    for part in (nonce, aad, ciphertext):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.digest()


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted, authenticated blob."""

    nonce: bytes
    data: bytes
    tag: bytes
    aad: bytes = b""

    @property
    def nbytes(self) -> int:
        """Wire size (what the link model charges)."""
        return len(self.nonce) + len(self.data) + len(self.tag) + len(self.aad)


class StreamAead:
    """Encrypt-then-MAC stream cipher with 12-byte random nonces."""

    NONCE_BYTES = 12

    def __init__(self, key: bytes, rng: np.random.Generator | None = None) -> None:
        if len(key) < 16:
            raise CommunicationError("key must be at least 16 bytes")
        self._key = key
        self._rng = rng or np.random.default_rng()

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> Ciphertext:
        """Encrypt and authenticate ``plaintext`` binding optional ``aad``."""
        nonce = self._rng.bytes(self.NONCE_BYTES)
        stream = _keystream(self._key, nonce, len(plaintext))
        data = _xor(plaintext, stream)
        tag = _mac(self._key, nonce, aad, data)
        return Ciphertext(nonce=nonce, data=data, tag=tag, aad=aad)

    def decrypt(self, ct: Ciphertext) -> bytes:
        """Verify the tag and decrypt; raises on any tamper."""
        expected = _mac(self._key, ct.nonce, ct.aad, ct.data)
        if expected != ct.tag:
            raise CommunicationError("authentication tag mismatch (tampered blob)")
        stream = _keystream(self._key, ct.nonce, len(ct.data))
        return _xor(ct.data, stream)


class DiffieHellman:
    """Finite-field DH over a fixed 256-bit prime (session-key agreement).

    Mirrors the paper's "pairwise secure channel between TEE and each GPU
    can be established using a secret key exchange protocol".
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng()
        self._private = int.from_bytes(rng.bytes(32), "little") % (DH_PRIME - 2) + 1
        self.public = pow(DH_GENERATOR, self._private, DH_PRIME)

    def shared_key(self, peer_public: int) -> bytes:
        """Derive the 32-byte session key from the peer's public value."""
        if not 1 < peer_public < DH_PRIME:
            raise CommunicationError("invalid peer public value")
        secret = pow(peer_public, self._private, DH_PRIME)
        return derive_key(secret.to_bytes(32, "little"), context=b"repro-dh")


# ----------------------------------------------------------------------
# numpy array (de)serialisation helpers
# ----------------------------------------------------------------------


def array_to_bytes(arr: np.ndarray) -> tuple[bytes, dict]:
    """Serialise an array to raw bytes plus the metadata to rebuild it."""
    arr = np.ascontiguousarray(arr)
    meta = {"dtype": arr.dtype.str, "shape": arr.shape}
    return arr.tobytes(), meta


def bytes_to_array(data: bytes, meta: dict) -> np.ndarray:
    """Rebuild an array serialised by :func:`array_to_bytes`."""
    return np.frombuffer(data, dtype=np.dtype(meta["dtype"])).reshape(meta["shape"]).copy()
