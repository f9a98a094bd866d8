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
import hmac
from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError

#: secp256k1's base-field prime — just a convenient public 256-bit prime.
DH_PRIME = 2**256 - 2**32 - 977
DH_GENERATOR = 3

_BLOCK = 64  # BLAKE2b digest size, bytes per keystream block

#: ``_xor`` goes through Python big ints up to this many bytes.  numpy's
#: call overhead is flat (~1.2 us for frombuffer x2 + ufunc + tobytes) while
#: the big-int path grows with the buffer: 80 B 0.45 vs 1.21 us, 256 B 0.65
#: vs 0.98, 512 B 1.48 vs 1.32 — measured crossover ~450 B.  A
#: ``serve-tiny-plain`` message (80 B) sits below it, a resnet request
#: (1.5 KB) above.
_XOR_BIGINT_MAX = 256


class ByteStream:
    """One generator's byte stream, drawn by the block and handed out in order.

    ``Generator.bytes(n)`` pays numpy's front-end (~6 us on the reference
    box) whether ``n`` is 12 or 4096, and a session pays it for every nonce.
    ``take(n)`` returns exactly what ``bytes(n)`` would have — ``bytes(a +
    b)`` is ``bytes(a)`` then ``bytes(b)`` when ``a`` is a multiple of 4, and
    a take that is not discards up to the next 4-byte word just as ``bytes``
    does — but cuts it from a block drawn ``block_bytes`` at a time.

    The stream reads *ahead*, so it must be the generator's only consumer:
    everything that used to draw bytes from one generator (a session
    manager's handshakes and every channel end it keyed; both ends of a
    hop) shares one stream, passed explicitly, and the generator is not
    drawn from directly again.  The one generator that has other consumers
    — an enclave's, which the coefficient sampler also draws from — gets
    ``block_bytes=0``: each take then draws exactly its own words, nothing
    ahead.

    Parameters
    ----------
    rng:
        The generator to own; ``None`` draws OS entropy.
    block_bytes:
        Look-ahead per refill, a multiple of 4 (a few KB amortises the
        front-end to nothing; 0 disables look-ahead).
    """

    BLOCK_BYTES = 4096

    def __init__(
        self, rng: np.random.Generator | None = None, block_bytes: int = BLOCK_BYTES
    ) -> None:
        if block_bytes < 0 or block_bytes % 4:
            raise CommunicationError(
                f"block_bytes must be a non-negative multiple of 4, got {block_bytes}"
            )
        self._rng = rng or np.random.default_rng()
        self._block_bytes = block_bytes
        self._block = b""
        self._pos = 0  # always on a 4-byte word boundary

    @classmethod
    def over(cls, source: "ByteStream | np.random.Generator | None") -> "ByteStream":
        """``source`` itself if it is a stream, else a new stream owning it."""
        return source if isinstance(source, ByteStream) else cls(source)

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes — what ``Generator.bytes(n)`` returns here."""
        if n < 0:
            raise CommunicationError(f"cannot take {n} bytes")
        end = self._pos + n
        if end > len(self._block):
            rest = self._block[self._pos :]
            words = -(-n // 4) * 4
            self._block = rest + self._rng.bytes(
                max(self._block_bytes, words - len(rest))
            )
            self._pos, end = 0, n
        out = self._block[self._pos : end]
        self._pos = -(-end // 4) * 4
        return out


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
    if len(data) <= _XOR_BIGINT_MAX:
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(len(data), "little")
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
    """Encrypt-then-MAC stream cipher with 12-byte random nonces.

    ``rng`` is the nonce source: a :class:`ByteStream` — shared with every
    other consumer of the same generator — or a generator this cipher then
    owns through a stream of its own.
    """

    NONCE_BYTES = 12

    def __init__(
        self, key: bytes, rng: ByteStream | np.random.Generator | None = None
    ) -> None:
        if len(key) < 16:
            raise CommunicationError("key must be at least 16 bytes")
        self._key = key
        self._nonces = ByteStream.over(rng)

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> Ciphertext:
        """Encrypt and authenticate ``plaintext`` binding optional ``aad``."""
        nonce = self._nonces.take(self.NONCE_BYTES)
        stream = _keystream(self._key, nonce, len(plaintext))
        data = _xor(plaintext, stream)
        tag = _mac(self._key, nonce, aad, data)
        return Ciphertext(nonce=nonce, data=data, tag=tag, aad=aad)

    def decrypt(self, ct: Ciphertext) -> bytes:
        """Verify the tag and decrypt; raises on any tamper."""
        expected = _mac(self._key, ct.nonce, ct.aad, ct.data)
        # Constant-time: an early-exit compare leaks the matching prefix.
        if not hmac.compare_digest(expected, ct.tag):
            raise CommunicationError("authentication tag mismatch (tampered blob)")
        stream = _keystream(self._key, ct.nonce, len(ct.data))
        return _xor(ct.data, stream)


class DiffieHellman:
    """Finite-field DH over a fixed 256-bit prime (session-key agreement).

    Mirrors the paper's "pairwise secure channel between TEE and each GPU
    can be established using a secret key exchange protocol".  ``rng`` is
    the secret's source — pass the :class:`ByteStream` the session's nonces
    will come from, so the handshake and the channel share one stream.
    """

    def __init__(self, rng: ByteStream | np.random.Generator | None = None) -> None:
        secret = ByteStream.over(rng).take(32)
        self._private = int.from_bytes(secret, "little") % (DH_PRIME - 2) + 1
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
