"""Encrypted TEE <-> endpoint channels over the link model.

Section 3 of the paper: "Communication channels between the client, server,
and GPUs are encrypted ... a pairwise secure channel between TEE and each
GPU can be established using a secret key exchange protocol at the beginning
of the session."  This module implements that handshake with the toy DH and
AEAD from :mod:`repro.enclave.crypto` and charges every message to a
:class:`~repro.comm.link.LinkModel`.

Note the masked shares themselves do not *need* encryption for privacy (they
are one-time-pad uniform); the channel protects protocol metadata and
matches the deployed system's defence in depth.

Randomness: a handshake's two DH secrets and both ends' nonces come from
*one* :class:`~repro.enclave.crypto.ByteStream`, in the order they are
used — the stream reads its generator ahead by the block, so two consumers
each wrapping the same generator would skip each other's bytes.  Callers
keying several pairs from one generator (a session manager: one pair per
tenant) build the stream once and pass it to every ``establish_pair``; a
bare generator is wrapped here and is the stream's from then on.
"""

from __future__ import annotations

import numpy as np

from repro.comm.link import LinkModel
from repro.enclave.crypto import (
    ByteStream,
    DiffieHellman,
    Envelope,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
)
from repro.errors import CommunicationError


class SecureChannel:
    """One end of an established pairwise channel."""

    def __init__(
        self,
        local_name: str,
        peer_name: str,
        session_key: bytes,
        link: LinkModel,
        rng: ByteStream | np.random.Generator | None = None,
    ) -> None:
        self.local_name = local_name
        self.peer_name = peer_name
        self._aad = peer_name.encode()  #: Binds every message to its recipient.
        self._aead = StreamAead(session_key, rng)
        self._link = link

    @classmethod
    def establish_pair(
        cls,
        name_a: str,
        name_b: str,
        link: LinkModel,
        rng: ByteStream | np.random.Generator | None = None,
    ) -> tuple["SecureChannel", "SecureChannel"]:
        """Run the DH handshake and return both endpoints' channels.

        Both secrets and both ends' nonces share one byte stream: ``rng``
        itself when it is one, else a new stream over it.
        """
        stream = ByteStream.over(rng)
        kx_a = DiffieHellman(stream)
        kx_b = DiffieHellman(stream)
        # Public values cross the wire once each.
        link.transfer(name_a, name_b, 32)
        link.transfer(name_b, name_a, 32)
        key_a = kx_a.shared_key(kx_b.public)
        key_b = kx_b.shared_key(kx_a.public)
        if key_a != key_b:  # pragma: no cover - DH algebra guarantees equality
            raise CommunicationError("key agreement failed")
        return (
            cls(name_a, name_b, key_a, link, stream),
            cls(name_b, name_a, key_b, link, stream),
        )

    def send_array(self, array: np.ndarray) -> Envelope:
        """Encrypt an array for the peer and charge the link."""
        data, dtype, shape = array_to_bytes(array)
        env = Envelope(self._aead.encrypt(data, self._aad), dtype, shape)
        self._link.transfer(self.local_name, self.peer_name, env.nbytes)
        return env

    def recv_array(self, envelope: Envelope) -> np.ndarray:
        """Authenticate and decrypt an array received from the peer."""
        try:
            data = self._aead.decrypt(envelope.ciphertext)
        except CommunicationError as exc:
            raise CommunicationError(
                f"channel {self.peer_name}->{self.local_name}: {exc}"
            ) from exc
        return bytes_to_array(data, envelope.dtype, envelope.shape)
