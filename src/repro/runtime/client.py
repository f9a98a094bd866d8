"""Client-side provisioning: attest, establish a channel, upload data.

Figure 1 / Section 3.1 step 1 of the paper: "A batch of training/inference
input data set is encrypted by the client and sent to the TEE enclave on
the server", after the client has verified — via remote attestation — that
the enclave really runs the audited DarKnight code.  This module implements
both ends of that handshake on the simulation substrates:

* :class:`ClientSession` — verifies the enclave quote against the code
  identity the client audited, runs the key exchange, encrypts batches;
* :class:`EnclaveReceiver` — the enclave-side endpoint that decrypts
  uploads inside protected memory and accounts for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm import Envelope, LinkModel, SecureChannel
from repro.enclave import ByteStream, Enclave, measure_enclave
from repro.errors import CommunicationError

#: The enclave code identity clients are expected to have audited.
DEFAULT_CODE_IDENTITY = "darknight-enclave-v1"


@dataclass(frozen=True)
class ProvisionedBatch:
    """One uploaded (still encrypted on the wire) training batch."""

    data: Envelope
    labels: Envelope


class EnclaveReceiver:
    """Enclave-side endpoint for client uploads."""

    def __init__(self, enclave: Enclave, channel: SecureChannel) -> None:
        self.enclave = enclave
        self._channel = channel

    def receive_batch(self, batch: ProvisionedBatch) -> tuple[np.ndarray, np.ndarray]:
        """Decrypt a client batch inside the enclave.

        Raises
        ------
        CommunicationError
            If either envelope fails authentication (tampered in transit).
        """
        self.enclave.ecall("client_upload", batch.data.nbytes + batch.labels.nbytes)
        x = self._channel.recv_array(batch.data)
        y = self._channel.recv_array(batch.labels)
        self.enclave.record_compute("decrypt_client_batch", int(x.nbytes + y.nbytes))
        return x, y


class ClientSession:
    """A data holder's session with the cloud enclave.

    Parameters are produced by :meth:`connect`, which performs the paper's
    trust-establishment sequence: quote -> verify measurement -> key
    exchange -> encrypted channel.
    """

    def __init__(
        self, channel: SecureChannel, receiver: EnclaveReceiver, link: LinkModel
    ) -> None:
        self._channel = channel
        self.receiver = receiver
        self.link = link

    @classmethod
    def connect(
        cls,
        enclave: Enclave,
        expected_code_identity: str | bytes = DEFAULT_CODE_IDENTITY,
        link: LinkModel | None = None,
        rng: ByteStream | np.random.Generator | None = None,
    ) -> "ClientSession":
        """Attest the enclave and open an encrypted channel to it.

        Raises
        ------
        AttestationError
            When the enclave's measurement does not match the code the
            client audited — the client refuses to provision data.
        """
        link = link or LinkModel()
        quote = enclave.quote(report_data=b"client-session")
        expected = measure_enclave(expected_code_identity)
        enclave.verify_peer_quote(quote, expected)  # raises on mismatch
        client_end, enclave_end = SecureChannel.establish_pair(
            "client", "enclave", link, rng
        )
        receiver = EnclaveReceiver(enclave, enclave_end)
        return cls(client_end, receiver, link)

    def upload_batch(self, x: np.ndarray, y: np.ndarray) -> ProvisionedBatch:
        """Encrypt one training batch for the enclave.

        The ciphertext is what crosses the untrusted network; feeding the
        returned envelopes to ``self.receiver`` models delivery.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise CommunicationError(
                f"batch mismatch: {x.shape[0]} samples vs {y.shape[0]} labels"
            )
        batch = ProvisionedBatch(
            data=self._channel.send_array(x),
            labels=self._channel.send_array(y),
        )
        return batch

    def provision(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Convenience: upload and deliver one batch, returning the enclave's
        decrypted view (what the masking pipeline consumes next)."""
        return self.receiver.receive_batch(self.upload_batch(x, y))
