"""Per-tenant serving sessions: attest once, cache the channel.

The paper's deployment story (Section 3) establishes trust per *session*,
not per request: the client verifies the enclave quote and runs the key
exchange once, then every subsequent request rides the cached encrypted
channel.  :class:`SessionManager` enforces exactly that — the first
``connect`` for a tenant performs the full attestation handshake via
:mod:`repro.enclave.attestation` + :mod:`repro.comm.secure_channel`; later
calls return the cached session with zero additional handshake traffic.
A data holder uploading training data attests and uploads through the
same path (``connect`` once, then ``encrypt_request`` /
``decrypt_request`` per array).

Randomness is per manager too: every tenant's key exchange and both ends of
every channel it keys draw from the manager's one
:class:`~repro.enclave.ByteStream`, in the order the trace uses them — a
tenant whose handshake lands mid-trace takes its 64 secret bytes from
between two other tenants' nonces.  The stream draws its generator a block
ahead (a nonce per ``Generator.bytes`` call cost more than a third of the
AEAD it fed), so nothing else may draw from that generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm import Envelope, LinkModel, SecureChannel
from repro.enclave import DEFAULT_CODE_IDENTITY, ByteStream, Enclave, measure_enclave


@dataclass
class ServingSession:
    """One tenant's established (attested + keyed) session.

    Holds both channel endpoints because the offline driver simulates both
    sides of the wire: the tenant end encrypts requests / decrypts
    responses, the enclave end does the reverse.
    """

    tenant: str
    client_channel: SecureChannel
    enclave_channel: SecureChannel
    enclave: Enclave
    #: The enclave shard this session's channel terminates on.
    shard_id: int = 0

    # -- tenant side ----------------------------------------------------
    def encrypt_request(self, x: np.ndarray) -> Envelope:
        """Tenant-side: seal one sample for the enclave."""
        return self.client_channel.send_array(np.asarray(x))

    def decrypt_response(self, envelope: Envelope) -> np.ndarray:
        """Tenant-side: open the enclave's response."""
        return self.client_channel.recv_array(envelope)

    # -- enclave side ---------------------------------------------------
    def decrypt_request(self, envelope: Envelope) -> np.ndarray:
        """Enclave-side: open one sample inside protected memory."""
        self.enclave.ecall("serve_request", envelope.nbytes)
        return self.enclave_channel.recv_array(envelope)

    def encrypt_response(self, y: np.ndarray) -> Envelope:
        """Enclave-side: seal a result for the tenant."""
        envelope = self.enclave_channel.send_array(np.asarray(y))
        self.enclave.ocall("serve_response", envelope.nbytes)
        return envelope


class SessionManager:
    """Caches one attested session per tenant.

    Parameters
    ----------
    enclave:
        The serving enclave every tenant attests.
    link:
        Shared link model charged for handshake + request traffic.
    expected_code_identity:
        What the tenants' auditors expect the enclave to run; a mismatch
        raises :class:`~repro.errors.AttestationError` at first connect.
    rng:
        Randomness for key exchange and AEAD nonces: a generator (owned
        by the manager's byte stream from here on) or the stream itself.
    shard_id:
        The enclave shard this manager's sessions are scoped to.
    """

    def __init__(
        self,
        enclave: Enclave,
        link: LinkModel | None = None,
        expected_code_identity: str | bytes = DEFAULT_CODE_IDENTITY,
        rng: ByteStream | np.random.Generator | None = None,
        shard_id: int = 0,
    ) -> None:
        self.enclave = enclave
        self.link = link or LinkModel()
        self.expected_measurement = measure_enclave(expected_code_identity)
        self._stream = ByteStream.over(rng)
        self._sessions: dict[str, ServingSession] = {}
        self.handshakes_performed = 0
        self.shard_id = shard_id

    def connect(self, tenant: str) -> ServingSession:
        """Return the tenant's session, handshaking only on first contact.

        Raises
        ------
        AttestationError
            When the enclave measurement does not match what the tenant
            audited (checked on the handshake path only — cached sessions
            were already verified).
        """
        session = self._sessions.get(tenant)
        if session is not None:
            return session
        quote = self.enclave.quote(report_data=tenant.encode())
        # The tenant's verification logic, run against the platform service.
        self.enclave.verify_peer_quote(quote, self.expected_measurement)
        client_end, enclave_end = SecureChannel.establish_pair(
            tenant, "enclave", self.link, self._stream
        )
        session = ServingSession(
            tenant=tenant,
            client_channel=client_end,
            enclave_channel=enclave_end,
            enclave=self.enclave,
            shard_id=self.shard_id,
        )
        self._sessions[tenant] = session
        self.handshakes_performed += 1
        return session

    def drop(self, tenant: str) -> None:
        """Forget a tenant's session (e.g. after migration off this shard)."""
        self._sessions.pop(tenant, None)

    @property
    def active_tenants(self) -> list[str]:
        """Tenants with an established session."""
        return list(self._sessions)
