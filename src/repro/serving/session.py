"""Per-tenant serving sessions: attest once, cache the channel.

The paper's deployment story (Section 3) establishes trust per *session*,
not per request: the client verifies the enclave quote and runs the key
exchange once, then every subsequent request rides the cached encrypted
channel.  :class:`SessionManager` enforces exactly that — the first
``connect`` for a tenant performs the full attestation handshake via
:mod:`repro.enclave.attestation` + :mod:`repro.comm.secure_channel`; later
calls return the cached session with zero additional handshake traffic.

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
from repro.enclave import ByteStream, Enclave, measure_enclave
from repro.errors import AttestationError, ShardError
from repro.runtime.client import DEFAULT_CODE_IDENTITY


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


class ShardedSessionManager:
    """Unit-scoped attested sessions with mesh-verified failover.

    Each serving unit keeps its own :class:`SessionManager` — a session
    is a keyed channel into *one* enclave, so it cannot outlive its unit.
    ``connect`` routes through the :class:`~repro.sharding.ShardRouter`'s
    pinning; when a unit dies, :meth:`fail_over` re-attests every
    displaced tenant on its new unit — but only after the attestation
    mesh confirms the dead and surviving units had mutually verified
    each other at startup, so a session can never land on an enclave the
    deployment did not vouch for.

    Parameters
    ----------
    units:
        The deployment's :class:`~repro.serving.unit.ServingUnit` list
        (``units[i].unit_id == i``), shared by reference with the server
        that owns membership.
    router:
        Pins tenants to units (and re-pins them on failure).
    mesh:
        Established shard-level :class:`~repro.sharding.AttestationMesh`
        gating migrations: sessions terminate on a unit's *entry*
        enclave, so a move needs the verified link between the two
        units' entry shards.
    """

    def __init__(self, units: list, router, mesh) -> None:
        self.units = units
        self.router = router
        self.mesh = mesh
        self.migrations = 0

    def _live(self):
        """Managers of every unit still in service (failed ones included)."""
        return (u.sessions for u in self.units if not u.executor.retired)

    def _assert_verified(self, source: int, target: int) -> None:
        """Refuse a session move between units the mesh never linked."""
        self.mesh.assert_verified(
            self.units[source].shards[0].shard_id,
            self.units[target].shards[0].shard_id,
        )

    def connect(self, tenant: str) -> ServingSession:
        """The tenant's session on its pinned unit (handshake on first use)."""
        return self.units[self.router.shard_for(tenant)].sessions.connect(tenant)

    def migrate(self, moves: dict[str, int]) -> dict[str, int]:
        """Move live sessions between live units (scale-out/scale-in).

        Unlike :meth:`fail_over`, both ends of each move are alive, so the
        mesh gate is checked for every (source, target) pair *before* any
        session is dropped — a refused migration leaves every session
        exactly where it was, and the caller can abort the membership
        change.  Tenants in ``moves`` without a live session are skipped
        (they will handshake on their new unit at next contact).
        Returns the subset of ``moves`` actually migrated.
        """
        planned: list[tuple[str, int, int]] = []
        for tenant, target in moves.items():
            for manager in self._live():
                if tenant in manager.active_tenants:
                    if manager.shard_id != target:
                        planned.append((tenant, manager.shard_id, target))
                    break
        for tenant, source, target in planned:
            self._assert_verified(source, target)
        migrated: dict[str, int] = {}
        for tenant, source, target in planned:
            self.units[source].sessions.drop(tenant)
            # A migrated session re-attests on its new unit: trust is per
            # unit, never copied across the mesh.
            self.units[target].sessions.connect(tenant)
            self.migrations += 1
            migrated[tenant] = target
        return migrated

    def fail_over(self, failed_shard: int) -> dict[str, int]:
        """Migrate every session off a dead shard, re-attesting each tenant.

        The router must already have marked the shard failed (so
        ``shard_for`` yields the new pins).  Returns ``{tenant: new_shard}``
        for the sessions that moved.

        Raises
        ------
        ShardError
            When no shard is left to re-pin onto (total outage); the dead
            shard's sessions are dropped, as below.
        AttestationError
            When the mesh never verified the link between the dead shard
            and a migration target.  The gate is atomic — checked for
            every target before *any* session moves — and the dead
            shard's sessions are dropped either way (they terminate on a
            dead enclave), so a refusal leaves no tenant with a live
            session anywhere: no response rides a shard the mesh did not
            vouch for, and the tenant's next request performs a fresh
            tenant-side attestation handshake on its new shard
            (``migrations`` counts only mesh-gated moves, not those
            from-scratch reconnects).
        """
        dead = self.units[failed_shard].sessions
        displaced = dead.active_tenants
        try:
            targets = {tenant: self.router.shard_for(tenant) for tenant in displaced}
            for target in sorted(set(targets.values())):
                self._assert_verified(failed_shard, target)
        except (ShardError, AttestationError):
            for tenant in displaced:
                dead.drop(tenant)
            raise
        for tenant, target in targets.items():
            dead.drop(tenant)
            # A migrated session re-runs the full attestation + key
            # exchange against the surviving enclave: trust is per shard,
            # never copied across the mesh.
            self.units[target].sessions.connect(tenant)
            self.migrations += 1
        return targets

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def handshakes_performed(self) -> int:
        """Attestation handshakes over every unit's lifetime (incl.
        migrations) — a retired unit's handshakes still happened."""
        return sum(u.sessions.handshakes_performed for u in self.units)

    @property
    def active_tenants(self) -> list[str]:
        """Tenants with an established session on any shard."""
        return [t for m in self._live() for t in m.active_tenants]
