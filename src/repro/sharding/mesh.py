"""Cross-enclave local-attestation mesh.

A multi-shard deployment is only as trustworthy as the links between its
enclaves: a tenant's session may *migrate* to another shard on failure, so
every shard must have verified — before taking traffic — that every peer
runs the same measured code.  The mesh performs the pairwise handshake at
startup using the primitive the enclave already exposes
(:meth:`~repro.enclave.enclave.Enclave.verify_peer_quote`, SGX local
attestation): each shard quotes toward each peer, and the peer checks the
platform signature and the expected measurement.  Failover then *asserts*
the link before any session moves; an unverified (or impostor) shard can
never inherit a session.

Membership is dynamic: :meth:`AttestationMesh.extend` attests a joining
shard *incrementally* — pairwise handshakes only against the live peers
the caller names, ``2 * n_live`` instead of re-running the full
``n * (n - 1)`` startup mesh.  The mesh keeps links, not members: who is
live is the shards' own state, and a retired shard's verified links stay,
so sessions draining *off* it still cross an attested channel.
"""

from __future__ import annotations

from repro.enclave import DEFAULT_CODE_IDENTITY, measure_enclave
from repro.errors import AttestationError, ConfigurationError


class AttestationMesh:
    """Pairwise-verified trust links between enclave shards.

    Parameters
    ----------
    shards:
        The deployment's initial
        :class:`~repro.sharding.shard.EnclaveShard` s, attested pairwise
        here.
    expected_code_identity:
        The code identity every shard must measure to; any deviation
        fails the handshake with :class:`~repro.errors.AttestationError`.
    """

    def __init__(
        self,
        shards,
        expected_code_identity: str | bytes = DEFAULT_CODE_IDENTITY,
    ) -> None:
        if not shards:
            raise ConfigurationError("attestation mesh needs >= 1 shard")
        self.expected_measurement = measure_enclave(expected_code_identity)
        self._links: set[tuple[int, int]] = set()
        self.handshakes = 0
        # ``n * (n - 1)`` handshakes: every ordered (verifier, prover) pair.
        for verifier in shards:
            for prover in shards:
                if verifier.shard_id != prover.shard_id:
                    self._handshake(verifier, prover)

    def _handshake(self, verifier, prover) -> None:
        """The prover quotes toward the verifier, bound to the link
        (``report_data`` names both ends); the verifier checks it against
        the expected measurement."""
        quote = prover.enclave.quote(
            report_data=f"mesh:{prover.shard_id}->{verifier.shard_id}".encode()
        )
        verifier.enclave.verify_peer_quote(quote, self.expected_measurement)
        self._links.add((verifier.shard_id, prover.shard_id))
        self.handshakes += 1

    def extend(self, shard, peers) -> None:
        """Attest a joining shard against its live ``peers``, incrementally.

        Runs both handshake directions between the new shard and every
        peer — ``2 * len(peers)`` quotes instead of the full
        ``n * (n - 1)`` startup mesh — so scale-out cost stays linear in
        the deployment size.
        """
        for peer in peers:
            self._handshake(peer, shard)
            self._handshake(shard, peer)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def verified(self, shard_a: int, shard_b: int) -> bool:
        """True when both directions of the link passed attestation."""
        if shard_a == shard_b:
            return True
        return (shard_a, shard_b) in self._links and (shard_b, shard_a) in self._links

    def assert_verified(self, shard_a: int, shard_b: int) -> None:
        """Refuse any cross-shard hand-off over an unverified link."""
        if not self.verified(shard_a, shard_b):
            raise AttestationError(
                f"no verified attestation link between shard {shard_a} and"
                f" shard {shard_b}; refusing session migration"
            )
