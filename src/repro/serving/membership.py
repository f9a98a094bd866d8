"""Who serves: the one place a serving unit joins or leaves the deployment.

DarKnight's unit of trust is one TEE with its ``K + M (+1)`` GPUs, and a
tenant's attested channel cannot outlive that enclave.  So a change of
who serves is one decision: re-pin the tenants, hand their sessions over
a mesh-verified link (re-attesting on the new unit — trust is never
copied across the mesh), and stamp the unit's service life.
:class:`Membership` makes that decision for every caller: the server's
scale-out joins through :meth:`Membership.join`, and both its scale-in
(after the drain flush) and the worker pool's failover take a unit out
of rotation through :meth:`Membership.leave`.

It holds the deployment's one list of
:class:`~repro.serving.unit.ServingUnit` s (shared by reference with the
scheduler and the pool), the :class:`~repro.sharding.ShardRouter` and
the :class:`~repro.sharding.AttestationMesh`; each unit's sessions live
on the unit itself.
"""

from __future__ import annotations

from repro.errors import AttestationError, ShardError


class Membership:
    """Joins and removes serving units; routes tenants to their sessions.

    Parameters
    ----------
    units:
        The deployment's :class:`~repro.serving.unit.ServingUnit` list
        (``units[i].unit_id == i``, retired units stay in place).
    router:
        Pins tenants to units; its removed ids are exactly the units
        :meth:`leave` stamped retired or failed.
    mesh:
        The shard-level :class:`~repro.sharding.AttestationMesh` gating
        every session hand-over: sessions terminate on a unit's *entry*
        enclave, so a move needs the verified link between the two
        units' entry shards.
    audit:
        Optional :class:`~repro.audit.AuditTrail`; a join opens each new
        shard's log and a retirement closes it with a membership entry.
    """

    def __init__(self, units: list, router, mesh, audit=None) -> None:
        self.units = units
        self.router = router
        self.mesh = mesh
        self.audit = audit
        #: Sessions handed over a mesh-verified link.
        self.migrations = 0

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def connect(self, tenant: str):
        """The tenant's session on its pinned unit (handshake on first use)."""
        return self.units[self.router.shard_for(tenant)].sessions.connect(tenant)

    @property
    def handshakes(self) -> int:
        """Attestation handshakes over every unit's lifetime (incl.
        migrations) — a retired unit's handshakes still happened."""
        return sum(u.sessions.handshakes_performed for u in self.units)

    @property
    def active_tenants(self) -> list[str]:
        """Tenants holding an established session on some unit."""
        return [t for u in self.units for t in u.sessions.active_tenants]

    def _hand_over(self, moves: list[tuple[str, int, int]]) -> None:
        """Move each ``(tenant, source, target)`` session — all or none.

        Every link is checked before any session moves, so a refusal
        (:class:`~repro.errors.AttestationError`) leaves each session
        where it was.  A moved session re-attests on its target.
        """
        for source, target in sorted({(s, t) for _, s, t in moves}):
            self.mesh.assert_verified(
                self.units[source].shards[0].shard_id,
                self.units[target].shards[0].shard_id,
            )
        for tenant, source, target in moves:
            self.units[source].sessions.drop(tenant)
            self.units[target].sessions.connect(tenant)
            self.migrations += 1

    # ------------------------------------------------------------------
    # the way in and the way out
    # ------------------------------------------------------------------
    def join(self, shards: list, build, now: float):
        """Scale out: put a unit of freshly provisioned ``shards`` into service.

        The router allocates the unit id (bounded tenant re-pinning);
        each shard attests incrementally against the live shards and the
        unit's members attested before it; ``build(unit_id, shards)``
        then builds and appends the serving unit.  The re-pinned
        tenants' sessions follow over the mesh and their queued requests
        follow to the new unit's queue, and each new shard's audit log
        opens with a ``provision`` entry.  Returns the new unit.
        """
        unit_id, remap = self.router.add_shard()
        peers = [s for u in self.units for s in u.shards if s.healthy]
        for shard in shards:
            self.mesh.extend(shard, peers)
            peers.append(shard)
        unit = build(unit_id, shards)
        old = self.units[:-1]
        try:
            self._hand_over(
                [
                    (tenant, u.unit_id, unit_id)
                    for tenant in remap
                    for u in old
                    if tenant in u.sessions.active_tenants
                ]
            )
        except AttestationError:
            # Refused: a re-pinned tenant's old unit died before the
            # newcomer could attest against it.  Its stale session is
            # dropped below and the tenant re-attests at next contact.
            pass
        # Already-admitted requests follow their tenant's new pin, so the
        # new unit takes load at once and the old queues stop aging work
        # they no longer own.
        for tenant in remap:
            for source in old:
                source.sessions.drop(tenant)
                moved = source.queue.extract_tenant(tenant)
                if moved:
                    unit.queue.absorb(moved)
        if self.audit is not None:
            details = {"num_shards": sum(len(u.shards) for u in self.units)}
            for shard in shards:
                self.audit.add_shard(shard.shard_id)
                self.audit.record_membership(
                    "provision", shard.shard_id, now, details=details
                )
        self._invalidate_precompute()
        return unit

    def leave(self, unit, now: float, failed: bool = False):
        """Take ``unit`` out of rotation — the one exit, for scale-in and failover.

        The router removes the unit and re-pins its tenants; their
        sessions move in one mesh-gated, atomic hand-over, and every
        member is stamped ``failed_at`` (``failed``) or decommissioned
        at ``now`` — a retirement also closes each member's audit chain.
        On a refused hand-over or a total outage the unit's sessions are
        dropped, so no tenant holds a session on an enclave the mesh did
        not vouch for; each displaced tenant re-attests from scratch at
        its next arrival.  A unit already out of rotation is left as it
        is: one enclave leaves once.

        Returns ``(state, refusal)``: how the unit left (``"retired"`` or
        ``"failed"``) and the error that refused the hand-over, if any.
        """
        if unit.unit_id not in self.router.healthy_shards():
            return unit.state, None
        self.router.remove_shard(unit.unit_id)
        refusal = None
        try:
            self._hand_over(
                [
                    (tenant, unit.unit_id, self.router.shard_for(tenant))
                    for tenant in unit.sessions.active_tenants
                ]
            )
        except (ShardError, AttestationError) as exc:
            refusal = exc
        for tenant in unit.sessions.active_tenants:
            unit.sessions.drop(tenant)
        if failed:
            for member in unit.shards:
                member.failed_at = now
        else:
            unit.executor.decommission(now)
            if self.audit is not None:
                for shard in unit.shards:
                    # The chain's final word on the shard: retired, with
                    # its lifetime dispatch count frozen into the leaf.
                    self.audit.record_membership(
                        "retire",
                        shard.shard_id,
                        now,
                        details={"batches_run": int(shard.batches_run)},
                    )
            self._invalidate_precompute()
        return unit.state, refusal

    def _invalidate_precompute(self) -> None:
        """Drop every live shard's cached weight encodings.

        Called after a join or a retirement: the topology changed, so
        cached per-layer encodings are re-validated by the next window
        rather than trusted across it.  Mask pools are deliberately
        untouched — their counters must keep advancing for pooled/inline
        bit-identity.
        """
        for unit in self.units:
            for shard in unit.shards:
                if shard.healthy:
                    shard.backend.invalidate_precompute()
