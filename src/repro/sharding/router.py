"""Tenant-to-shard routing: consistent hashing with load-aware pinning.

Tenants are sticky to a shard — their attested session, and therefore
their encrypted channel, lives on one enclave — so routing is a *pinning*
decision, made once per tenant and revisited only on shard failure.  The
router places each new tenant by consistent hashing over a virtual-node
ring (stable under shard-count changes, no coordination needed), then
applies a load-aware override: when the ring's candidate already carries
materially more tenants than the lightest shard, the new tenant is pinned
to the lightest shard instead.  Hashing is keyed (BLAKE2b), not Python's
randomized ``hash``, so placements are reproducible across runs.

Heterogeneous deployments weight the ring: a shard with weight ``w``
contributes ``w`` times the virtual nodes and its pin count is compared
*normalized by weight*, so a double-capacity shard legitimately carries
about twice the tenants before the balancer diverts anyone.

With an :class:`~repro.serving.slo.SloPolicy`, placement is additionally
SLO-aware: tenants of above-default priority skip the hash walk and pin
straight to the lightest (weight-normalized) healthy shard, spreading
premium traffic across the least-contended enclaves instead of wherever
the ring happens to land them.

On failure, :meth:`ShardRouter.fail_shard` removes the dead shard from
the ring walk and re-pins its displaced tenants through the same
placement rule, returning the remap so the session layer can migrate
each displaced tenant's attested session.

Membership is *dynamic*: :meth:`ShardRouter.add_shard` inserts a new
shard's virtual nodes into the live ring and re-pins only the bounded
set of tenants consistent hashing says now belong to it (about
``pins / n_live``, optionally capped), and :meth:`ShardRouter.
remove_shard` retires a shard gracefully — its tenants re-place through
the normal rule, with :meth:`ShardRouter.begin_drain` available first so
a draining shard stops receiving *new* tenants while its existing pins
keep routing until the migration completes.  Constructing with
``n_shards`` remains exactly equivalent to adding that many unit-weight
shards up front, so every pre-elastic call site behaves unchanged.
"""

from __future__ import annotations

import bisect
import hashlib
import math

from repro.errors import ConfigurationError, ShardError


def _stable_hash(key: str) -> int:
    """Deterministic 64-bit ring position for a string key."""
    digest = hashlib.blake2b(key.encode(), digest_size=8, person=b"repro-ring").digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Pins tenants to shards; rebalances new tenants toward light shards.

    Parameters
    ----------
    n_shards:
        Shards in the deployment (ids ``0..n_shards-1``).
    replicas:
        Virtual nodes per *unit of weight* on the hash ring; more
        replicas smooth the hash distribution at slightly more setup
        cost.
    rebalance_margin:
        How many more pinned tenants (per unit of weight) the ring's
        candidate may carry than the least-loaded shard before a *new*
        tenant is diverted to the latter.  ``1`` balances aggressively
        (hash placement only breaks ties); larger values preserve hash
        affinity under skew.
    weights:
        Optional per-shard capacity weights for heterogeneous
        deployments; a weight-2 shard gets twice the virtual nodes and
        is expected to carry about twice the pins.  ``None`` (the
        default) weighs every shard 1.0 — ring and balancing identical
        to the homogeneous router.
    slo:
        Optional :class:`~repro.serving.slo.SloPolicy`.  Tenants whose
        class priority exceeds the default class's pin to the lightest
        healthy shard instead of walking the ring (counted in
        :attr:`slo_pins`).  ``None`` keeps placement priority-blind.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = 48,
        rebalance_margin: int = 2,
        weights: list[float] | None = None,
        slo=None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"router needs >= 1 shards, got {n_shards}")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if rebalance_margin < 1:
            raise ConfigurationError(
                f"rebalance margin must be >= 1, got {rebalance_margin}"
            )
        if weights is not None:
            if len(weights) != n_shards:
                raise ConfigurationError(
                    f"need one weight per shard: {len(weights)} weights"
                    f" for {n_shards} shards"
                )
            if any(w <= 0 for w in weights):
                raise ConfigurationError(f"shard weights must be > 0, got {weights}")
        self.n_shards = n_shards
        self.replicas = replicas
        self.rebalance_margin = rebalance_margin
        self.weights = [1.0] * n_shards if weights is None else [float(w) for w in weights]
        self.slo = slo
        ring = [
            (_stable_hash(f"shard{shard}/vnode{replica}"), shard)
            for shard in range(n_shards)
            for replica in range(max(1, round(replicas * self.weights[shard])))
        ]
        ring.sort()
        self._ring_keys = [h for h, _ in ring]
        self._ring_shards = [s for _, s in ring]
        self._pins: dict[str, int] = {}
        self._load = [0] * n_shards
        self._failed: set[int] = set()
        self._retired: set[int] = set()
        self._draining: set[int] = set()
        #: New tenants diverted off their ring candidate by load skew.
        self.rebalanced = 0
        #: Tenants re-pinned because their shard failed.  Kept separate
        #: from ``rebalanced`` so telemetry distinguishes load diversions
        #: from failure migrations.
        self.failover_repins = 0
        #: Above-default-priority tenants placed by SLO spreading rather
        #: than the hash ring.
        self.slo_pins = 0
        #: Tenants re-pinned onto a newly provisioned shard (scale-out).
        self.scale_repins = 0
        #: Tenants re-pinned off a gracefully retired shard (scale-in).
        self.drain_repins = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def healthy_shards(self) -> list[int]:
        """Shard ids currently serving traffic (draining shards included)."""
        return [
            s
            for s in range(self.n_shards)
            if s not in self._failed and s not in self._retired
        ]

    def placeable_shards(self) -> list[int]:
        """Shard ids eligible for *new* pins (healthy and not draining)."""
        return [s for s in self.healthy_shards() if s not in self._draining]

    def _normalized_load(self, shard: int) -> float:
        """Pinned tenants per unit of shard weight."""
        return self._load[shard] / self.weights[shard]

    def _lightest_shard(self) -> int:
        """The placeable shard with the lowest weight-normalized load."""
        return min(
            self.placeable_shards(), key=lambda s: (self._normalized_load(s), s)
        )

    def ring_candidate(self, tenant: str) -> int:
        """The consistent-hashing placement, skipping unplaceable shards."""
        if not self.placeable_shards():
            raise ShardError("no healthy shards left to route to")
        blocked = self._failed | self._retired | self._draining
        start = bisect.bisect_left(self._ring_keys, _stable_hash(tenant))
        for offset in range(len(self._ring_shards)):
            shard = self._ring_shards[(start + offset) % len(self._ring_shards)]
            if shard not in blocked:
                return shard
        raise ShardError("no healthy shards left to route to")

    def _is_premium(self, tenant: str) -> bool:
        """True when the tenant's class outranks the default class."""
        return (
            self.slo is not None
            and self.slo.priority_for(tenant) > self.slo.default_class.priority
        )

    def shard_for(self, tenant: str) -> int:
        """The tenant's pinned shard, placing (and pinning) on first sight.

        New default-class tenants take the ring candidate unless it is
        already carrying ``rebalance_margin`` more pinned tenants (per
        unit of weight) than the lightest healthy shard, in which case
        the lightest shard wins (deterministic tie break toward the
        lowest shard id).  New above-default-priority tenants pin
        straight to the lightest shard.
        """
        pinned = self._pins.get(tenant)
        if (
            pinned is not None
            and pinned not in self._failed
            and pinned not in self._retired
        ):
            return pinned
        return self._place(tenant, count_as_rebalance=True)

    def _place(self, tenant: str, count_as_rebalance: bool) -> int:
        """SLO-then-hash-then-balance placement for admission and failover.

        Only organic admissions count load diversions in ``rebalanced``;
        failover re-pins are accounted in ``failover_repins`` by
        :meth:`fail_shard` so the two telemetry streams stay disjoint.
        SLO spreads are counted in ``slo_pins`` either way.
        """
        if not self.placeable_shards():
            raise ShardError("no healthy shards left to route to")
        if self._is_premium(tenant):
            candidate = self._lightest_shard()
            self.slo_pins += 1
        else:
            candidate = self.ring_candidate(tenant)
            lightest = self._lightest_shard()
            if (
                self._normalized_load(candidate) - self._normalized_load(lightest)
                >= self.rebalance_margin
            ):
                candidate = lightest
                if count_as_rebalance:
                    self.rebalanced += 1
        self._pins[tenant] = candidate
        self._load[candidate] += 1
        return candidate

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def fail_shard(self, shard_id: int) -> dict[str, int]:
        """Remove a shard from rotation and re-pin its tenants.

        Returns ``{tenant: new_shard}`` for every displaced tenant, in
        first-pinned order, so callers can migrate sessions in lockstep.
        """
        if shard_id not in range(self.n_shards):
            raise ConfigurationError(f"unknown shard id {shard_id}")
        if shard_id in self._failed or shard_id in self._retired:
            return {}
        self._failed.add(shard_id)
        self._draining.discard(shard_id)
        displaced = [t for t, s in self._pins.items() if s == shard_id]
        for tenant in displaced:
            del self._pins[tenant]
        self._load[shard_id] = 0
        if not self.placeable_shards():
            # Nothing left to re-pin onto; tenants stay unpinned and the
            # next routing attempt surfaces the outage.
            return {}
        remap = {
            tenant: self._place(tenant, count_as_rebalance=False)
            for tenant in displaced
        }
        self.failover_repins += len(remap)
        return remap

    def is_failed(self, shard_id: int) -> bool:
        """True when the shard has been removed from rotation."""
        return shard_id in self._failed

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def add_shard(
        self, weight: float = 1.0, max_migrations: int | None = None
    ) -> tuple[int, dict[str, int]]:
        """Insert a new shard into the live ring with bounded re-pinning.

        The new shard gets the next monotonic id (failed and retired ids
        are never reused, so router ids stay aligned with the server's
        shard list), ``weight`` virtual-node share on the ring, and an
        empty load slot.  Existing pinned tenants move only when the
        updated ring says the new shard is now their candidate — about
        ``pins / n_placeable`` tenants for unit weight — topped up from
        the heaviest shard while the load gap exceeds
        ``rebalance_margin``, with the total move count capped by
        ``max_migrations`` (default: ``ceil(pins / n_placeable)``).

        Returns ``(shard_id, remap)`` where ``remap`` maps each moved
        tenant to the new shard, in deterministic first-pinned order, so
        the session layer can migrate attested sessions in lockstep.
        """
        if weight <= 0:
            raise ConfigurationError(f"shard weight must be > 0, got {weight}")
        shard_id = self.n_shards
        self.n_shards += 1
        self.weights.append(float(weight))
        self._load.append(0)
        for replica in range(max(1, round(self.replicas * weight))):
            key = _stable_hash(f"shard{shard_id}/vnode{replica}")
            at = bisect.bisect_left(self._ring_keys, key)
            self._ring_keys.insert(at, key)
            self._ring_shards.insert(at, shard_id)
        n_placeable = len(self.placeable_shards())
        if max_migrations is None:
            max_migrations = math.ceil(len(self._pins) / max(1, n_placeable))
        remap: dict[str, int] = {}
        # Pass 1: tenants whose ring candidate the new shard now is.
        for tenant, pinned in list(self._pins.items()):
            if len(remap) >= max_migrations:
                break
            if pinned == shard_id or self._is_premium(tenant):
                continue
            if self.ring_candidate(tenant) == shard_id:
                self._load[pinned] -= 1
                self._pins[tenant] = shard_id
                self._load[shard_id] += 1
                remap[tenant] = shard_id
        # Pass 2: drain the heaviest shard while the imbalance the new
        # shard was provisioned to fix still exceeds the margin.
        while len(remap) < max_migrations:
            heaviest = max(
                self.placeable_shards(),
                key=lambda s: (self._normalized_load(s), -s),
            )
            if heaviest == shard_id or (
                self._normalized_load(heaviest)
                - self._normalized_load(shard_id)
                < self.rebalance_margin
            ):
                break
            movable = [
                t
                for t, s in self._pins.items()
                if s == heaviest and not self._is_premium(t)
            ]
            if not movable:
                break
            tenant = movable[0]
            self._load[heaviest] -= 1
            self._pins[tenant] = shard_id
            self._load[shard_id] += 1
            remap[tenant] = shard_id
        self.scale_repins += len(remap)
        return shard_id, remap

    def begin_drain(self, shard_id: int) -> None:
        """Stop pinning *new* tenants to a shard ahead of its removal.

        Existing pins keep routing to the draining shard so in-flight
        sessions finish where they started; :meth:`remove_shard`
        completes the retirement once the drain has flushed.
        """
        if shard_id not in range(self.n_shards):
            raise ConfigurationError(f"unknown shard id {shard_id}")
        if shard_id in self._failed or shard_id in self._retired:
            raise ShardError(f"shard {shard_id} is not live; cannot drain")
        if len(self.placeable_shards()) <= 1 and shard_id in self.placeable_shards():
            raise ShardError("cannot drain the last placeable shard")
        self._draining.add(shard_id)

    def is_draining(self, shard_id: int) -> bool:
        """True while the shard accepts no new pins pending retirement."""
        return shard_id in self._draining

    def remove_shard(self, shard_id: int) -> dict[str, int]:
        """Gracefully retire a shard and re-pin its remaining tenants.

        Unlike :meth:`fail_shard` this is a *planned* removal: the
        shard's virtual nodes leave the ring, its tenants re-place
        through the normal rule (counted in :attr:`drain_repins`, not
        :attr:`failover_repins`), and the returned remap lets the
        session layer migrate each displaced tenant's attested session
        over the still-verified mesh links.
        """
        if shard_id not in range(self.n_shards):
            raise ConfigurationError(f"unknown shard id {shard_id}")
        if shard_id in self._failed:
            raise ShardError(
                f"shard {shard_id} already failed; use fail_shard accounting"
            )
        if shard_id in self._retired:
            return {}
        if len(self.healthy_shards()) <= 1:
            raise ShardError("cannot remove the last serving shard")
        self._retired.add(shard_id)
        self._draining.discard(shard_id)
        keep = [
            (k, s)
            for k, s in zip(self._ring_keys, self._ring_shards)
            if s != shard_id
        ]
        self._ring_keys = [k for k, _ in keep]
        self._ring_shards = [s for _, s in keep]
        displaced = [t for t, s in self._pins.items() if s == shard_id]
        for tenant in displaced:
            del self._pins[tenant]
        self._load[shard_id] = 0
        remap = {
            tenant: self._place(tenant, count_as_rebalance=False)
            for tenant in displaced
        }
        self.drain_repins += len(remap)
        return remap

    def is_retired(self, shard_id: int) -> bool:
        """True when the shard was gracefully removed from the ring."""
        return shard_id in self._retired

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pins(self) -> dict[str, int]:
        """Current tenant -> shard pinning."""
        return dict(self._pins)

    def loads(self) -> list[int]:
        """Pinned-tenant count per shard."""
        return list(self._load)
