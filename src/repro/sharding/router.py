"""Tenant-to-shard routing: consistent hashing with load-aware pinning.

Tenants are sticky to a shard — their attested session, and therefore
their encrypted channel, lives on one enclave — so routing is a *pinning*
decision, made once per tenant and revisited only when membership
changes.  The router places each new tenant by consistent hashing over a
virtual-node ring (stable under shard-count changes, no coordination
needed), then applies a load-aware override: when the ring's candidate
already carries materially more tenants than the lightest shard, the new
tenant is pinned to the lightest shard instead.  Hashing is keyed
(BLAKE2b), not Python's randomized ``hash``, so placements are
reproducible across runs.

Placement is also SLO-aware (the deployment's
:class:`~repro.serving.slo.SloPolicy`): tenants of above-default priority
skip the hash walk and pin straight to the lightest healthy shard, spreading
premium traffic across the least-contended enclaves instead of wherever
the ring happens to land them.

Membership is *dynamic*: :meth:`ShardRouter.add_shard` inserts a new
shard's virtual nodes into the live ring and re-pins only the bounded
set of tenants consistent hashing says now belong to it (at most
``ceil(pins / n_live)``), :meth:`ShardRouter.begin_drain` stops new
tenants landing on a shard about to leave, and
:meth:`ShardRouter.remove_shard` takes a shard out of rotation — retired
or failed alike — re-pinning its tenants through the normal rule.  A
removed shard's virtual nodes stay on the ring and the walk steps past
them, which places every tenant exactly as a ring without them would.
Constructing with ``n_shards`` puts exactly the virtual nodes on the
ring that adding that many shards one by one would.
"""

from __future__ import annotations

import bisect
import hashlib
import math

from repro.errors import ConfigurationError, ShardError

#: Virtual nodes per shard on the hash ring; more replicas smooth the hash
#: distribution at slightly more setup cost.
RING_REPLICAS = 48

#: How many more pinned tenants the ring's candidate may carry than the
#: least-loaded shard before a *new* tenant is diverted to the latter:
#: ``1`` would balance aggressively (hash placement only breaking ties),
#: larger values preserve hash affinity under skew.
REBALANCE_MARGIN = 2


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
    slo:
        The deployment's :class:`~repro.serving.slo.SloPolicy`.  Tenants
        whose class priority exceeds the default class's pin to the
        lightest healthy shard instead of walking the ring.
    """

    def __init__(self, n_shards: int, slo) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"router needs >= 1 shards, got {n_shards}")
        self.n_shards = n_shards
        self.slo = slo
        ring = [
            (_stable_hash(f"shard{shard}/vnode{replica}"), shard)
            for shard in range(n_shards)
            for replica in range(RING_REPLICAS)
        ]
        ring.sort()
        self._ring_keys = [h for h, _ in ring]
        self._ring_shards = [s for _, s in ring]
        self._pins: dict[str, int] = {}
        self._load = [0] * n_shards
        #: Shards out of rotation (retired or failed over); ids are never reused.
        self._removed: set[int] = set()
        self._draining: set[int] = set()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def healthy_shards(self) -> list[int]:
        """Shard ids currently serving traffic (draining shards included)."""
        return [s for s in range(self.n_shards) if s not in self._removed]

    def placeable_shards(self) -> list[int]:
        """Shard ids eligible for *new* pins (healthy and not draining)."""
        return [s for s in self.healthy_shards() if s not in self._draining]

    def _lightest_shard(self) -> int:
        """The placeable shard with the fewest pinned tenants."""
        return min(self.placeable_shards(), key=lambda s: (self._load[s], s))

    def ring_candidate(self, tenant: str) -> int:
        """The consistent-hashing placement, skipping unplaceable shards."""
        if not self.placeable_shards():
            raise ShardError("no healthy shards left to route to")
        blocked = self._removed | self._draining
        start = bisect.bisect_left(self._ring_keys, _stable_hash(tenant))
        for offset in range(len(self._ring_shards)):
            shard = self._ring_shards[(start + offset) % len(self._ring_shards)]
            if shard not in blocked:
                return shard
        raise ShardError("no healthy shards left to route to")

    def _is_premium(self, tenant: str) -> bool:
        """True when the tenant's class outranks the default class."""
        return self.slo.priority_for(tenant) > self.slo.default_class.priority

    def shard_for(self, tenant: str) -> int:
        """The tenant's pinned shard, placing (and pinning) on first sight.

        New default-class tenants take the ring candidate unless it is
        already carrying :data:`REBALANCE_MARGIN` more pinned tenants than
        the lightest healthy shard, in which case
        the lightest shard wins (deterministic tie break toward the
        lowest shard id).  New above-default-priority tenants pin
        straight to the lightest shard.  No pin ever names a removed
        shard: :meth:`remove_shard` unpins its tenants.
        """
        pinned = self._pins.get(tenant)
        if pinned is not None:
            return pinned
        return self._place(tenant)

    def _place(self, tenant: str) -> int:
        """SLO-then-hash-then-balance placement for admission and removal."""
        if not self.placeable_shards():
            raise ShardError("no healthy shards left to route to")
        if self._is_premium(tenant):
            candidate = self._lightest_shard()
        else:
            candidate = self.ring_candidate(tenant)
            lightest = self._lightest_shard()
            if self._load[candidate] - self._load[lightest] >= REBALANCE_MARGIN:
                candidate = lightest
        self._pins[tenant] = candidate
        self._load[candidate] += 1
        return candidate

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def add_shard(self) -> tuple[int, dict[str, int]]:
        """Insert a new shard into the live ring with bounded re-pinning.

        The new shard gets the next monotonic id (removed ids are never
        reused, so router ids stay aligned with the server's
        shard list), :data:`RING_REPLICAS` virtual nodes on the ring, and an empty
        load slot.  Existing pinned tenants move only when the updated
        ring says the new shard is now their candidate — about
        ``pins / n_placeable`` tenants — topped up from the heaviest
        shard while the load gap exceeds :data:`REBALANCE_MARGIN`, with the
        total move count capped at ``ceil(pins / n_placeable)``.

        Returns ``(shard_id, remap)`` where ``remap`` maps each moved
        tenant to the new shard, in deterministic first-pinned order, so
        the session layer can migrate attested sessions in lockstep.
        """
        shard_id = self.n_shards
        self.n_shards += 1
        self._load.append(0)
        for replica in range(RING_REPLICAS):
            key = _stable_hash(f"shard{shard_id}/vnode{replica}")
            at = bisect.bisect_left(self._ring_keys, key)
            self._ring_keys.insert(at, key)
            self._ring_shards.insert(at, shard_id)
        n_placeable = len(self.placeable_shards())
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
            heaviest = max(self.placeable_shards(), key=lambda s: (self._load[s], -s))
            if heaviest == shard_id or (
                self._load[heaviest] - self._load[shard_id] < REBALANCE_MARGIN
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
        return shard_id, remap

    def begin_drain(self, shard_id: int) -> None:
        """Stop pinning *new* tenants to a shard ahead of its removal.

        Existing pins keep routing to the draining shard so queued work
        finishes where it started; :meth:`remove_shard` takes it out of
        rotation once the drain has flushed.
        """
        if shard_id not in range(self.n_shards):
            raise ConfigurationError(f"unknown shard id {shard_id}")
        if shard_id in self._removed:
            raise ShardError(f"shard {shard_id} is not live; cannot drain")
        if len(self.placeable_shards()) <= 1 and shard_id in self.placeable_shards():
            raise ShardError("cannot drain the last placeable shard")
        self._draining.add(shard_id)

    def remove_shard(self, shard_id: int) -> dict[str, int]:
        """Take a shard out of rotation and re-pin its tenants.

        One removal for every way out — a drained retirement and a
        failover alike.  The shard stops placing and routing; its
        tenants re-place through the normal rule, and the returned
        ``{tenant: new_shard}`` (first-pinned order) says where each
        went.  With no placeable shard left the tenants stay unpinned and
        the next routing attempt surfaces the outage.  Removing a shard
        twice is a no-op.
        """
        if shard_id not in range(self.n_shards):
            raise ConfigurationError(f"unknown shard id {shard_id}")
        if shard_id in self._removed:
            return {}
        self._removed.add(shard_id)
        self._draining.discard(shard_id)
        displaced = [t for t, s in self._pins.items() if s == shard_id]
        for tenant in displaced:
            del self._pins[tenant]
        self._load[shard_id] = 0
        if not self.placeable_shards():
            return {}
        return {tenant: self._place(tenant) for tenant in displaced}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pins(self) -> dict[str, int]:
        """Current tenant -> shard pinning."""
        return dict(self._pins)

    def loads(self) -> list[int]:
        """Pinned-tenant count per shard."""
        return list(self._load)
