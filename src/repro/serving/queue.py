"""Bounded multi-tenant request queue with round-robin fair draining.

The queue is the server's backpressure valve: admission beyond
``capacity`` sheds load instead of letting latency grow without bound,
and draining interleaves tenants round-robin so one saturating tenant
cannot starve the others out of virtual-batch slots.

With an :class:`~repro.serving.slo.SloPolicy` attached, shedding becomes
*class-aware*: a full queue first tries to evict the newest pending
request of a strictly lower-priority class to make room for the arrival,
so a best-effort backlog can no longer block premium traffic.  Equal
priorities never evict each other — without a policy (or with every
tenant in the default class) the arrival is shed exactly as before.

The queue is also the flush timer's source of truth: with per-class
budgets, the scheduler's deadline is the *minimum remaining budget* among
pending requests (:meth:`RequestQueue.earliest_deadline`), not one global
wait.
"""

from __future__ import annotations

import math
from collections import deque

from repro.errors import BackpressureError, ConfigurationError
from repro.serving.requests import PendingRequest
from repro.serving.slo import SloPolicy


class RequestQueue:
    """FIFO per tenant, round-robin across tenants, bounded overall.

    Parameters
    ----------
    capacity:
        Maximum pending requests across all tenants; pushes beyond it
        shed (or, with an SLO policy, evict a lower-priority victim).
    slo:
        Optional per-tenant class assignment.  ``None`` keeps the
        priority-blind shed-the-arrival behavior bit-identical to
        previous releases.
    """

    def __init__(self, capacity: int = 256, slo: SloPolicy | None = None) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slo = slo
        #: Tenant FIFOs, keyed in first-arrival order.
        self._queues: dict[str, deque[PendingRequest]] = {}
        #: Tenants with pending requests, in rotation order.  The head is
        #: always the next tenant to serve; serving rotates it to the
        #: back, draining a tenant drops it, and a (re-)activating tenant
        #: joins at the back — so the rotation is anchored by tenant, not
        #: by an index into an ever-growing list, and a new tenant can
        #: never skip or double-serve an existing tenant's turn.
        self._rotation: deque[str] = deque()
        self._depth = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def push(self, request: PendingRequest) -> PendingRequest | None:
        """Admit one request; returns the pending request evicted for it.

        When the queue is full, a strictly lower-priority pending request
        (lowest priority, then newest) is evicted to make room and
        returned so the caller can record its outcome.  With no eligible
        victim the *arrival* is shed, exactly as before.

        Raises
        ------
        BackpressureError
            When ``capacity`` pending requests are already queued and no
            lower-priority victim exists.
        """
        evicted = None
        if self._depth >= self.capacity:
            priority = self.slo.priority_for(request.tenant) if self.slo else 0
            evicted = self.evict_newest_below(priority)
            if evicted is None:
                raise BackpressureError(
                    f"request queue full ({self.capacity} pending);"
                    f" shedding request {request.request_id} from {request.tenant!r}"
                )
        tenant_queue = self._queues.setdefault(request.tenant, deque())
        if not tenant_queue:
            # Newly active (or re-activating after a drain): take the
            # back of the rotation — never the middle of someone's turn.
            self._rotation.append(request.tenant)
        tenant_queue.append(request)
        self._depth += 1
        return evicted

    def _eviction_key(self, tenant: str) -> tuple:
        """Victim ordering for one tenant's newest pending request.

        Lowest class priority first, then the newest request overall (it
        has waited least, so evicting it wastes the least standing work);
        request id breaks exact ties deterministically.
        """
        tail = self._queues[tenant][-1]
        priority = self.slo.priority_for(tenant) if self.slo is not None else 0
        return (priority, -tail.enqueue_time, -tail.request_id)

    def peek_eviction_candidate(self, priority: int) -> tuple[tuple, str] | None:
        """The best eviction victim strictly below ``priority``, if any.

        Returns ``(ordering_key, tenant)`` without mutating the queue so
        a multi-queue deployment can compare candidates *across* shards
        before committing to one eviction.
        """
        best: tuple[tuple, str] | None = None
        for tenant, tenant_queue in self._queues.items():
            if not tenant_queue:
                continue
            victim_priority = self.slo.priority_for(tenant) if self.slo else 0
            if victim_priority >= priority:
                continue
            key = self._eviction_key(tenant)
            if best is None or key < best[0]:
                best = (key, tenant)
        return best

    def evict_newest_below(self, priority: int) -> PendingRequest | None:
        """Evict (and return) the best victim strictly below ``priority``.

        ``None`` when every pending request holds equal or higher
        standing — the caller must shed the arrival instead.
        """
        candidate = self.peek_eviction_candidate(priority)
        if candidate is None:
            return None
        tenant = candidate[1]
        victim = self._queues[tenant].pop()
        self._depth -= 1
        if not self._queues[tenant]:
            self._rotation.remove(tenant)
        return victim

    # ------------------------------------------------------------------
    # fair draining
    # ------------------------------------------------------------------
    def pop_fair(self, max_n: int) -> list[PendingRequest]:
        """Pop up to ``max_n`` requests, one per tenant turn, round-robin.

        Tenants are visited round-robin starting where the previous call
        stopped, and each turn pops one request, so over consecutive
        batches every active tenant gets an equal share of slots
        regardless of individual queue depth.  The rotation holds only
        tenants with pending work and is keyed by tenant, so tenants
        draining or arriving mid-rotation never shift whose turn is next.
        """
        out: list[PendingRequest] = []
        while len(out) < max_n and self._rotation:
            tenant = self._rotation.popleft()
            tenant_queue = self._queues[tenant]
            out.append(tenant_queue.popleft())
            self._depth -= 1
            if tenant_queue:
                self._rotation.append(tenant)
        return out

    # ------------------------------------------------------------------
    # re-homing (elastic membership)
    # ------------------------------------------------------------------
    def extract_tenant(self, tenant: str) -> list[PendingRequest]:
        """Remove and return one tenant's entire pending FIFO.

        Used when the router re-pins a tenant to another shard: the
        already-admitted requests follow the pin via
        :meth:`absorb` on the target queue, preserving enqueue times and
        order.  Extraction is not a shed.
        """
        tenant_queue = self._queues.get(tenant)
        if not tenant_queue:
            return []
        requests = list(tenant_queue)
        tenant_queue.clear()
        self._depth -= len(requests)
        self._rotation.remove(tenant)
        return requests

    def absorb(self, requests: list[PendingRequest]) -> None:
        """Re-home already-admitted requests onto this queue.

        Unlike :meth:`push` this performs no capacity check: the requests
        were admitted once at their original shard, and a membership change
        must never turn an admitted request into a shed.  Per-tenant FIFO order and enqueue
        times are preserved; re-homed tenants join the back of the
        rotation like any newly active tenant.
        """
        for request in requests:
            tenant_queue = self._queues.setdefault(request.tenant, deque())
            if not tenant_queue:
                self._rotation.append(request.tenant)
            tenant_queue.append(request)
            self._depth += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending requests across all tenants."""
        return self._depth

    def oldest_enqueue_time(self) -> float | None:
        """Enqueue time of the longest-waiting request, or None when empty."""
        heads = [q[0].enqueue_time for q in self._queues.values() if q]
        return min(heads) if heads else None

    def earliest_deadline(self, wait: float) -> float | None:
        """The earliest flush deadline among pending requests.

        Each request must flush by ``enqueue + min(wait, flush budget)``:
        ``wait`` is the deadline in force for its class-less share of the
        queue (static or learned), and the class's flush budget caps it
        so a premium request's batch never waits past its contract.  Per
        tenant the FIFO head is the oldest request and every request in a
        tenant queue shares one class, so the minimum over heads is the
        minimum over all pending requests.  Without an SLO policy this is
        exactly ``oldest_enqueue_time() + wait``.
        """
        best = None
        for tenant, tenant_queue in self._queues.items():
            if not tenant_queue:
                continue
            budget = (
                self.slo.flush_budget_for(tenant) if self.slo else math.inf
            )
            deadline = tenant_queue[0].enqueue_time + min(wait, budget)
            if best is None or deadline < best:
                best = deadline
        return best
