"""Multi-tenant request queue with round-robin fair draining.

Draining interleaves tenants round-robin so one saturating tenant cannot
starve the others out of virtual-batch slots.  The queue keeps no bound
of its own: the server admits against one deployment-wide bound (queued
plus in flight, :attr:`ServingConfig.queue_capacity`) before it pushes,
and makes room for a higher-priority arrival by evicting the newest
pending request of a strictly lower-priority class
(:meth:`RequestQueue.evict_newest_below`).  Equal priorities never evict
each other.

The queue is also the flush timer's source of truth: with per-class
budgets, the scheduler's deadline is the *minimum remaining budget* among
pending requests (:meth:`RequestQueue.earliest_deadline`), not one global
wait.
"""

from __future__ import annotations

from collections import deque

from repro.serving.requests import PendingRequest
from repro.serving.slo import SloPolicy


class RequestQueue:
    """FIFO per tenant, round-robin across tenants.

    Parameters
    ----------
    slo:
        The deployment's per-tenant class assignment: it ranks eviction
        victims and caps each tenant's flush wait.
    """

    def __init__(self, slo: SloPolicy) -> None:
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
    def push(self, request: PendingRequest) -> None:
        """Queue one admitted request at the back of its tenant's FIFO."""
        tenant_queue = self._queues.setdefault(request.tenant, deque())
        if not tenant_queue:
            # Newly active (or re-activating after a drain): take the
            # back of the rotation — never the middle of someone's turn.
            self._rotation.append(request.tenant)
        tenant_queue.append(request)
        self._depth += 1

    def _eviction_key(self, tenant: str) -> tuple:
        """Victim ordering for one tenant's newest pending request.

        Lowest class priority first, then the newest request overall (it
        has waited least, so evicting it wastes the least standing work);
        request id breaks exact ties deterministically.
        """
        tail = self._queues[tenant][-1]
        return (self.slo.priority_for(tenant), -tail.arrival_time, -tail.request_id)

    def peek_eviction_candidate(self, priority: int) -> tuple[tuple, str] | None:
        """The best eviction victim strictly below ``priority``, if any.

        Returns ``(ordering_key, tenant)`` without mutating the queue so
        a multi-queue deployment can compare candidates *across* shards
        before committing to one eviction.
        """
        best: tuple[tuple, str] | None = None
        for tenant, tenant_queue in self._queues.items():
            if not tenant_queue or self.slo.priority_for(tenant) >= priority:
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
        :meth:`absorb` on the target queue, preserving arrival times and
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

        The requests were admitted once, at their original shard: a
        membership change moves them and never sheds one.  Per-tenant
        FIFO order and arrival times are preserved; re-homed tenants join
        the back of the rotation like any newly active tenant.
        """
        for request in requests:
            self.push(request)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending requests across all tenants."""
        return self._depth

    def oldest_enqueue_time(self) -> float | None:
        """When the longest-waiting request arrived, or None when empty."""
        heads = [q[0].arrival_time for q in self._queues.values() if q]
        return min(heads) if heads else None

    def earliest_deadline(self, wait: float) -> float | None:
        """The earliest flush deadline among pending requests.

        Each request must flush by ``arrival + min(wait, flush budget)``:
        ``wait`` is the deadline in force for its class-less share of the
        queue (static or learned), and the class's flush budget caps it
        so a premium request's batch never waits past its contract.  Per
        tenant the FIFO head is the oldest request and every request in a
        tenant queue shares one class, so the minimum over heads is the
        minimum over all pending requests.  With no budgeted class this is
        exactly ``oldest_enqueue_time() + wait``.
        """
        best = None
        for tenant, tenant_queue in self._queues.items():
            if not tenant_queue:
                continue
            deadline = tenant_queue[0].arrival_time + min(
                wait, self.slo.flush_budget_for(tenant)
            )
            if best is None or deadline < best:
                best = deadline
        return best
