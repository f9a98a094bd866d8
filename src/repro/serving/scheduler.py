"""Dynamic virtual-batch coalescing: flush on size or deadline.

The scheduler turns independent single-sample requests into the paper's
virtual batches.  A batch flushes the moment ``K`` requests are pending
(size trigger — full amortization of the enclave encode/decode), or when
the oldest pending request has waited ``max_wait`` simulated seconds
(deadline trigger — a partial batch ships padded rather than blowing the
latency budget).  ``batch_size=1`` degenerates to per-request dispatch,
which is exactly the baseline the serving benchmark compares against.

Flushed batches feed the staged pipeline: each batch's ``flush_time``
becomes its *release time* on the executor's shared timeline, and every
batch flushed in the same event-loop step shares one pipeline window —
so a deadline-flushed partial and the size-triggered batch behind it
overlap in simulated time (encode ``n+1`` while ``n`` computes) instead
of serializing through a per-batch service model.
"""

from __future__ import annotations

import itertools
import math

from repro.errors import ConfigurationError
from repro.serving.adaptive import AdaptiveFlushPolicy, WindowFeedback
from repro.serving.queue import RequestQueue
from repro.serving.requests import ScheduledBatch


class VirtualBatchScheduler:
    """Coalesces queued requests into :class:`ScheduledBatch` es.

    Parameters
    ----------
    queue:
        The bounded multi-tenant queue to drain.
    batch_size:
        Virtual-batch size ``K`` — requests coalesced per flush.
    max_wait:
        Max simulated seconds a request may sit queued before a partial
        batch is forced out (the serving latency SLO knob).
    slots:
        Virtual-batch slots a flushed batch occupies on the enclave/GPUs.
        Defaults to ``batch_size``; per-request dispatch sets
        ``batch_size=1`` with ``slots=K`` because the enclave still pads
        each lone sample to a full ``K``-slot encoding.
    shard_id:
        The enclave shard this scheduler's flushes are bound for.
    id_source:
        Shared batch-id counter; a sharded deployment passes one counter
        to every per-shard scheduler so batch ids stay globally unique.
    policy:
        Optional :class:`~repro.serving.adaptive.AdaptiveFlushPolicy`.
        When set, the flush deadline is the policy's learned wait and the
        coalescing target is its EPC-capped batch size; when ``None``
        (the default) the static ``batch_size``/``max_wait`` knobs apply
        unchanged.
    """

    def __init__(
        self,
        queue: RequestQueue,
        batch_size: int,
        max_wait: float = 0.01,
        slots: int | None = None,
        shard_id: int = 0,
        id_source: "itertools.count | None" = None,
        policy: AdaptiveFlushPolicy | None = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
        if max_wait <= 0:
            raise ConfigurationError(f"max wait must be > 0, got {max_wait}")
        self.queue = queue
        self.batch_size = batch_size
        self.max_wait = max_wait
        self.slots = max(batch_size, slots or batch_size)
        self.shard_id = shard_id
        self.policy = policy
        self._ids = id_source if id_source is not None else itertools.count()
        self.batches_scheduled = 0
        #: Optional elastic cap on the coalescing target — the EPC-pool
        #: re-size applied between windows as shards join or leave.
        self.batch_cap: int | None = None

    def _make(
        self,
        requests,
        flush_time: float,
        trigger: str,
        wait_used: float | None = None,
    ) -> ScheduledBatch:
        batch = ScheduledBatch(
            batch_id=next(self._ids),
            requests=requests,
            flush_time=flush_time,
            trigger=trigger,
            slots=self.slots,
            shard_id=self.shard_id,
        )
        self.batches_scheduled += 1
        if self.policy is not None:
            self.policy.observe_flush(
                trigger, batch.n_requests, wait_used, flush_time=flush_time
            )
        return batch

    # ------------------------------------------------------------------
    # adaptive hooks (no-ops in static mode)
    # ------------------------------------------------------------------
    @property
    def effective_batch_size(self) -> int:
        """The coalescing target in force: static ``K``, policy, or pool cap."""
        size = self.batch_size
        if self.policy is not None:
            size = min(size, self.policy.batch_size)
        if self.batch_cap is not None:
            size = min(size, self.batch_cap)
        return max(1, size)

    def current_wait(self) -> float:
        """The flush deadline in force for the oldest queued request."""
        if self.policy is None:
            return self.max_wait
        return self.policy.current_wait(pending=self.queue.depth)

    def observe_arrival(self, now: float) -> None:
        """Tell the policy one request was admitted to this shard's queue."""
        if self.policy is not None:
            self.policy.observe_arrival(now)

    def observe_feedback(self, feedback: WindowFeedback) -> None:
        """Fold one dispatched window's measured timings into the policy."""
        if self.policy is not None:
            self.policy.observe_window(feedback)

    # ------------------------------------------------------------------
    # flush triggers
    # ------------------------------------------------------------------
    def collect_ready(self, now: float) -> list[ScheduledBatch]:
        """Flush every *full* batch available at ``now`` (size trigger)."""
        batches = []
        while self.queue.depth >= self.effective_batch_size:
            batches.append(
                self._make(self.queue.pop_fair(self.effective_batch_size), now, "size")
            )
        return batches

    def collect_expired(self, now: float) -> list[ScheduledBatch]:
        """Flush partial batches whose tightest remaining budget expired.

        The flush deadline is the *minimum remaining budget* among queued
        requests (:meth:`~repro.serving.queue.RequestQueue.
        earliest_deadline`): each request must ship by ``enqueue +
        min(wait, class flush budget)``, so one premium request's
        contract pulls the whole partial forward while a queue of
        budget-less requests keeps exactly the classic ``oldest enqueue +
        wait`` deadline.  Each flush is stamped with the deadline time,
        not ``now``: between trace arrivals the simulated server would
        have fired the flush timer at the deadline itself.  In adaptive
        mode the wait is the policy's learned deadline, re-evaluated per
        flush as the queue drains.  Passing ``now = math.inf`` drains
        everything deadline-by-deadline.
        """
        batches = []
        while self.queue.depth:
            oldest = self.queue.oldest_enqueue_time()
            wait = self.current_wait()
            deadline = self.queue.earliest_deadline(wait)
            if deadline > now:
                break
            flush_at = deadline if math.isfinite(deadline) else oldest
            batches.append(
                self._make(
                    self.queue.pop_fair(self.effective_batch_size),
                    flush_at,
                    "deadline",
                    wait_used=flush_at - oldest,
                )
            )
        return batches

    def drain(self, now: float) -> list[ScheduledBatch]:
        """Flush everything immediately (server shutdown)."""
        batches = []
        while self.queue.depth:
            batches.append(
                self._make(
                    self.queue.pop_fair(self.effective_batch_size), now, "drain"
                )
            )
        return batches


class ShardedBatchScheduler:
    """Every serving unit's coalescing scheduler behind one interface.

    Tenants are pinned to units, so coalescing is *per unit*: a batch
    only ever mixes requests destined for the same enclave.  Each unit
    keeps its own size/deadline triggers (a hot unit flushing early never
    forces a cold unit's partial out), while batch ids are drawn from one
    shared counter so outcomes stay globally attributable.  With one unit
    this degenerates exactly to a single :class:`VirtualBatchScheduler`.

    Parameters
    ----------
    units:
        The deployment's :class:`~repro.serving.unit.ServingUnit` list,
        shared by reference with the server that owns membership: a unit
        appended to it is collected from the next call on, a retired one
        is skipped.
    """

    def __init__(self, units: list) -> None:
        self.units = units

    def _live(self):
        return (u.scheduler for u in self.units if not u.executor.retired)

    def set_batch_cap(self, cap: int | None) -> None:
        """Apply an EPC-pool batch-size cap to every live unit."""
        for scheduler in self._live():
            scheduler.batch_cap = cap

    def collect_ready(self, now: float) -> list[ScheduledBatch]:
        """Flush every full batch available on any unit (size trigger)."""
        return [b for s in self._live() for b in s.collect_ready(now)]

    def collect_expired(self, now: float) -> list[ScheduledBatch]:
        """Flush deadline-expired partials on every unit, deadline order.

        Batches are merged across units by flush time so the dispatch
        window sees one globally time-ordered stream, exactly as a single
        deadline timer would have fired them.
        """
        batches = [b for s in self._live() for b in s.collect_expired(now)]
        batches.sort(key=lambda b: (b.flush_time, b.batch_id))
        return batches

    # ------------------------------------------------------------------
    # adaptive hooks (no-ops when no unit carries a policy)
    # ------------------------------------------------------------------
    def observe_feedback(self, feedback: WindowFeedback) -> None:
        """Route one dispatched window's measured timings to its unit."""
        self.units[feedback.shard_id].scheduler.observe_feedback(feedback)

    def policy_snapshots(self) -> list[dict | None]:
        """Each unit's learned-policy telemetry (None for static units)."""
        return [
            u.scheduler.policy.snapshot() if u.scheduler.policy is not None else None
            for u in self.units
        ]

    @property
    def queued(self) -> int:
        """Pending requests across all unit queues."""
        return sum(u.queue.depth for u in self.units)
