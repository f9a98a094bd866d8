"""Worker pool: flush windows dispatched onto per-shard pipeline loops.

Each :class:`~repro.sharding.EnclaveShard` owns a full enclave + GPU
cluster + staged pipeline engine on its *own* serialized timeline, so the
pool's job is routing, not compute: a flush window's batches are grouped
by their shard and each group runs through that shard's
:class:`~repro.pipeline.PipelineExecutor` loop.  Because the timelines
are independent, shard ``A``'s enclave encodes while shard ``B``'s
decodes — parallel enclave timelines behind one scheduler, which is what
lets simulated throughput scale with the shard count on enclave-bound
workloads.  Within one shard, the staged pipeline still overlaps batch
``n+1``'s encode with batch ``n``'s GPU compute exactly as before.

Failures stay contained at two granularities:

* integrity/decode failures abort one shard's window and are retried
  batch-by-batch on the *same* shard, so a byzantine GPU fails only its
  own batch's requests;
* a shard death (:class:`~repro.errors.ShardFailedError`) triggers
  failover: the router unpins the dead shard's tenants, the session layer
  re-attests them across the mesh, and the window's unfinished batches
  retry per batch on the survivors — no response is dropped.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.audit.commitment import STATUS_RETRIED
from repro.errors import (
    AttestationError,
    DecodingError,
    IntegrityError,
    ShardError,
    ShardFailedError,
)
from repro.serving.adaptive import WindowFeedback
from repro.serving.requests import (
    STATUS_DECODE_FAILED,
    STATUS_INTEGRITY_FAILED,
    STATUS_OK,
    STATUS_SHARD_FAILED,
    RequestOutcome,
    ScheduledBatch,
)
from repro.sharding import PipelineGroup


class InferenceWorkerPool:
    """Dispatches scheduled batches onto per-shard staged pipelines.

    Parameters
    ----------
    units:
        The deployment's :class:`~repro.serving.unit.ServingUnit` list
        (``units[i].unit_id == i``), shared by reference with the server
        that owns membership; batches address units by id.
    router:
        Re-pins tenants when a unit fails.
    sessions:
        The :class:`~repro.serving.session.ShardedSessionManager` whose
        sessions must migrate on unit failure (``None`` skips migration).
    on_feedback:
        Optional callback receiving one
        :class:`~repro.serving.adaptive.WindowFeedback` per successfully
        dispatched per-shard window — the timing feedback loop the
        adaptive flush policy learns from.
    slo:
        Optional :class:`~repro.serving.slo.SloPolicy`.  When set, each
        dispatched batch carries the tightest remaining end-to-end
        deadline among its requests (``arrival + budget``), which the
        deadline-aware stage ranker uses to spend the serialized enclave
        on premium windows first.  ``None`` dispatches without
        deadlines — the classic schedule.  Failover also becomes
        budget-aware: requests whose class budget is already exhausted at
        the failure frontier are failed immediately (and counted in
        :attr:`retries_skipped_budget`) instead of burning a surviving
        shard's enclave on a response that can only arrive late.
    audit:
        Optional :class:`~repro.audit.AuditTrail`.  When set, every
        dispatched window — completed, aborted-and-isolated, failed-over,
        or terminally failed — is committed to the owning shard's chained
        log at flush completion.  ``None`` (the default) skips every
        commit site; dispatch behaviour and outcomes are bit-identical.
    """

    def __init__(
        self,
        units: list,
        router,
        sessions=None,
        on_feedback=None,
        slo=None,
        audit=None,
    ) -> None:
        self.units = units
        self.router = router
        self.sessions = sessions
        self.on_feedback = on_feedback
        self.slo = slo
        self.audit = audit
        self.batches_run = 0
        #: Enclave-occupied simulated seconds summed over all shards.
        self.busy_time = 0.0
        self.failovers = 0
        #: Failover retries skipped because the class SLO budget was
        #: already exhausted at the failure frontier.
        self.retries_skipped_budget = 0
        #: Failover retries shed because the remaining budget at the
        #: failure frontier could not cover the measured service-time
        #: floor — the retry was *guaranteed* to finish late even though
        #: the deadline had not yet passed.
        self.retries_skipped_floor = 0
        #: Minimum observed per-batch service span (dispatch to finish)
        #: across successful windows; the shed decision's lower bound.
        self._service_floor = math.inf
        self._stage_totals: dict[str, float] = {}

    def dispatch_window(self, batches: list[ScheduledBatch]) -> list[RequestOutcome]:
        """Dispatch a window of flushed batches to their shards' pipelines.

        Batches grouped per shard share that shard's executor window (the
        enclave encodes batch ``n+1`` while batch ``n``'s shares are on
        the GPUs); different shards' groups run on independent timelines.
        Outcomes are returned in batch order regardless of shard.
        """
        if not batches:
            return []
        by_shard: dict[int, list[ScheduledBatch]] = {}
        for batch in batches:
            by_shard.setdefault(batch.shard_id, []).append(batch)
        by_batch: dict[int, list[RequestOutcome]] = {b.batch_id: [] for b in batches}
        for shard_id in sorted(by_shard):
            for outcome in self._dispatch_on(shard_id, by_shard[shard_id]):
                by_batch[outcome.batch_id].append(outcome)
        return [o for batch in batches for o in by_batch[batch.batch_id]]

    # ------------------------------------------------------------------
    # per-shard dispatch
    # ------------------------------------------------------------------
    def _commit(
        self,
        shard_id: int,
        batches: list[ScheduledBatch],
        outputs_by_batch: list,
        status: str,
        aborted: bool = False,
        error: str | None = None,
    ) -> None:
        """Commit one window to the audit trail (no-op when audit is off).

        The commit fans out over the unit's member shards: each one's
        chained log records its *own* sub-window — the exit member the
        response logits, interior members the flattened live activations
        their stage produced — so each physical enclave's chain stays a
        complete, independently verifiable account of what it computed.
        """
        if self.audit is None or not batches:
            return
        unit = self.units[shard_id]
        for shard in unit.shards:
            self.audit.commit_window(
                shard.shard_id,
                batches,
                unit.executor.sub_outputs(shard.shard_id, outputs_by_batch),
                status=status,
                aborted=aborted,
                error=error,
            )

    def _batch_deadline(self, batch: ScheduledBatch) -> float:
        """The tightest end-to-end deadline among the batch's requests.

        A batch carrying an explicit :attr:`ScheduledBatch.deadline`
        (a failover retry stamped with its requests' remaining budget)
        keeps it; otherwise the deadline derives from class budgets.
        """
        if batch.deadline is not None:
            return batch.deadline
        if self.slo is None:
            return math.inf
        return min(
            (req.arrival_time + self.slo.budget_for(req.tenant)
             for req in batch.requests),
            default=math.inf,
        )

    def _dispatch_on(
        self, shard_id: int, batches: list[ScheduledBatch]
    ) -> list[RequestOutcome]:
        shard = self.units[shard_id].executor
        items = [
            (
                np.stack([req.x for req in batch.requests]),
                batch.flush_time,
                self._batch_deadline(batch),
            )
            for batch in batches
        ]
        busy_before = shard.timeline.busy_time
        try:
            groups, stats = shard.run_window(items)
        except ShardFailedError as exc:
            return self._fail_over(shard, batches, exc)
        except (IntegrityError, DecodingError) as exc:
            # The aborted run still occupied the enclave up to the failure
            # point; charge that occupancy to the pool (the shards charge
            # their own) no matter how many batches shared the window —
            # the isolating single-batch re-runs below account only their
            # *own* time.
            self.busy_time += shard.timeline.busy_time - busy_before
            if len(batches) > 1:
                # One bad batch aborted the shared schedule; isolate it by
                # running every batch in its own single-batch window.  The
                # aborted shared window still enters the audit log, marked
                # as retried — the terminal leaves live in the isolating
                # single-batch windows below.
                self._commit(
                    shard_id,
                    batches,
                    [None] * len(batches),
                    status=STATUS_RETRIED,
                    aborted=True,
                    error=str(exc),
                )
                return [
                    o for batch in batches for o in self._dispatch_on(shard_id, [batch])
                ]
            status = (
                STATUS_INTEGRITY_FAILED
                if isinstance(exc, IntegrityError)
                else STATUS_DECODE_FAILED
            )
            # Completion falls back to the clock's failure frontier.
            fallback = max(shard.timeline.free_at, batches[0].flush_time)
            self.batches_run += 1
            self._commit(
                shard_id, batches, [None], status=status, aborted=True, error=str(exc)
            )
            return self._outcomes(batches[0], None, status, str(exc), fallback)
        self._account(stats)
        self.batches_run += len(batches)
        self._observe_service_spans(groups)
        self._commit(
            shard_id, batches, [group.output for group in groups], status=STATUS_OK
        )
        if self.on_feedback is not None:
            self.on_feedback(
                WindowFeedback(
                    shard_id=shard_id,
                    n_batches=len(batches),
                    enclave_busy=stats.enclave_busy,
                    makespan=stats.makespan,
                    stage_totals=dict(stats.stage_totals),
                    slot_bytes_observed=max(
                        int(x.nbytes // max(1, x.shape[0])) for x, *_ in items
                    ),
                )
            )
        return [
            o
            for batch, group in zip(batches, groups)
            for o in self._outcomes(batch, group, STATUS_OK, None, 0.0)
        ]

    def _fail_over(
        self,
        shard: PipelineGroup,
        batches: list[ScheduledBatch],
        exc: ShardFailedError,
    ) -> list[RequestOutcome]:
        """Account a dead shard's completed prefix, migrate, retry the rest.

        Never raises: a total outage (no survivors) or a refused migration
        (unverified mesh link) turns the unfinished batches into
        ``STATUS_SHARD_FAILED`` outcomes instead of crashing the server.
        On refusal the dead shard's sessions are dropped outright (see
        :meth:`~repro.serving.session.ShardedSessionManager.fail_over`),
        so displaced tenants hold no session anywhere until their next
        arrival re-attests from scratch on the re-pinned shard.
        """
        outcomes: list[RequestOutcome] = []
        completed_outputs = []
        for batch, (groups, stats) in zip(batches, exc.completed):
            self._account(stats)
            self.batches_run += 1
            self._observe_service_spans(groups)
            completed_outputs.append(groups[0].output)
            outcomes.extend(self._outcomes(batch, groups[0], STATUS_OK, None, 0.0))
        self._commit(
            shard.shard_id,
            batches[: exc.remaining_from],
            completed_outputs,
            status=STATUS_OK,
        )
        remaining = batches[exc.remaining_from :]
        now = remaining[0].flush_time if remaining else batches[-1].flush_time
        outage: Exception | None = None
        if not self.router.is_failed(shard.shard_id):
            # One enclave failure is one failover, even when the dead
            # shard's leftover queued batches flush in later windows:
            # the router forgets a unit exactly once.
            self.failovers += 1
            try:
                self.router.fail_shard(shard.shard_id)
                if self.sessions is not None:
                    self.sessions.fail_over(shard.shard_id, now)
            except (ShardError, AttestationError) as migration_exc:
                outage = migration_exc
        retries_by_target: dict[int, list[ScheduledBatch]] = {}
        terminal: list[tuple[ScheduledBatch, str]] = []
        rerouted: list[ScheduledBatch] = []
        for batch in remaining:
            fallback = max(shard.timeline.free_at, batch.flush_time)
            if outage is not None:
                terminal.append((batch, str(outage)))
                outcomes.extend(
                    self._outcomes(batch, None, STATUS_SHARD_FAILED, str(outage), fallback)
                )
                continue
            batch, expired, floor_shed = self._prune_exhausted(batch, fallback)
            if expired is not None:
                expired_error = (
                    f"batch {expired.batch_id}: class SLO budget exhausted at"
                    " the failure frontier; retry skipped"
                )
                self.retries_skipped_budget += len(expired.requests) - floor_shed
                self.retries_skipped_floor += floor_shed
                terminal.append((expired, expired_error))
                outcomes.extend(
                    self._outcomes(
                        expired, None, STATUS_SHARD_FAILED, expired_error, fallback
                    )
                )
                if batch is None:
                    continue
            survivors = sum(1 for u in self.units if u.executor.healthy)
            if batch.retries > survivors:
                # Cascade cap: a batch cannot meaningfully retry more
                # times than there are *surviving* shards to die under it
                # — counting already-dead shards (the old
                # ``len(self.shards)`` bound) let a batch burn retries on
                # targets that no longer exist.
                cap_error = (
                    f"batch {batch.batch_id} exhausted {batch.retries}"
                    " failover retries"
                )
                terminal.append((batch, cap_error))
                outcomes.extend(
                    self._outcomes(batch, None, STATUS_SHARD_FAILED, cap_error, fallback)
                )
                continue
            try:
                regrouped = self._reroute(batch, fallback)
            except ShardError as routing_exc:
                terminal.append((batch, str(routing_exc)))
                outcomes.extend(
                    self._outcomes(
                        batch, None, STATUS_SHARD_FAILED, str(routing_exc), fallback
                    )
                )
                continue
            rerouted.append(batch)
            for retry in regrouped:
                retries_by_target.setdefault(retry.shard_id, []).append(retry)
        # The dead shard's log records what happened to its unfinished
        # work: rerouted batches as a retried marker window (terminal
        # leaves land on the survivor's chain), dead-end batches as an
        # aborted shard-failed window.
        self._commit(
            shard.shard_id,
            rerouted,
            [None] * len(rerouted),
            status=STATUS_RETRIED,
            aborted=True,
            error=str(exc),
        )
        self._commit(
            shard.shard_id,
            [batch for batch, _ in terminal],
            [None] * len(terminal),
            status=STATUS_SHARD_FAILED,
            aborted=True,
            error="; ".join(dict.fromkeys(err for _, err in terminal)) or None,
        )
        # Retries share one window per surviving shard, so re-dispatched
        # batches keep the staged pipeline's cross-batch overlap.
        for target in sorted(retries_by_target):
            outcomes.extend(self._dispatch_on(target, retries_by_target[target]))
        return outcomes

    def _prune_exhausted(
        self, batch: ScheduledBatch, fallback: float
    ) -> tuple[ScheduledBatch | None, ScheduledBatch | None, int]:
        """Split a failed batch into (retryable, budget-exhausted) halves.

        A request whose class deadline (``arrival + budget``) has already
        passed at the failure frontier cannot complete in budget no matter
        which survivor serves it — retrying would spend a healthy shard's
        serialized enclave on a guaranteed SLO miss.  The deadline check
        is additionally *floor-aware*: once the pool has measured a
        minimum per-batch service span, a request whose remaining budget
        at the frontier is smaller than that floor is shed too — its
        deadline has not passed yet, but no survivor can physically
        finish it in time (counted separately in
        :attr:`retries_skipped_floor`).  Either half may be ``None``;
        without an SLO policy the batch is returned untouched (infinite
        budgets never expire).  The third element counts the requests
        shed by the floor rather than the bare deadline.
        """
        if self.slo is None:
            return batch, None, 0
        floor = self._service_floor if math.isfinite(self._service_floor) else 0.0
        hard_expired = 0
        expired = []
        for req in batch.requests:
            deadline = req.arrival_time + self.slo.budget_for(req.tenant)
            if deadline <= fallback:
                expired.append(req)
                hard_expired += 1
            elif deadline <= fallback + floor:
                expired.append(req)
        if not expired:
            return batch, None, 0
        floor_shed = len(expired) - hard_expired
        expired_ids = {id(req) for req in expired}
        alive = [req for req in batch.requests if id(req) not in expired_ids]
        expired_batch = dataclasses.replace(batch, requests=expired)
        if not alive:
            return None, expired_batch, floor_shed
        return dataclasses.replace(batch, requests=alive), expired_batch, floor_shed

    def _reroute(
        self, batch: ScheduledBatch, not_before: float
    ) -> list[ScheduledBatch]:
        """Split a failed batch by each tenant's *new* pin and re-target it.

        A coalesced batch can mix tenants whose sessions migrated to
        different survivors; every request must retry on the shard its
        re-attested session now terminates on, so the batch splits into
        one retry batch per target shard (all sharing the original batch
        id — it is still the same scheduled batch, served in pieces).
        ``not_before`` is the dead shard's failure frontier on the
        simulated clock: the retry cannot be released before the failure
        that caused it was observable, so failover cost shows up honestly
        in the latency percentiles.
        """
        groups: dict[int, list] = {}
        for request in batch.requests:
            groups.setdefault(self.router.shard_for(request.tenant), []).append(request)

        def _remaining_deadline(requests: list) -> float | None:
            # The retry inherits the survivors' remaining SLO budget as
            # its deadline (arrival + budget is absolute, so whatever is
            # left at the frontier is exactly what the retry may spend),
            # never the window's static flush deadline.
            if self.slo is None:
                return None
            return min(
                req.arrival_time + self.slo.budget_for(req.tenant)
                for req in requests
            )

        return [
            ScheduledBatch(
                batch_id=batch.batch_id,
                requests=requests,
                flush_time=max(batch.flush_time, not_before),
                trigger=batch.trigger,
                slots=batch.slots,
                shard_id=target,
                retries=batch.retries + 1,
                deadline=_remaining_deadline(requests),
            )
            for target, requests in sorted(groups.items())
        ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _observe_service_spans(self, groups) -> None:
        """Tighten the measured per-batch service-time floor."""
        for group in groups:
            span = group.finish - group.start
            if span > 0:
                self._service_floor = min(self._service_floor, span)

    @property
    def service_floor(self) -> float:
        """Minimum observed per-batch service span (``inf`` before any
        successful window)."""
        return self._service_floor

    def _account(self, stats) -> None:
        for stage, seconds in stats.stage_totals.items():
            self._stage_totals[stage] = self._stage_totals.get(stage, 0.0) + seconds
        self.busy_time += stats.enclave_busy

    def _outcomes(
        self,
        batch: ScheduledBatch,
        group,
        status: str,
        error: str | None,
        fallback: float,
    ) -> list[RequestOutcome]:
        outcomes = []
        for i, req in enumerate(batch.requests):
            row = group.output[i] if group is not None else None
            outcomes.append(
                RequestOutcome(
                    request_id=req.request_id,
                    tenant=req.tenant,
                    status=status,
                    arrival_time=req.arrival_time,
                    dispatch_time=(
                        group.start if group is not None else batch.flush_time
                    ),
                    completion_time=(
                        group.finish if group is not None else fallback
                    ),
                    batch_id=batch.batch_id,
                    logits=row,
                    prediction=int(np.argmax(row)) if row is not None else None,
                    error=error,
                )
            )
        return outcomes

    def stage_totals(self) -> dict[str, float]:
        """Cumulative simulated seconds per stage across all shards."""
        return dict(self._stage_totals)
