"""The multi-tenant private-inference server (offline trace driver).

Composes the serving subsystem end to end::

    trace -> Membership (router pins tenant -> unit; attest once per
             tenant on that unit's entry enclave)
          -> admission (one bound on queued + in flight, deployment-wide)
          -> per-unit RequestQueue (tenant-fair draining)
          -> ShardedBatchScheduler (coalesce per shard, size-or-deadline)
          -> InferenceWorkerPool (per-shard staged pipelines on parallel
             enclave timelines; mesh-verified session failover when a
             shard dies)
          -> ServerMetrics / ServingReport

The deployment runs ``darknight.num_shards`` :class:`EnclaveShard` s —
each its own enclave + GPU cluster + serialized timeline — behind one
scheduler; an :class:`AttestationMesh` pairwise-verifies every shard at
startup so sessions can migrate on failure.  Every ``N`` consecutive
shards (``N = 1`` unless ``partition="layered:N"``) form one routing
unit, and everything kept *per unit* (its :class:`PipelineGroup`
executor, queue, scheduler, sessions) lives in one
:class:`~repro.serving.unit.ServingUnit`.  The server builds units;
:class:`~repro.serving.membership.Membership` is the one place they join
or leave — a whole unit at a time, and by one exit whether the unit is
scaled in or failed over.  A shard's service life is stamped on the
shard itself (``provisioned_at``, ``retired_at``, ``failed_at``): the
mesh keeps only links, the router only routing, the autoscaler only its
decisions, and the report's shard-seconds and failover count are read
off the shards.  Serving always uses per-sample normalization, so a
request's logits are bit-identical at every shard count, pipeline depth,
and coalescing mix.

There is no network dependency: :meth:`PrivateInferenceServer.serve_trace`
replays a time-stamped request trace against a simulated clock, firing
deadline flushes exactly when a live server's timer would have.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.audit import AuditTrail
from repro.comm import LinkModel
from repro.enclave import EPC_USABLE_BYTES
from repro.errors import ConfigurationError, ShardError
from repro.nn import Sequential
from repro.serving.adaptive import (
    EPC_HEADROOM,
    AdaptiveFlushPolicy,
    epc_fitting_batch_size,
    estimate_slot_bytes,
)
from repro.serving.autoscale import (
    ACTION_SCALE_IN,
    ACTION_SCALE_OUT,
    ShardAutoscaler,
    shard_ledger,
)
from repro.serving.config import ServingConfig
from repro.serving.membership import Membership
from repro.serving.metrics import ServerMetrics
from repro.serving.queue import RequestQueue
from repro.serving.requests import (
    STATUS_EVICTED,
    STATUS_MALFORMED,
    STATUS_SHARD_FAILED,
    STATUS_SHED,
    PendingRequest,
    RequestOutcome,
)
from repro.serving.scheduler import ShardedBatchScheduler, VirtualBatchScheduler
from repro.serving.session import SessionManager
from repro.serving.trace import TraceRequest
from repro.serving.unit import ServingUnit
from repro.serving.worker import InferenceWorkerPool
from repro.sharding import (
    AttestationMesh,
    EnclaveShard,
    LayerPartitionPlanner,
    PartitionSpec,
    PipelineGroup,
    ShardRouter,
)

#: Sentinel meaning "run until every queued request has drained".
_DRAIN = float("inf")


@dataclass
class ServingReport:
    """What a serving run produced: outcomes plus aggregate statistics."""

    outcomes: list[RequestOutcome]
    metrics: ServerMetrics
    handshakes: int
    tenants: list[str]
    link_bytes: int
    shards: int = 1
    failovers: int = 0
    migrations: int = 0
    #: Failover retries skipped because the class budget was exhausted.
    retries_skipped_budget: int = 0
    #: Failover retries shed because the remaining budget could not cover
    #: the measured per-batch service-time floor.
    retries_skipped_floor: int = 0
    #: How the model mapped onto the shards (``replicated``/``layered:N``).
    partition: str = "replicated"
    #: Per-shard learned-policy telemetry (None entries = static shards).
    adaptive: list | None = None
    #: Per-shard audit chain heads (``None`` when auditing is disabled).
    audit_roots: dict[int, str] | None = None
    #: Elastic-membership telemetry (``None`` when autoscaling is off).
    autoscale: dict | None = None
    #: Mask-pool / weight-cache telemetry (``None`` when precompute off).
    precompute: dict | None = None

    @property
    def completed(self) -> list[RequestOutcome]:
        """Outcomes that produced a verified prediction."""
        return [o for o in self.outcomes if o.ok]

    def render(self) -> str:
        """The metrics table plus session- and shard-layer facts."""
        lines = [self.metrics.render()]
        lines.append(
            f"sessions: {len(self.tenants)} tenants,"
            f" {self.handshakes} attestation handshakes,"
            f" {self.link_bytes:,} link bytes"
        )
        lines.append(
            f"shards: {self.shards} enclave shard(s),"
            f" partition {self.partition},"
            f" {self.failovers} failovers,"
            f" {self.migrations} session migrations"
            + (
                f", {self.retries_skipped_budget} retries skipped (budget)"
                if self.retries_skipped_budget
                else ""
            )
            + (
                f", {self.retries_skipped_floor} retries shed (service floor)"
                if self.retries_skipped_floor
                else ""
            )
        )
        if self.autoscale is not None:
            lines.append(
                f"autoscale: {self.autoscale['scale_outs']} scale-outs,"
                f" {self.autoscale['scale_ins']} scale-ins,"
                f" peak {self.autoscale['peak_shards']} shards,"
                f" {self.autoscale['shard_seconds']:.3f} shard-seconds"
            )
        if self.precompute is not None:
            hit_rate = self.precompute["hit_rate"]
            lines.append(
                "precompute: pool hit rate "
                + ("n/a" if hit_rate is None else f"{hit_rate:.3f}")
                + f", {self.precompute['refills']} refills,"
                f" {self.precompute['pooled_bytes_peak']:,} bytes pooled (peak),"
                f" {self.precompute['weights_reused']} weight reuses"
            )
        if self.audit_roots is not None:
            heads = ", ".join(
                f"shard {sid}: {root[:12]}…"
                for sid, root in sorted(self.audit_roots.items())
            )
            lines.append(f"audit chain heads: {heads}")
        learned = [snap for snap in (self.adaptive or []) if snap is not None]
        if learned:
            waits = ", ".join(
                "n/a" if s["current_wait"] is None else f"{s['current_wait'] * 1e3:.2f}ms"
                for s in learned
            )
            lines.append(f"adaptive: learned deadline(s) {waits}")
        return "\n".join(lines)


class PrivateInferenceServer:
    """Serves masked inference to many tenants over sharded trusted stacks.

    Parameters
    ----------
    network:
        The trained model all tenants query.
    config:
        Serving parameters; :attr:`ServingConfig.darknight` sizes each
        enclave/GPU shard and sets the shard count.

    Every shard provisions its own enclave and GPU cluster.  A device is
    made byzantine after construction, by setting
    ``server.shards[i].cluster[j].faults``.
    """

    def __init__(
        self,
        network: Sequential,
        config: ServingConfig | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        dk = self.config.darknight
        autoscale = self.config.autoscale
        if autoscale is not None:
            # num_shards becomes the *initial* count, clamped into the
            # autoscaler's bounds.
            initial = min(
                max(dk.num_shards, autoscale.min_shards), autoscale.max_shards
            )
            if initial != dk.num_shards:
                dk = dataclasses.replace(dk, num_shards=initial)
        # Every configuration error must fire *before* the provisioning
        # loop below: a failed construction may never leak attested
        # enclaves (or their GPU clusters) it cannot hand back.
        partition = PartitionSpec.parse(self.config.partition)
        n = partition.n_stages
        # Membership only ever changes by whole units of ``n`` shards, so
        # every shard count the deployment can be told to hold must be one.
        counts = {"num_shards": dk.num_shards}
        if autoscale is not None:
            counts["autoscale.min_shards"] = autoscale.min_shards
            counts["autoscale.max_shards"] = autoscale.max_shards
        for name, count in counts.items():
            if count % n != 0:
                raise ConfigurationError(
                    f"partition {partition} serves in units of {n} shards:"
                    f" {name} must be divisible by {n}, got {count}"
                )
        n_units = dk.num_shards // n
        # Planning needs only the network, so an impossible cut count
        # (more stages than plan steps) fails before provisioning.
        stage_ranges = LayerPartitionPlanner(network, self.config.stage_costs).plan(n)
        # Fit K to the EPC budget *before* provisioning, once: the enclave
        # encodes (and pads) at the provisioned K, so this is the one
        # place the budget can shrink the working set.
        fit = epc_fitting_batch_size(
            dk.virtual_batch_size,
            estimate_slot_bytes(network),
            int((dk.epc_budget_bytes or EPC_USABLE_BYTES) * EPC_HEADROOM),
            dk.collusion_tolerance,
            dk.extra_shares,
            dk.pipeline_depth,
        )
        if fit < dk.virtual_batch_size:
            dk = dataclasses.replace(dk, virtual_batch_size=fit)
        self.link = LinkModel()
        #: The effective (possibly EPC-clamped) DarKnight parameters.
        self.darknight = dk
        #: Kept for elastic scale-out: new shards provision the same model.
        self.network = network
        #: The elastic control loop (``None`` unless ``config.autoscale``).
        self.autoscaler = (
            ShardAutoscaler(autoscale, shards_per_unit=n)
            if autoscale is not None
            else None
        )
        #: The parsed partition mode and each member's plan range.
        self.partition = partition
        self.stage_ranges = stage_ranges
        #: The verifiable audit trail (``None`` unless ``config.audit``).
        self.audit: AuditTrail | None = None
        if self.config.audit is not None:
            self.audit = AuditTrail(
                self.config.audit,
                darknight=dk,
                num_shards=dk.num_shards,
                partition=str(partition),
            )
        shards = [self._provision(shard_id) for shard_id in range(dk.num_shards)]
        self.mesh = AttestationMesh(
            shards, expected_code_identity=self.config.code_identity
        )
        self.router = ShardRouter(n_units, self.config.slo)
        #: Every routing unit ever deployed, indexed by unit id (retired
        #: ones stay in place).  Membership, the scheduler and the pool
        #: below share this list; only :meth:`_add_unit` grows it.
        self.units: list[ServingUnit] = []
        self._batch_ids = itertools.count()
        for unit_id in range(n_units):
            self._add_unit(unit_id, shards[unit_id * n : (unit_id + 1) * n])
        self.membership = Membership(self.units, self.router, self.mesh, self.audit)
        self.scheduler = ShardedBatchScheduler(self.units)
        self.pool = InferenceWorkerPool(self.membership, self.config.slo, audit=self.audit)
        #: Every request's terminal outcome, in the order requests ended:
        #: the one account :attr:`metrics` reads.
        self._outcomes: list[RequestOutcome] = []
        self.metrics = ServerMetrics(
            self._outcomes, self.config.slo, audit=self.audit, units=self.units
        )
        self._next_request_id = 0
        # Completion times of dispatched requests, for in-flight accounting.
        self._inflight: list[float] = []
        #: The trace replay's simulated clock (drives autoscale timing).
        self._clock = 0.0

    @property
    def shards(self) -> list[EnclaveShard]:
        """Every physical shard ever provisioned, in shard-id order."""
        return [shard for unit in self.units for shard in unit.shards]

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def serve_trace(self, trace: Iterable[TraceRequest]) -> ServingReport:
        """Replay a request trace to completion and report.

        Arrivals are processed in time order; between consecutive
        arrivals any pending deadline flush fires at its exact deadline.
        After the last arrival the queues drain deadline-by-deadline, so
        every admitted request completes.
        """
        events = sorted(trace, key=lambda r: r.time)
        now = 0.0
        for event in events:
            now = max(now, event.time)
            self._clock = max(self._clock, now)
            self._run_batches(self.scheduler.collect_expired(now), now)
            self._autoscale_tick(now)
            self._admit(event, now)
            self._run_batches(self.scheduler.collect_ready(now), now)
        self._run_batches(self.scheduler.collect_expired(_DRAIN), now)
        return self.report()

    # ------------------------------------------------------------------
    # membership: building units; Membership changes who serves
    # ------------------------------------------------------------------
    def _live_shards(self) -> list[EnclaveShard]:
        """Shards currently serving traffic (a draining unit's included)."""
        return [s for s in self.shards if s.healthy]

    def _provision(self, shard_id: int, now: float = 0.0) -> EnclaveShard:
        """Stand up one physical shard's trusted stack for this deployment."""
        return EnclaveShard.provision(
            shard_id,
            self.network,
            self.darknight,
            code_identity=self.config.code_identity,
            stage_costs=self.config.stage_costs,
            link=self.link,
            provisioned_at=now,
            precompute=self.config.precompute,
        )

    def _add_unit(self, unit_id: int, shards: list[EnclaveShard]) -> ServingUnit:
        """Put one routing unit into service around mesh-attested shards.

        The only place per-unit serving state is built — at construction
        and at scale-out alike: the executor (a :class:`PipelineGroup`
        chaining ``shards``, one per stage range), its queue, its
        scheduler with its own flush policy, and its session manager.
        ``unit_id`` is the id the
        router pins tenants to; the handshake randomness is drawn from
        ``seed + unit_id``, so a deployment that grew to ``n`` units
        handshakes identically to one constructed with ``n``.
        """
        dk = self.darknight
        # Hop channels key against the mesh: every consecutive member
        # pair was pairwise-attested before this.
        executor = PipelineGroup(
            unit_id,
            shards,
            self.stage_ranges,
            self.mesh,
            link=self.link,
            seed=dk.seed if dk.seed is not None else 0,
        )
        batch_size = dk.virtual_batch_size if self.config.coalesce else 1
        policy = None
        if self.config.adaptive:
            policy = AdaptiveFlushPolicy(
                batch_size,
                self.config.max_batch_wait,
                # Tenants pin to units at runtime, so no unit may learn a
                # wait the most demanding class could land on and violate.
                budget_ceiling=self.config.slo.tightest_flush_budget(),
            )
        queue = RequestQueue(self.config.slo)
        unit = ServingUnit(
            executor=executor,
            queue=queue,
            scheduler=VirtualBatchScheduler(
                queue,
                batch_size,
                self.config.max_batch_wait,
                slots=dk.virtual_batch_size,
                shard_id=unit_id,
                id_source=self._batch_ids,
                policy=policy,
            ),
            sessions=SessionManager(
                executor.enclave,
                link=self.link,
                expected_code_identity=self.config.code_identity,
                rng=np.random.default_rng(
                    None if dk.seed is None else dk.seed + unit_id
                ),
                shard_id=unit_id,
            ),
        )
        self.units.append(unit)
        return unit

    def provision_shard(self, now: float = 0.0) -> int:
        """Scale out: bring one new serving unit into the live deployment.

        A unit is ``partition.n_stages`` enclave shards (one, unless
        layered), provisioned here and joined through
        :meth:`~repro.serving.membership.Membership.join`.  Logits are
        unaffected by construction: per-sample normalization makes every
        response independent of which unit (and which co-batch) served
        it.  Returns the new unit's id.
        """
        n = self.partition.n_stages
        unit_id = len(self.units)
        shards = [self._provision(unit_id * n + k, now) for k in range(n)]
        return self.membership.join(shards, self._add_unit, now).unit_id

    def decommission_shard(
        self, shard_id: int | None = None, now: float = 0.0
    ) -> int:
        """Scale in: retire the least-loaded live unit (or unit ``shard_id``).

        Raises :class:`~repro.errors.ShardError` when the named unit is
        not live, when removal would leave no serving unit, or when the
        unit died during its own drain flush (a failover took it out
        instead).
        """
        live = [u for u in self.units if u.executor.healthy]
        if len(live) <= 1:
            # Judged on the executors, not the router: a shard that died
            # unnoticed still looks routable to the ring.
            raise ShardError("cannot remove the last serving shard")
        if shard_id is None:
            loads = self.router.loads()
            victim = min(
                live, key=lambda u: (u.queue.depth, loads[u.unit_id], -u.unit_id)
            )
        else:
            victim = next((u for u in live if u.unit_id == shard_id), None)
            if victim is None:
                raise ShardError(f"shard {shard_id} is not live; cannot drain")
        self.router.begin_drain(victim.unit_id)
        if self.audit is not None:
            # Chain the wind-down *before* the final flush: every window
            # after this entry is the drain itself.
            for shard in victim.shards:
                self.audit.record_membership("drain", shard.shard_id, now)
        # Flush the victim's pending windows through its own pipeline
        # (these commit to its audit chains like any other window).
        self._run_batches(victim.scheduler.drain(now), now)
        state, _ = self.membership.leave(victim, now)
        if state != "retired":
            raise ShardError(
                f"shard {victim.unit_id} failed during its drain; failed over"
            )
        return victim.unit_id

    def _autoscale_tick(self, now: float) -> None:
        """Run one control-loop evaluation and execute its decision."""
        if self.autoscaler is None:
            return
        live = [u for u in self.units if u.executor.healthy]
        if not live:
            return
        depths = {u.unit_id: u.queue.depth for u in live}
        busy = {u.unit_id: u.executor.busy_time for u in live}
        action, reason = self.autoscaler.evaluate(now, depths, busy)
        if action == ACTION_SCALE_OUT:
            shard_id = self.provision_shard(now)
        elif action == ACTION_SCALE_IN:
            try:
                shard_id = self.decommission_shard(now=now)
            except ShardError:
                # No victim, or it died in its own drain: not a scale-in.
                return
        else:
            return
        self.autoscaler.record(
            action, shard_id, len(self._live_shards()), now, reason
        )

    def _inflight_at(self, now: float) -> int:
        """Dispatched requests whose (simulated) completion is still ahead."""
        while self._inflight and self._inflight[0] <= now:
            heapq.heappop(self._inflight)
        return len(self._inflight)

    def _admit(self, event: TraceRequest, now: float) -> None:
        """Route one arrival, apply the admission bound, then decrypt and
        queue it — a shed arrival never enters the enclave.

        A total outage (every shard failed) turns the arrival into a
        ``shard_failed`` outcome instead of crashing the trace replay, and
        a sample the model cannot take (:meth:`_malformed`) is shed at the
        door — before it could fail the virtual batch it would share.
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        try:
            x = np.asarray(event.x, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            problem = f"sample is not a numeric array ({exc})"
        else:
            problem = self._malformed(x)
        if problem is not None:
            self._end_unserved(
                request_id,
                event.tenant,
                now,
                STATUS_MALFORMED,
                f"malformed request: {problem}",
            )
            return
        try:
            shard_id = self.router.shard_for(event.tenant)
        except ShardError as exc:
            self._end_unserved(request_id, event.tenant, now, STATUS_SHARD_FAILED, str(exc))
            return
        unit = self.units[shard_id]
        session = unit.sessions.connect(event.tenant)
        # The tenant seals the request before the host can shed it; the
        # enclave opens only what the deployment admits.
        sealed = session.encrypt_request(x)
        # Admitted-but-incomplete = queued (all units) + in flight behind
        # busy workers; bounding their sum is the deployment's one
        # admission bound, and what keeps worst-case latency finite when
        # the offered load exceeds pipeline capacity.  A full deployment
        # first evicts the newest lowest-priority pending request (across
        # every unit queue) rather than shed a higher-priority arrival.
        if self._inflight_at(now) + self.scheduler.queued >= self.config.queue_capacity:
            victim = self._evict_for(event.tenant)
            if victim is None:
                self._end_unserved(
                    request_id,
                    event.tenant,
                    now,
                    STATUS_SHED,
                    f"{len(self._inflight)} requests in flight and"
                    f" {self.scheduler.queued} queued >= capacity"
                    f" {self.config.queue_capacity}; shedding request"
                    f" {request_id} from {event.tenant!r}",
                )
                return
            self._end_unserved(
                victim.request_id,
                victim.tenant,
                victim.arrival_time,
                STATUS_EVICTED,
                f"evicted for higher-priority request {request_id}"
                f" from {event.tenant!r}",
            )
        request = PendingRequest(
            request_id=request_id,
            tenant=event.tenant,
            x=session.decrypt_request(sealed),
            arrival_time=now,
        )
        unit.queue.push(request)
        unit.scheduler.observe_arrival(now)

    def _end_unserved(
        self, request_id: int, tenant: str, arrival: float, status: str, error: str
    ) -> None:
        """Record the terminal outcome of a request that reached no batch."""
        self._outcomes.append(
            RequestOutcome(request_id, tenant, status, arrival, error=error)
        )

    def _malformed(self, x: np.ndarray) -> str | None:
        """Why the model cannot take sample ``x``, or ``None`` when it can.

        A shape compare and one exact ``isfinite`` reduction — no
        ``np.errstate`` block around it, which alone cost more than the
        reduction.  The reduction raises no floating-point warning, so a
        huge but finite sample such as ``1e200`` passes.
        """
        expected = self.network.input_shape
        if x.shape != expected:
            return f"sample shape {x.shape} != model input shape {expected}"
        if not np.isfinite(x).all():
            return "sample holds NaN or infinite values"
        return None

    def _evict_for(self, tenant: str) -> PendingRequest | None:
        """Evict the best lower-priority victim across every shard queue.

        Candidates are compared with the queue's own ordering (lowest
        class priority, then newest), so the deployment
        sheds the globally least-defensible pending request.  ``None``
        when no pending request ranks strictly below ``tenant``'s arrival.
        """
        priority = self.config.slo.priority_for(tenant)
        best_queue = None
        best_key = None
        for unit in self.units:
            candidate = unit.queue.peek_eviction_candidate(priority)
            if candidate is None:
                continue
            if best_key is None or candidate[0] < best_key:
                best_key, best_queue = candidate[0], unit.queue
        if best_queue is None:
            return None
        return best_queue.evict_newest_below(priority)

    def _run_batches(self, batches, now: float) -> None:
        """Dispatch a window of flushed batches and account their outcomes.

        The whole window goes to the pool in one call so each shard's
        batches overlap inside that shard's staged pipeline (encode
        ``n+1`` while ``n`` computes), with different shards progressing
        on parallel timelines.  A response no live session can carry —
        the last healthy unit died later in the same window — ends
        ``shard_failed`` with the routing error: it never reaches its
        tenant.
        """
        if not batches:
            return
        for batch in batches:
            self.metrics.record_batch(batch)
        outcomes = self.pool.dispatch_window(list(batches))
        for i, outcome in enumerate(outcomes):
            heapq.heappush(self._inflight, outcome.completion_time)
            if outcome.ok:
                try:
                    session = self.membership.connect(outcome.tenant)
                except ShardError as exc:
                    outcomes[i] = dataclasses.replace(
                        outcome,
                        status=STATUS_SHARD_FAILED,
                        logits=None,
                        prediction=None,
                        error=str(exc),
                    )
                    continue
                envelope = session.encrypt_response(outcome.logits)
                session.decrypt_response(envelope)
        self._outcomes.extend(outcomes)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ServingReport:
        """Snapshot the run so far."""
        end = self._clock
        for outcome in self._outcomes:
            if outcome.completion_time is not None:
                end = max(end, outcome.completion_time)
        return ServingReport(
            outcomes=list(self._outcomes),
            metrics=self.metrics,
            handshakes=self.membership.handshakes,
            tenants=self.membership.active_tenants,
            link_bytes=self.link.total_bytes,
            shards=len(self.shards),
            failovers=sum(1 for u in self.units if u.shards[0].failed_at is not None),
            migrations=self.membership.migrations,
            retries_skipped_budget=self.pool.retries_skipped_budget,
            retries_skipped_floor=self.pool.retries_skipped_floor,
            partition=str(self.partition),
            adaptive=self.scheduler.policy_snapshots(),
            audit_roots=self.audit.chain_roots() if self.audit is not None else None,
            autoscale=(
                {
                    "evaluations": self.autoscaler.evaluations,
                    "scale_outs": self.metrics.scale_outs,
                    "scale_ins": self.metrics.scale_ins,
                    **shard_ledger(self.shards, end),
                    "events": [dataclasses.asdict(e) for e in self.autoscaler.events],
                }
                if self.autoscaler is not None
                else None
            ),
            precompute=self.metrics.precompute(),
        )
