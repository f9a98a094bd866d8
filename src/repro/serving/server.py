"""The multi-tenant private-inference server (offline trace driver).

Composes the serving subsystem end to end::

    trace -> ShardRouter (pin tenant -> enclave shard)
          -> ShardedSessionManager (attest once / tenant on its shard)
          -> per-shard RequestQueue (bounded, shed-load globally)
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
:class:`~repro.serving.unit.ServingUnit`; the server owns the single
list of them and is the only place membership changes — a whole unit at
a time.  Serving always
uses per-sample normalization, so a request's logits are bit-identical
at every shard count, pipeline depth, and coalescing mix.

There is no network dependency: :meth:`PrivateInferenceServer.serve_trace`
replays a time-stamped request trace against a simulated clock, firing
deadline flushes exactly when a live server's timer would have.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.audit import AuditTrail
from repro.comm import LinkModel
from repro.enclave import EPC_USABLE_BYTES, Enclave
from repro.errors import (
    AttestationError,
    BackpressureError,
    ConfigurationError,
    QuotaExceededError,
    ShardError,
)
from repro.gpu import GpuCluster
from repro.nn import Sequential
from repro.serving.adaptive import (
    AdaptiveFlushPolicy,
    epc_fitting_batch_size,
    estimate_slot_bytes,
)
from repro.serving.autoscale import (
    ACTION_SCALE_IN,
    ACTION_SCALE_OUT,
    ShardAutoscaler,
)
from repro.serving.config import ServingConfig
from repro.serving.metrics import (
    SHED_ADMISSION,
    SHED_EVICTED,
    SHED_QUOTA,
    ServerMetrics,
)
from repro.serving.queue import RequestQueue
from repro.serving.requests import (
    STATUS_SHARD_FAILED,
    STATUS_SHED,
    PendingRequest,
    RequestOutcome,
)
from repro.serving.scheduler import ShardedBatchScheduler, VirtualBatchScheduler
from repro.serving.session import SessionManager, ShardedSessionManager
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
            lines.append(
                f"adaptive: K={learned[0]['batch_size']}"
                f" (base {learned[0]['base_batch_size']}),"
                f" learned deadline(s) {waits}"
            )
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
    cluster:
        Optionally inject a cluster (e.g. with fault injectors) — the
        integrity tests serve through a byzantine GPU this way.  Only
        valid with ``num_shards=1`` (a multi-shard deployment provisions
        one cluster per shard).
    enclave:
        Optionally inject a pre-provisioned enclave (``num_shards=1``
        only, for the same reason).
    """

    def __init__(
        self,
        network: Sequential,
        config: ServingConfig | None = None,
        cluster: GpuCluster | None = None,
        enclave: Enclave | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        dk = self.config.darknight
        if self.config.reuse_coefficients and dk.fresh_coefficients:
            dk = dataclasses.replace(dk, fresh_coefficients=False)
        if not dk.per_sample_normalization and dk.dynamic_normalization:
            # Served logits must not depend on batch composition (and so
            # not on coalescing, pipelining, or shard routing choices).
            dk = dataclasses.replace(dk, per_sample_normalization=True)
        if self.config.precompute and not dk.precompute:
            dk = dataclasses.replace(dk, precompute=True)
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
        elastic_max = autoscale.max_shards if autoscale is not None else dk.num_shards
        if max(dk.num_shards, elastic_max) > 1 and (
            cluster is not None or enclave is not None
        ):
            raise ConfigurationError(
                "injected clusters/enclaves only compose with a single static"
                f" shard; got num_shards={dk.num_shards},"
                f" elastic max {elastic_max} — provision per-shard hardware"
                " through DarKnightConfig instead"
            )
        if (
            self.config.shard_weights is not None
            and len(self.config.shard_weights) != n_units
        ):
            raise ConfigurationError(
                f"need one shard weight per routing unit:"
                f" {len(self.config.shard_weights)} weights for"
                f" {n_units} units"
            )
        self._slot_bytes = estimate_slot_bytes(network)
        if self.config.adaptive is not None:
            # Size K against the EPC budget *before* provisioning: the
            # enclave encodes (and pads) at the provisioned K, so only a
            # construction-time clamp actually shrinks the working set.
            budget = int(
                (dk.epc_budget_bytes or EPC_USABLE_BYTES)
                * self.config.adaptive.epc_headroom
            )
            fit = epc_fitting_batch_size(
                dk.virtual_batch_size,
                self._slot_bytes,
                budget,
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
        self.autoscale_config = autoscale
        self.autoscaler = ShardAutoscaler(autoscale, shards_per_unit=n)
        #: The parsed partition mode and each member's plan range.
        self.partition = partition
        self.stage_ranges = stage_ranges
        self.metrics = ServerMetrics(slo=self.config.slo)
        #: The verifiable audit trail (``None`` unless ``config.audit``).
        self.audit: AuditTrail | None = None
        if self.config.audit is not None:
            self.audit = AuditTrail(
                self.config.audit,
                darknight=dk,
                num_shards=dk.num_shards,
                on_commit=self.metrics.record_commit,
            )
        shards = [
            self._provision(
                shard_id,
                cluster=cluster if shard_id == 0 else None,
                enclave=enclave if shard_id == 0 else None,
            )
            for shard_id in range(dk.num_shards)
        ]
        self.mesh = AttestationMesh(
            shards, expected_code_identity=self.config.code_identity
        ).establish()
        self.router = ShardRouter(
            n_units,
            weights=(
                list(self.config.shard_weights)
                if self.config.shard_weights is not None
                else None
            ),
            slo=self.config.slo,
        )
        #: Every routing unit ever deployed, indexed by unit id (retired
        #: ones stay in place).  The scheduler, session manager and pool
        #: below share this list; only :meth:`_add_unit` grows it.
        self.units: list[ServingUnit] = []
        self._batch_ids = itertools.count()
        for unit_id in range(n_units):
            self._add_unit(unit_id, shards[unit_id * n : (unit_id + 1) * n])
        self.sessions = ShardedSessionManager(self.units, self.router, self.mesh)
        self.scheduler = ShardedBatchScheduler(self.units)
        self.pool = InferenceWorkerPool(
            self.units,
            self.router,
            sessions=self.sessions,
            on_feedback=(
                self.scheduler.observe_feedback
                if self.config.adaptive is not None
                else None
            ),
            slo=self.config.slo,
            audit=self.audit,
        )
        self._outcomes: list[RequestOutcome] = []
        self._next_request_id = 0
        # Completion times of dispatched requests, for in-flight accounting.
        self._inflight: list[float] = []
        #: The trace replay's simulated clock (drives autoscale timing).
        self._clock = 0.0
        self._apply_epc_pool()

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
            self._run_batches(self.scheduler.collect_expired(now))
            self._autoscale_tick(now)
            self._admit(event, now)
            self._run_batches(self.scheduler.collect_ready(now))
        self._run_batches(self.scheduler.collect_expired(_DRAIN))
        return self.report()

    # ------------------------------------------------------------------
    # membership: the one collection of units, and the one way to change it
    # ------------------------------------------------------------------
    def _live_shards(self) -> list[EnclaveShard]:
        """Shards currently serving traffic (draining included)."""
        return [s for s in self.shards if s.healthy]

    def _provision(
        self,
        shard_id: int,
        now: float = 0.0,
        cluster: GpuCluster | None = None,
        enclave: Enclave | None = None,
    ) -> EnclaveShard:
        """Stand up one physical shard's trusted stack for this deployment."""
        shard = EnclaveShard.provision(
            shard_id,
            self.network,
            self.darknight,
            code_identity=self.config.code_identity,
            stage_costs=self.config.stage_costs,
            cluster=cluster,
            enclave=enclave,
            link=self.link,
        )
        shard.provisioned_at = now
        return shard

    def _add_unit(
        self, unit_id: int, shards: list[EnclaveShard], now: float = 0.0
    ) -> ServingUnit:
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
        if self.config.adaptive is not None:
            slo = self.config.slo
            policy = AdaptiveFlushPolicy(
                batch_size,
                self.config.max_batch_wait,
                config=self.config.adaptive,
                slot_bytes=self._slot_bytes,
                epc_budget_bytes=dk.epc_budget_bytes or EPC_USABLE_BYTES,
                collusion_tolerance=dk.collusion_tolerance,
                extra_shares=dk.extra_shares,
                pipeline_depth=dk.pipeline_depth,
                # Tenants pin to units at runtime, so no unit may learn a
                # wait the most demanding class could land on and violate.
                budget_ceiling=slo.tightest_flush_budget() if slo is not None else None,
            )
        queue = RequestQueue(self.config.queue_capacity, slo=self.config.slo)
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
        for shard in shards:
            self.autoscaler.note_provisioned(shard.shard_id, now)
        return unit

    def provision_shard(self, now: float = 0.0) -> int:
        """Scale out: bring one new serving unit into the live deployment.

        A unit is ``partition.n_stages`` enclave shards (one, unless
        layered).  The join is end to end: insert the new unit's virtual
        nodes into the consistent-hash ring (bounded tenant re-pinning;
        the router allocates the unit id), provision its shards' trusted
        stacks, attest each incrementally against the live mesh members,
        build the serving unit, migrate the re-pinned tenants' attested
        sessions over the mesh, re-home their already-queued requests,
        and open every member's audit log when the trail is on.  Logits
        are unaffected by construction: per-sample normalization makes
        every response independent of which unit (and which co-batch)
        served it.  Returns the new unit's id.
        """
        asc = self.autoscale_config
        unit_id, remap = self.router.add_shard(
            max_migrations=asc.max_session_migrations if asc is not None else None
        )
        n = self.partition.n_stages
        shards = [self._provision(unit_id * n + k, now) for k in range(n)]
        for shard in shards:
            self.mesh.extend(shard)
        unit = self._add_unit(unit_id, shards, now)
        try:
            self.sessions.migrate(remap, now)
        except AttestationError:
            # Refused: a re-pinned tenant's old unit died before the
            # newcomer could attest against it.  Its stale session is
            # dropped below and the tenant re-attests at next contact.
            pass
        # Already-admitted requests follow their tenant's new pin so the
        # new unit takes load immediately (and the old unit's queue
        # stops aging work it no longer owns).
        for tenant in remap:
            for source in self.units[:-1]:
                source.sessions.drop(tenant)
                moved = source.queue.extract_tenant(tenant)
                if moved:
                    unit.queue.absorb(moved)
        if self.audit is not None:
            # The join is chain-visible: each new shard's service life
            # opens with a first-class membership entry on its own log.
            details = {"num_shards": len(self.shards)}
            for shard in shards:
                self.audit.add_shard(shard.shard_id)
                self.audit.record_membership(
                    "provision", shard.shard_id, now, details=details
                )
        self.metrics.record_scale(ACTION_SCALE_OUT)
        self._apply_epc_pool()
        self._invalidate_precompute()
        return unit_id

    def decommission_shard(
        self, shard_id: int | None = None, now: float = 0.0
    ) -> int:
        """Scale in: retire the least-loaded live unit (or unit ``shard_id``).

        Raises :class:`~repro.errors.ShardError` when the named unit is
        not live or removal would leave no serving unit.
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
        self._retire_unit(victim, now)
        return victim.unit_id

    def _retire_unit(self, unit: ServingUnit, now: float) -> None:
        """Drain-before-kill: flush, migrate, then retire one unit.

        The unit first stops receiving new tenants (router drain), then
        its queued windows flush through its own pipeline —
        audit-committed when the trail is on — then its tenants re-place
        through the ring and their attested sessions migrate over the
        still-verified mesh links, and only then is every member shard
        decommissioned (mesh, audit chain, shard-seconds ledger).  A
        refused migration (unverified link) degrades safely: the unit's
        sessions are dropped and each tenant re-attests on its new unit
        at next contact.  The unit stays in :attr:`units` — its state
        reads ``retired`` from here on, which is all the scheduler,
        sessions and pool look at.
        """
        vid, victim = unit.unit_id, unit.executor
        self.router.begin_drain(vid)
        victim.begin_drain()
        if self.audit is not None:
            # Chain the wind-down *before* the final flush: every window
            # after this entry is the drain itself.
            for shard in unit.shards:
                self.audit.record_membership("drain", shard.shard_id, now)
        # Flush the victim's pending windows through its own pipeline
        # (these commit to its audit chains like any other window).
        self._run_batches(unit.scheduler.drain(now))
        if not victim.healthy:
            # Died mid-flush: the failover path already migrated its
            # sessions and re-pinned its tenants; nothing left to drain.
            return
        remap = self.router.remove_shard(vid)
        try:
            self.sessions.migrate(remap, now)
        except AttestationError:
            # Refused migration: tenants re-attest lazily on their new
            # unit; the sessions left behind are dropped just below.
            pass
        for tenant in unit.sessions.active_tenants:
            unit.sessions.drop(tenant)
        victim.decommission(now)
        for shard in unit.shards:
            self.mesh.retire(shard.shard_id)
            self.autoscaler.note_retired(shard.shard_id, now)
            if self.audit is not None:
                # The chain's final word on the shard: retired, with its
                # lifetime dispatch count frozen into the event leaf.
                self.audit.record_membership(
                    "retire",
                    shard.shard_id,
                    now,
                    details={"batches_run": int(shard.batches_run)},
                )
        self.metrics.record_scale(ACTION_SCALE_IN)
        self._apply_epc_pool()
        self._invalidate_precompute()

    def _invalidate_precompute(self) -> None:
        """Drop every live shard's cached weight encodings.

        Called after each membership change: a provision or retire
        re-shapes routing and (under a shared EPC pool) the coalescing
        target, so cached per-layer encodings must be re-validated by
        the next window rather than trusted across the topology change.
        Mask pools are deliberately untouched — their counters must keep
        advancing for pooled/inline bit-identity.
        """
        for shard in self._live_shards():
            shard.backend.invalidate_precompute()

    def _precompute_report(self) -> dict | None:
        """Aggregate pool/weight-cache telemetry across live shards.

        Counts sum; the hit rate is recomputed from the summed draws
        (``None`` before any draw — strict-JSON, never ``NaN``); the
        occupancy averages over shards that have registered streams.
        ``None`` when no live backend runs in precompute mode.
        """
        snaps = [
            snap
            for shard in self._live_shards()
            if (snap := shard.backend.precompute_snapshot()) is not None
        ]
        if not snaps:
            return None
        agg = {
            key: sum(s[key] for s in snaps)
            for key in (
                "streams",
                "hits",
                "misses",
                "refills",
                "pooled_bytes",
                "pooled_bytes_peak",
                "weights_staged",
                "weights_reused",
                "cached_layers",
            )
        }
        draws = agg["hits"] + agg["misses"]
        agg["hit_rate"] = None if draws == 0 else agg["hits"] / draws
        occupancies = [s["occupancy"] for s in snaps if s["occupancy"] is not None]
        agg["occupancy"] = (
            None if not occupancies else sum(occupancies) / len(occupancies)
        )
        return agg

    def _apply_epc_pool(self) -> None:
        """Re-size ``K`` between windows against the shared EPC pool.

        With ``autoscale.epc_pool_bytes`` set, the deployment's EPC is a
        shared budget: fewer live shards each get a larger slice (larger
        coalescing target), more shards a smaller one.  The cap only ever
        *shrinks* batches below the provisioned ``K`` — the enclaves
        encode at the provisioned size, so per-sample normalization keeps
        logits bit-identical at every cap.
        """
        asc = self.autoscale_config
        if asc is None or asc.epc_pool_bytes is None:
            return
        headroom = (
            self.config.adaptive.epc_headroom
            if self.config.adaptive is not None
            else 0.9
        )
        per_shard = int(
            asc.epc_pool_bytes / max(1, len(self._live_shards())) * headroom
        )
        dk = self.darknight
        fit = epc_fitting_batch_size(
            dk.virtual_batch_size,
            self._slot_bytes,
            per_shard,
            dk.collusion_tolerance,
            dk.extra_shares,
            dk.pipeline_depth,
        )
        self.scheduler.set_batch_cap(
            fit if fit < dk.virtual_batch_size else None
        )

    def _autoscale_tick(self, now: float) -> None:
        """Run one control-loop evaluation and execute its decision."""
        if self.autoscale_config is None:
            return
        live = [u for u in self.units if u.executor.healthy]
        if not live:
            return
        depths = {u.unit_id: u.queue.depth for u in live}
        busy = {u.unit_id: u.executor.busy_time for u in live}
        attainment = self.metrics.slo_attainment()
        action, reason = self.autoscaler.evaluate(
            now,
            depths,
            busy,
            attainment=attainment if math.isfinite(attainment) else None,
        )
        if action == ACTION_SCALE_OUT:
            shard_id = self.provision_shard(now)
        elif action == ACTION_SCALE_IN:
            try:
                shard_id = self.decommission_shard(now=now)
            except ShardError:
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
        """Route, attest/decrypt one arrival and queue it (or shed it).

        A total outage (every shard failed) turns the arrival into a
        ``shard_failed`` outcome instead of crashing the trace replay.
        """
        try:
            shard_id = self.router.shard_for(event.tenant)
        except ShardError as exc:
            self._outcomes.append(
                RequestOutcome(
                    request_id=self._next_request_id,
                    tenant=event.tenant,
                    status=STATUS_SHARD_FAILED,
                    arrival_time=now,
                    error=str(exc),
                )
            )
            self._next_request_id += 1
            self.metrics.record_outcome(self._outcomes[-1])
            return
        unit = self.units[shard_id]
        session = unit.sessions.connect(event.tenant, now)
        x = np.asarray(event.x, dtype=np.float64)
        if self.config.encrypt_requests:
            x = session.decrypt_request(session.encrypt_request(x))
        request = PendingRequest(
            request_id=self._next_request_id,
            tenant=event.tenant,
            x=x,
            arrival_time=now,
            enqueue_time=now,
        )
        self._next_request_id += 1
        try:
            # Admitted-but-incomplete = queued (all shards) + in flight
            # behind busy workers; bounding their sum is what keeps
            # worst-case latency finite when the offered load exceeds
            # pipeline capacity.  Under an SLO policy a full deployment
            # first tries to evict the newest lowest-priority pending
            # request (across every shard queue) instead of shedding a
            # higher-priority arrival.
            if (
                self._inflight_at(now) + self.scheduler.queued
                >= self.config.queue_capacity
            ):
                victim = self._evict_for(request)
                if victim is None:
                    raise BackpressureError(
                        f"{len(self._inflight)} requests in flight and"
                        f" {self.scheduler.queued} queued >= capacity"
                        f" {self.config.queue_capacity}; shedding request"
                        f" {request.request_id} from {request.tenant!r}"
                    )
                self._record_eviction(victim, request)
            evicted = unit.queue.push(request)
            if evicted is not None:
                # Unreachable today: per-queue capacity equals the
                # deployment bound, so a full shard queue implies the
                # deployment check above already evicted from that very
                # queue.  Kept (not asserted away) so the accounting
                # stays correct if per-shard bounds ever shrink below
                # the deployment capacity.
                self._record_eviction(evicted, request)
            unit.scheduler.observe_arrival(now)
        except BackpressureError as exc:
            kind = SHED_QUOTA if isinstance(exc, QuotaExceededError) else SHED_ADMISSION
            self.metrics.record_shed(event.tenant, kind=kind)
            self._outcomes.append(
                RequestOutcome(
                    request_id=request.request_id,
                    tenant=event.tenant,
                    status=STATUS_SHED,
                    arrival_time=now,
                    error=str(exc),
                )
            )

    def _evict_for(self, request: PendingRequest) -> PendingRequest | None:
        """Evict the best lower-priority victim across every shard queue.

        Candidates are compared with the queue's own ordering (lowest
        class priority, highest shed weight, newest), so the deployment
        sheds the globally least-defensible pending request.  ``None``
        when no pending request ranks strictly below the arrival.
        """
        if self.config.slo is None:
            return None
        priority = self.config.slo.priority_for(request.tenant)
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

    def _record_eviction(
        self, victim: PendingRequest, arrival: PendingRequest
    ) -> None:
        """Account one pending request evicted for a premium arrival."""
        self.metrics.record_shed(victim.tenant, kind=SHED_EVICTED)
        self._outcomes.append(
            RequestOutcome(
                request_id=victim.request_id,
                tenant=victim.tenant,
                status=STATUS_SHED,
                arrival_time=victim.arrival_time,
                error=(
                    f"evicted for higher-priority request"
                    f" {arrival.request_id} from {arrival.tenant!r}"
                ),
            )
        )

    def _run_batches(self, batches) -> None:
        """Dispatch a window of flushed batches and account their outcomes.

        The whole window goes to the pool in one call so each shard's
        batches overlap inside that shard's staged pipeline (encode
        ``n+1`` while ``n`` computes), with different shards progressing
        on parallel timelines.
        """
        if not batches:
            return
        for batch in batches:
            self.metrics.record_batch(batch)
        outcomes = self.pool.dispatch_window(list(batches))
        for outcome in outcomes:
            heapq.heappush(self._inflight, outcome.completion_time)
            self.metrics.record_outcome(outcome)
            if outcome.ok and self.config.encrypt_requests:
                session = self.sessions.connect(outcome.tenant)
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
        precompute = self._precompute_report()
        self.metrics.record_precompute(precompute)
        return ServingReport(
            outcomes=list(self._outcomes),
            metrics=self.metrics,
            handshakes=self.sessions.handshakes_performed,
            tenants=self.sessions.active_tenants,
            link_bytes=self.link.total_bytes,
            shards=len(self.shards),
            failovers=self.pool.failovers,
            migrations=self.sessions.migrations,
            retries_skipped_budget=self.pool.retries_skipped_budget,
            retries_skipped_floor=self.pool.retries_skipped_floor,
            partition=str(self.partition),
            adaptive=self.scheduler.policy_snapshots(),
            audit_roots=self.audit.chain_roots() if self.audit is not None else None,
            autoscale=(
                self.autoscaler.snapshot(end)
                if self.autoscale_config is not None
                else None
            ),
            precompute=precompute,
        )
