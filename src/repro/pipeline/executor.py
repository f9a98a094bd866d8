"""Event-driven pipeline executor: layer-pipelined encode/compute/decode.

The paper's Fig. 7 threading argument, made schedulable: each virtual batch
is a *job* that flows through the network's execution plan, and the enclave
— the single serialized trusted resource — picks the next stage to run from
every in-flight job's frontier.  While job ``n``'s shares grind on the GPUs,
the enclave encodes job ``n+1``'s next layer (or decodes whichever future
completed first), so enclave and accelerator time overlap instead of
serializing.

Scheduling policy: pluggable (:mod:`repro.pipeline.ranker`).  The default
:class:`~repro.pipeline.ranker.EarliestStartRanker` runs, among all
runnable enclave tasks, the one that can start earliest on the simulated
clock; ties break toward decodes (freeing GPU results keeps the pipe
draining) and then toward older jobs.  The deadline-aware ranker instead
runs the job carrying the tightest remaining SLO deadline first.  With
``pipeline_depth=1`` exactly one job is in flight and every ranker
collapses to the classic synchronous order.

Real values and simulated time are deliberately decoupled: kernels execute
eagerly in program order, but every stage *reserves* simulated intervals on
the enclave timeline and device clocks, and decodes are not scheduled before
their future's ``ready_at``.  Masking decodes exactly, so schedule order can
never change a logit — pipelined output is bit-identical to the synchronous
path by construction (and asserted in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.masking import iter_virtual_batches
from repro.masking.virtual_batch import VirtualBatch
from repro.nn.layers import BranchJoin
from repro.nn.network import PLAN_INPUT
from repro.pipeline.ranker import EarliestStartRanker, StageRanker
from repro.pipeline.stages import GpuFuture, PipelineStats, StagedLinearOp, StageSpan
from repro.pipeline.timing import DEFAULT_STAGE_COSTS, EnclaveTimeline, StageCostModel


def plan_live_out(plan, end: int) -> tuple[int, ...]:
    """Value indices a partition cut at ``end`` must hand to the consumer.

    These are the producers (``PLAN_INPUT`` or step indices ``< end``)
    that some step ``>= end`` still depends on — for a linear plan just
    the last step of the range, but a cut through a flattened residual
    block also carries the pending skip branch.
    """
    live = {
        dep
        for step in plan[end:]
        for dep in step.deps
        if dep < end
    }
    return tuple(sorted(live))


@dataclass
class _Job:
    """One virtual batch in flight through the (sub-)plan DAG."""

    index: int
    indices: tuple[int, ...]  #: Row positions inside the parent batch.
    n_real: int
    activation: np.ndarray  #: Real rows only, current step's input.
    values: dict  #: Produced step outputs still needed (``PLAN_INPUT`` = input).
    step_idx: int = 0  #: Next execution-plan step to run.
    ready_at: float = 0.0  #: When the activation became available.
    future: GpuFuture | None = None  #: Set while shares are on the GPUs.
    deadline: float = math.inf  #: Tightest SLO deadline in the job's group.
    transfer_bytes: int = 0  #: Pending sealed-envelope bytes to unseal first.

    def padded(self, k: int) -> VirtualBatch:
        """Re-pad the activation to a full ``K``-slot virtual batch."""
        data = self.activation
        if self.n_real < k:
            pad = np.zeros((k - self.n_real,) + data.shape[1:], dtype=data.dtype)
            data = np.concatenate([data, pad], axis=0)
        return VirtualBatch(data=data, indices=self.indices, n_real=self.n_real)


@dataclass
class GroupResult:
    """One input group's (e.g. one scheduled batch's) pipelined outcome.

    ``output`` is the final activation batch for a full-plan run; a
    sub-range run (``step_range`` ending before the last step) instead
    yields the *live value set* at the cut — ``{producer step: batch}`` —
    which the next partition shard consumes.
    """

    output: np.ndarray | dict
    start: float  #: When the group's first stage began.
    finish: float  #: When the group's last stage completed.


@dataclass
class PipelineResult:
    """Output batch plus the simulated-time account of producing it."""

    output: np.ndarray
    stats: PipelineStats


class PipelineExecutor:
    """Walks a :class:`~repro.nn.network.Sequential`'s execution plan with
    up to ``pipeline_depth`` virtual batches in flight.

    Parameters
    ----------
    network:
        The model whose :meth:`~repro.nn.network.Sequential.execution_plan`
        is walked.
    backend:
        A staged backend (``stage_linear``/``encode``/``dispatch``/``decode``
        plus the blocking ops for TEE-resident layers) sharing the enclave
        and GPU cluster.  Inference only — training drives the synchronous
        path, whose backward pass reuses stored forward encodings in place.
    pipeline_depth:
        Maximum virtual batches in flight; ``1`` reproduces the synchronous
        schedule exactly.
    costs:
        Stage pricing; defaults to :data:`~repro.pipeline.timing.DEFAULT_STAGE_COSTS`.
    timeline:
        The enclave's serialized clock.  Pass a shared instance to overlap
        consecutive engine batches (the serving pool does); defaults to a
        fresh clock at zero.
    ranker:
        The stage-scheduling policy (:mod:`repro.pipeline.ranker`).
        Defaults to :class:`~repro.pipeline.ranker.EarliestStartRanker`,
        the pre-refactor order; every ranker is bit-identical in values.
    """

    def __init__(
        self,
        network,
        backend,
        pipeline_depth: int = 1,
        costs: StageCostModel | None = None,
        timeline: EnclaveTimeline | None = None,
        ranker: StageRanker | None = None,
    ) -> None:
        if pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline depth must be >= 1, got {pipeline_depth}"
            )
        for op_name in ("stage_linear", "encode", "dispatch", "decode"):
            if not callable(getattr(backend, op_name, None)):
                raise ConfigurationError(
                    f"backend {type(backend).__name__} lacks staged op {op_name!r};"
                    " pipelined execution needs a StagedLinearBackend"
                )
        self.network = network
        self.backend = backend
        self.pipeline_depth = pipeline_depth
        self.costs = costs or DEFAULT_STAGE_COSTS
        self.timeline = timeline or EnclaveTimeline()
        self.ranker = ranker or EarliestStartRanker()

    # ------------------------------------------------------------------
    # plan preparation
    # ------------------------------------------------------------------
    def _stage_ops(self, start: int = 0, end: int | None = None) -> dict[int, StagedLinearOp]:
        """Stage every offloaded layer in the range for this window (the
        backend keeps encodings of unchanged weights; only the broadcast
        is per window)."""
        plan = self.network.execution_plan()
        ops: dict[int, StagedLinearOp] = {}
        for step in plan[start : end if end is not None else len(plan)]:
            if not step.offloaded:
                continue
            layer = step.layer
            if hasattr(layer, "kernel_size"):
                ops[step.index] = self.backend.stage_linear(
                    "conv2d",
                    layer.params["w"],
                    layer.params.get("b"),
                    layer.name,
                    stride=layer.stride,
                    pad=layer.pad,
                )
            else:
                ops[step.index] = self.backend.stage_linear(
                    "dense", layer.params["w"], layer.params.get("b"), layer.name
                )
        return ops

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray, release_time: float = 0.0) -> PipelineResult:
        """Execute one batch, interleaving stages across virtual batches.

        ``release_time`` is when the batch's data becomes available on the
        simulated clock (a serving batch's flush time); no stage is
        scheduled before it.
        """
        groups, stats = self.run_grouped([(x, release_time)])
        return PipelineResult(output=groups[0].output, stats=stats)

    def run_grouped(
        self, items: list[tuple], step_range: tuple[int, int] | None = None
    ) -> tuple[list[GroupResult], PipelineStats]:
        """Pipeline several input groups through one event loop.

        Each item is ``(batch, release_time)``, ``(batch, release_time,
        deadline)``, or ``(batch, release_time, deadline,
        transfer_bytes)``; a group's rows split into virtual batches
        (jobs) released at the group's time and carrying the group's SLO
        deadline (``inf`` when omitted — only the deadline-aware ranker
        reads it).  All jobs — across groups — share the in-flight
        window, so the enclave encodes group ``n+1``'s first layer while
        group ``n``'s shares are still on the GPUs: this is the serving
        pool's cross-batch overlap.  Returns per-group outputs with their
        own start/finish times, plus the window-wide stats.

        ``step_range`` restricts execution to the plan slice ``[start,
        end)`` — one partition shard's stage range.  A mid-plan entry's
        ``batch`` is then the producer's live value dict (``{step index:
        rows}``); a positive ``transfer_bytes`` prices the sealed
        activation hand-off as a *transfer op* on this shard's enclave
        timeline before the first compute stage — it competes for the
        enclave through the same :class:`~repro.pipeline.ranker
        .StageRanker` as every other stage.
        """
        k = self.backend.config.virtual_batch_size
        plan = self.network.execution_plan()
        start_idx, end_idx = step_range if step_range is not None else (0, len(plan))
        if not (0 <= start_idx < end_idx <= len(plan)):
            raise ConfigurationError(
                f"step range [{start_idx}, {end_idx}) outside plan of {len(plan)} steps"
            )
        ops = self._stage_ops(start_idx, end_idx)
        # Producers each step still needs, and when a value dies.
        last_use: dict[int, int] = {}
        for step in plan:
            for dep in step.deps:
                last_use[dep] = step.index
        live_out = plan_live_out(plan, end_idx) if end_idx < len(plan) else ()

        jobs: list[_Job] = []
        group_of: dict[int, int] = {}
        for g, item in enumerate(items):
            x, release_time = item[0], item[1]
            deadline = item[2] if len(item) > 2 else math.inf
            transfer_bytes = int(item[3]) if len(item) > 3 else 0
            for values in self._iter_payload(x, k):
                rows = next(iter(values.values()))
                job = _Job(
                    index=len(jobs),
                    indices=rows.indices,
                    n_real=rows.n_real,
                    activation=rows.data[: rows.n_real],
                    values={
                        key: vb.data[: vb.n_real] for key, vb in values.items()
                    },
                    step_idx=start_idx,
                    ready_at=release_time,
                    deadline=deadline,
                    transfer_bytes=transfer_bytes,
                )
                group_of[job.index] = g
                jobs.append(job)

        enclave_busy_before = self.timeline.busy_time
        gpu_busy_before = self.backend.cluster.max_busy_time()
        spans: list[StageSpan] = []
        stage_totals: dict[str, float] = {}
        outputs: dict[int, np.ndarray | dict] = {}

        first_release = min((item[1] for item in items), default=0.0)
        # Freshly staged weight encodings (quantize + broadcast) occupy the
        # enclave before the window's first compute stage; a precompute
        # cache hit leaves ``staged_bytes`` at 0 and costs nothing here.
        if self.costs.maskgen_bandwidth is not None:
            for op in ops.values():
                if op.staged_bytes:
                    start, end = self.timeline.reserve(
                        first_release, self.costs.maskgen_time(op.staged_bytes)
                    )
                    self._account(
                        spans, stage_totals, -1, op.key, "stage_weights",
                        "enclave", start, end,
                    )
                    op.staged_bytes = 0

        # Only a precompute backend has a pool whose refills can fill gaps.
        fill_gaps = self.backend.config.precompute
        waiting = list(jobs)
        active: list[_Job] = []
        while waiting or active:
            while waiting and len(active) < self.pipeline_depth:
                active.append(waiting.pop(0))
            job = min(active, key=self._task_rank)
            if fill_gaps:
                self._fill_idle_gap(job, spans, stage_totals)
            if job.transfer_bytes:
                self._run_transfer(job, spans, stage_totals)
            elif job.future is not None:
                self._run_decode(job, last_use, spans, stage_totals)
            elif plan[job.step_idx].offloaded:
                job.activation = job.values[plan[job.step_idx].deps[0]]
                self._run_encode(job, k, ops[job.step_idx], spans, stage_totals)
            else:
                self._run_tee(job, plan[job.step_idx], last_use, spans, stage_totals)
            if (
                job.future is None
                and not job.transfer_bytes
                and job.step_idx == end_idx
            ):
                if end_idx == len(plan):
                    outputs[job.index] = job.values[plan[-1].index]
                else:
                    outputs[job.index] = {i: job.values[i] for i in live_out}
                active.remove(job)

        stats = PipelineStats(
            start=min((s.start for s in spans), default=first_release),
            finish=max((s.end for s in spans), default=first_release),
            n_jobs=len(jobs),
            enclave_busy=self.timeline.busy_time - enclave_busy_before,
            gpu_busy=self.backend.cluster.max_busy_time() - gpu_busy_before,
            stage_totals=stage_totals,
            spans=spans,
        )
        groups: list[GroupResult] = []
        for g, item in enumerate(items):
            release_time = item[1]
            members = [j for j in range(len(jobs)) if group_of[j] == g]
            # ``.get``: precompute/staging spans carry job=-1 (no group).
            group_spans = [s for s in spans if group_of.get(s.job) == g]
            if end_idx == len(plan):
                output = np.concatenate([outputs[j] for j in members], axis=0)
            else:
                output = {
                    i: np.concatenate([outputs[j][i] for j in members], axis=0)
                    for i in live_out
                }
            groups.append(
                GroupResult(
                    output=output,
                    start=min((s.start for s in group_spans), default=release_time),
                    finish=max((s.end for s in group_spans), default=release_time),
                )
            )
        return groups, stats

    def _iter_payload(self, x, k: int):
        """Split one group's payload into per-job value dicts.

        A plain array is the network input (keyed :data:`PLAN_INPUT`); a
        dict is a mid-plan live value set — every entry shares the same
        leading batch dimension, so all split into identical row ranges.
        """
        if isinstance(x, dict):
            keys = sorted(x)
            splits = [list(iter_virtual_batches(x[key], k)) for key in keys]
            for parts in zip(*splits):
                yield dict(zip(keys, parts))
        else:
            for vb in iter_virtual_batches(x, k):
                yield {PLAN_INPUT: vb}

    # ------------------------------------------------------------------
    # task selection and execution
    # ------------------------------------------------------------------
    def _task_rank(self, job: _Job) -> tuple:
        """Order enclave candidates through the pluggable ranker —
        deterministic keys, so schedules are reproducible."""
        return self.ranker.rank(job, self.timeline)

    def _account(
        self,
        spans: list[StageSpan],
        totals: dict[str, float],
        job: int,
        layer: str,
        stage: str,
        resource: str,
        start: float,
        end: float,
    ) -> None:
        spans.append(
            StageSpan(
                job=job, layer=layer, stage=stage, resource=resource,
                start=start, end=end,
            )
        )
        totals[stage] = totals.get(stage, 0.0) + (end - start)

    def _fill_idle_gap(
        self,
        job: _Job,
        spans: list[StageSpan],
        totals: dict[str, float],
    ) -> None:
        """Run mask-pool refills in the gap before the chosen task starts.

        The paper's offline phase as a schedulable op: a refill unit runs
        only when it fits *entirely* before the next real stage's feasible
        start, so pregeneration can never delay online work.  Refills pay
        bytes-only time (no ecall overhead — the enclave is already open
        and idle); with no ``maskgen_bandwidth`` they are free on the
        simulated clock but still fill the pool for real.
        """
        nbytes = self.backend.precompute_pending()
        if not nbytes:
            return  # saturated: nothing to place
        if job.future is not None and not job.transfer_bytes:
            next_start = job.future.ready_at
        else:
            next_start = job.ready_at
        gap_end = max(self.timeline.free_at, next_start)
        bw = self.costs.maskgen_bandwidth
        while nbytes:
            duration = 0.0 if bw is None else nbytes / bw
            if self.timeline.free_at + duration > gap_end:
                return
            self.backend.precompute_refill()
            if duration > 0.0:
                start, end = self.timeline.reserve(self.timeline.free_at, duration)
                self._account(
                    spans, totals, -1, "mask_pool", "precompute", "enclave", start, end
                )
            nbytes = self.backend.precompute_pending()

    def _run_encode(
        self,
        job: _Job,
        k: int,
        op: StagedLinearOp,
        spans: list[StageSpan],
        totals: dict[str, float],
    ) -> None:
        """Encode the job's next layer and put its shares in flight."""
        ticket = self.backend.encode(op, job.padded(k), job.index)
        duration = self.costs.encode_time(ticket.encode_bytes)
        if self.costs.maskgen_bandwidth is not None and ticket.inline_noise_bytes:
            # Inline noise generation (pool miss or precompute off) rides
            # the encode's ecall — bytes-only surcharge, no extra overhead.
            duration += ticket.inline_noise_bytes / self.costs.maskgen_bandwidth
        start, end = self.timeline.reserve(job.ready_at, duration)
        self._account(spans, totals, job.index, op.key, "encode", "enclave", start, end)
        future = self.backend.dispatch(ticket)
        gpu_start, ready_at = self.backend.cluster.reserve_shares(
            ticket.coefficients.n_shares,
            self.costs.gpu_time(future.macs_per_share),
            not_before=end,
        )
        future.ready_at = ready_at
        self._account(spans, totals, job.index, op.key, "gpu", "gpu", gpu_start, ready_at)
        job.future = future

    def _finish_step(
        self, job: _Job, step, value: np.ndarray, last_use: dict[int, int]
    ) -> None:
        """Record a step's output and drop values nothing later needs.

        ``last_use`` spans the *full* plan, so a value some step beyond
        this executor's range still depends on (a partition cut's live
        set) is never freed here.
        """
        job.values[step.index] = value
        for dep in step.deps:
            if last_use.get(dep) == step.index:
                job.values.pop(dep, None)
        job.step_idx = step.index + 1

    def _run_transfer(
        self,
        job: _Job,
        spans: list[StageSpan],
        totals: dict[str, float],
    ) -> None:
        """Price a sealed cross-shard activation hand-off on this enclave.

        The producer shard already sealed the live values (the host only
        ever relays ciphertext); what lands here is the consumer-side
        receive + MAC-verify + unseal, an enclave-serialized stage like
        any other.
        """
        start, end = self.timeline.reserve(
            job.ready_at, self.costs.transfer_time(job.transfer_bytes)
        )
        self._account(
            spans, totals, job.index, "handoff", "transfer", "enclave", start, end
        )
        job.transfer_bytes = 0
        job.ready_at = end

    def _run_decode(
        self,
        job: _Job,
        last_use: dict[int, int],
        spans: list[StageSpan],
        totals: dict[str, float],
    ) -> None:
        """Decode a completed future and advance the job one layer."""
        future = job.future
        op = future.ticket.op
        y = self.backend.decode(future)
        if op.validate is not None:
            op.validate(y, job.activation)
        start, end = self.timeline.reserve(
            future.ready_at, self.costs.decode_time(future.output_bytes)
        )
        self._account(spans, totals, job.index, op.key, "decode", "enclave", start, end)
        step = self.network.execution_plan()[job.step_idx]
        job.future = None
        self._finish_step(job, step, op.apply_bias(y), last_use)
        job.ready_at = end

    def _run_tee(
        self,
        job: _Job,
        step,
        last_use: dict[int, int],
        spans: list[StageSpan],
        totals: dict[str, float],
    ) -> None:
        """Run one TEE-resident step on the real rows.

        A two-input :class:`~repro.nn.layers.BranchJoin` merges its DAG
        dependencies here.  Composite layers may still offload inner
        convolutions through the *blocking* backend path while executing;
        that work is detected via the cluster's MAC counter and priced
        honestly (devices reserved, enclave blocked for the duration).
        """
        if isinstance(step.layer, BranchJoin):
            a, b = (job.values[d] for d in step.deps)
            nbytes = int(a.nbytes) + int(b.nbytes)
            macs_before = self.backend.cluster.total_mac_ops()
            out = step.layer.join(a, b, training=False)
        else:
            x = job.values[step.deps[0]]
            nbytes = int(np.asarray(x).nbytes)
            macs_before = self.backend.cluster.total_mac_ops()
            out = step.layer.forward(x, self.backend, training=False)
        macs = self.backend.cluster.total_mac_ops() - macs_before
        duration = self.costs.local_time(nbytes)
        if macs > 0:
            n_shares = self.backend.config.n_shares
            gpu_duration = self.costs.gpu_time(macs // n_shares)
            self.backend.cluster.reserve_shares(
                n_shares, gpu_duration, not_before=max(self.timeline.free_at, job.ready_at)
            )
            duration += gpu_duration
        start, end = self.timeline.reserve(job.ready_at, duration)
        self._account(spans, totals, job.index, step.name, "tee", "enclave", start, end)
        self._finish_step(job, step, out, last_use)
        job.ready_at = end
