"""Event-driven pipeline executor: layer-pipelined encode/compute/decode.

The paper's pipelined setting (Section 7.1), made schedulable: each virtual
batch is a *job* that flows through the network's execution plan, and the enclave
— the single serialized trusted resource — picks the next stage to run from
every in-flight job's frontier.  While job ``n``'s shares grind on the GPUs,
the enclave encodes job ``n+1``'s next layer (or decodes whichever future
completed first), so enclave and accelerator time overlap instead of
serializing.

Scheduling policy: one rank order.  Among all in-flight jobs the enclave
runs the task that can start earliest on the simulated clock; among
equally early ones, the job carrying the tightest SLO deadline, then
decodes before encodes (freeing GPU results keeps the pipe draining), then
the older job.  Feasibility stays primary, so a premium job whose shares
are still on the GPUs never parks the enclave idle; without a finite
deadline the order is plain earliest start.  With ``pipeline_depth=1``
exactly one job is in flight and the order is the synchronous one.

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
from repro.nn.backends import StagedLinearBackend
from repro.nn.layers import BranchJoin
from repro.nn.network import PLAN_INPUT
from repro.pipeline.stages import GpuFuture, PipelineStats, StagedLinearOp, StageSpan, WindowItem
from repro.pipeline.timing import DEFAULT_STAGE_COSTS, EnclaveTimeline, StageCostModel
from repro.precompute import scratch_scope


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


@dataclass(slots=True)
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


@dataclass(slots=True)
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

    The repo's one stage scheduler: every flush window, partition member
    and benchmark that overlaps enclave and GPU work runs through it, in
    the one rank order the module docstring gives.

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

    The executor owns the enclave's serialized clock, which starts at zero
    and carries over between windows, so consecutive windows overlap.
    """

    def __init__(
        self,
        network,
        backend: StagedLinearBackend,
        pipeline_depth: int = 1,
        costs: StageCostModel | None = None,
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
        self.timeline = EnclaveTimeline()

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
    def run(self, x: np.ndarray) -> PipelineResult:
        """Execute one batch released at time zero, interleaving stages
        across virtual batches."""
        groups, stats = self.run_grouped([WindowItem(x, 0.0)])
        return PipelineResult(output=groups[0].output, stats=stats)

    def run_grouped(
        self, items: list[WindowItem], step_range: tuple[int, int] | None = None
    ) -> tuple[list[GroupResult], PipelineStats]:
        """Pipeline several input groups through one event loop.

        Each :class:`~repro.pipeline.stages.WindowItem` is one group; its
        rows split into virtual batches (jobs) released at the item's
        ``release`` and carrying its ``deadline``.  All jobs — across
        groups — share the in-flight window, so the enclave encodes group
        ``n+1``'s first layer while group ``n``'s shares are still on the
        GPUs: this is the serving pool's cross-batch overlap.  Returns
        per-group outputs with their own start/finish times, plus the
        window-wide stats.

        ``step_range`` restricts execution to the plan slice ``[start,
        end)`` — one partition shard's stage range, entered with live value
        dicts; an item's ``transfer_bytes`` is then priced as a *transfer
        op* on this shard's enclave timeline before its first compute
        stage, ranked like every other stage.

        The window is released on every exit path, an
        :class:`~repro.errors.IntegrityError` raised mid-window included:
        its stored encodings are dropped and the release is asserted, so a
        byzantine window can neither wedge nor leak into the next one.  A
        precompute backend borrows the scratch pool for exactly this long.
        """
        with scratch_scope(self.backend.precompute):
            try:
                return self._schedule(items, step_range)
            finally:
                self.backend.end_batch()
                self.backend.assert_encodings_released()

    def _schedule(
        self, items: list[WindowItem], step_range: tuple[int, int] | None
    ) -> tuple[list[GroupResult], PipelineStats]:
        """The event loop behind :meth:`run_grouped`."""
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
            for values in self._iter_payload(item.payload, k):
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
                    ready_at=item.release,
                    deadline=item.deadline,
                    transfer_bytes=item.transfer_bytes,
                )
                group_of[job.index] = g
                jobs.append(job)

        enclave_busy_before = self.timeline.busy_time
        gpu_busy_before = self.backend.cluster.max_busy_time()
        spans: list[StageSpan] = []
        outputs: dict[int, np.ndarray | dict] = {}

        first_release = min((item.release for item in items), default=0.0)
        # Freshly staged weight encodings (quantize + broadcast) occupy the
        # enclave before the window's first compute stage; a precompute
        # cache hit leaves ``staged_bytes`` at 0 and costs nothing here.
        if self.costs.maskgen_bandwidth is not None:
            for op in ops.values():
                if op.staged_bytes:
                    start, end = self.timeline.reserve(
                        first_release, self.costs.maskgen_time(op.staged_bytes)
                    )
                    spans.append(
                        StageSpan(-1, op.key, "stage_weights", "enclave", start, end)
                    )
                    op.staged_bytes = 0

        # Only a precompute backend has a pool whose refills can fill gaps.
        fill_gaps = self.backend.precompute
        waiting = list(jobs)
        active: list[_Job] = []
        while waiting or active:
            while waiting and len(active) < self.pipeline_depth:
                active.append(waiting.pop(0))
            job = active[0] if len(active) == 1 else min(active, key=self._task_rank)
            if fill_gaps:
                self._fill_idle_gap(job, spans)
            if job.transfer_bytes:
                self._run_transfer(job, spans)
            elif job.future is not None:
                self._run_decode(job, last_use, spans)
            elif plan[job.step_idx].offloaded:
                job.activation = job.values[plan[job.step_idx].deps[0]]
                self._run_encode(job, k, ops[job.step_idx], spans)
            else:
                self._run_tee(job, plan[job.step_idx], last_use, spans)
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

        # The spans are the one record of stage time; totals sum them.
        stage_totals: dict[str, float] = {}
        for span in spans:
            seconds = span.end - span.start
            stage_totals[span.stage] = stage_totals.get(span.stage, 0.0) + seconds
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
                    start=min((s.start for s in group_spans), default=item.release),
                    finish=max((s.end for s in group_spans), default=item.release),
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
        """The job's key in the one rank order (lowest runs first):
        feasible start, deadline, decode before any other stage, job index."""
        decode = job.future is not None
        ready = job.future.ready_at if decode else job.ready_at
        return (max(self.timeline.free_at, ready), job.deadline, not decode, job.index)

    def _fill_idle_gap(
        self,
        job: _Job,
        spans: list[StageSpan],
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
                spans.append(
                    StageSpan(-1, "mask_pool", "precompute", "enclave", start, end)
                )
            nbytes = self.backend.precompute_pending()

    def _run_encode(
        self,
        job: _Job,
        k: int,
        op: StagedLinearOp,
        spans: list[StageSpan],
    ) -> None:
        """Encode the job's next layer and put its shares in flight."""
        (ticket,) = tickets = self.backend.encode(op, [job.padded(k)], [job.index])
        duration = self.costs.encode_time(ticket.encode_bytes)
        if self.costs.maskgen_bandwidth is not None and ticket.inline_noise_bytes:
            # Inline noise generation (pool miss or precompute off) rides
            # the encode's ecall — bytes-only surcharge, no extra overhead.
            duration += ticket.inline_noise_bytes / self.costs.maskgen_bandwidth
        start, end = self.timeline.reserve(job.ready_at, duration)
        spans.append(StageSpan(job.index, op.key, "encode", "enclave", start, end))
        future = self.backend.dispatch(tickets)
        gpu_start, ready_at = self.backend.cluster.reserve_shares(
            ticket.prepared.sets.n_shares,
            self.costs.gpu_time(future.macs_per_share),
            not_before=end,
        )
        future.ready_at = ready_at
        spans.append(StageSpan(job.index, op.key, "gpu", "gpu", gpu_start, ready_at))
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
        spans.append(StageSpan(job.index, "handoff", "transfer", "enclave", start, end))
        job.transfer_bytes = 0
        job.ready_at = end

    def _run_decode(
        self,
        job: _Job,
        last_use: dict[int, int],
        spans: list[StageSpan],
    ) -> None:
        """Decode a completed future and advance the job one layer."""
        future = job.future
        op = future.tickets[0].op
        (y,) = self.backend.decode(future)
        if op.validate is not None:
            op.validate(y, job.activation)
        start, end = self.timeline.reserve(
            future.ready_at, self.costs.decode_time(future.output_bytes)
        )
        spans.append(StageSpan(job.index, op.key, "decode", "enclave", start, end))
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
    ) -> None:
        """Run one TEE-resident step on the real rows.

        A two-input :class:`~repro.nn.layers.BranchJoin` merges its DAG
        dependencies here.  The plan flattens every residual block, so no
        TEE-resident step offloads work of its own.
        """
        if isinstance(step.layer, BranchJoin):
            a, b = (job.values[d] for d in step.deps)
            nbytes = int(a.nbytes) + int(b.nbytes)
            out = step.layer.join(a, b, training=False)
        else:
            x = job.values[step.deps[0]]
            nbytes = int(np.asarray(x).nbytes)
            out = step.layer.forward(x, self.backend, training=False)
        start, end = self.timeline.reserve(job.ready_at, self.costs.local_time(nbytes))
        spans.append(StageSpan(job.index, step.name, "tee", "enclave", start, end))
        self._finish_step(job, step, out, last_use)
        job.ready_at = end
