"""Adaptive coalescing: learned flush deadlines and EPC-aware batch sizing.

The static knobs — ``DarKnightConfig.virtual_batch_size`` (``K``) and
``ServingConfig.max_batch_wait`` — are right for exactly one traffic
regime.  Bursty traces either ship half-empty batches (deadline too
tight) or blow the latency budget (deadline too loose), and a hand-tuned
``K`` silently pages once the virtual batch's working set outgrows the
enclave's EPC.  This module replaces both knobs with observed facts:

* **Learned flush deadline** — each shard's
  :class:`AdaptiveFlushPolicy` keeps an EWMA of inter-arrival gaps and
  predicts how long the oldest queued request would have to wait for the
  batch to fill (``gap * slots_missing``).  A multiplicative controller
  trades fill ratio against deadline misses: partial deadline flushes
  below the target fill stretch the prediction, full ones shrink it back
  toward the raw estimate.  The deadline never leaves
  ``[min_wait, max_wait]`` — the static deadline is the *ceiling*, so
  adaptive mode can only ship earlier than the static server, never
  later.
* **Service-aware floor** — the worker pool feeds back the staged
  executor's *real* per-stage timings (:class:`WindowFeedback`); the
  policy raises the deadline floor toward the observed per-batch enclave
  occupancy so partial batches are never flushed faster than the
  serialized enclave could absorb them (each partial still pays a full
  ``K``-slot encode).
* **EPC-aware K** — :func:`epc_fitting_batch_size` sizes the virtual
  batch against the :class:`~repro.enclave.epc.EpcModel` budget instead
  of trusting the configured ``K``: one batch's masking working set
  (inputs + ``K + M (+1)`` shares + gathered outputs, times the pipeline
  depth kept in flight) must stay inside usable EPC, echoing the paper's
  Fig. 3/6b "memory overflow past K=4" knee.  The serving layer clamps
  the provisioned ``K`` to the fit at startup and the policy enforces the
  cap at every flush; runtime observations of per-slot bytes can only
  tighten it further.

Static deployments never construct a policy, so with adaptive batching
off the flush path is bit-identical to the fixed-knob server.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Bounds for the fill-ratio controller's multiplicative stretch factor.
_STRETCH_MIN = 1.0
_STRETCH_MAX = 8.0
#: Controller gains: relax fast when batches ship empty, tighten gently.
_STRETCH_UP = 1.25
_STRETCH_DOWN = 0.9
#: Fraction of the observed per-batch enclave occupancy used as the
#: deadline floor (flushing faster than this just queues on the enclave).
_SERVICE_FLOOR_FRACTION = 0.5


@dataclass(frozen=True)
class AdaptiveBatchingConfig:
    """Knobs for the adaptive flush policy (all optional, all bounded).

    Parameters
    ----------
    target_fill:
        Fill ratio deadline flushes aim for; partial flushes below it
        relax the learned deadline, fuller ones tighten it.
    min_wait:
        Hard floor (simulated seconds) for the learned deadline — the
        policy never flushes a partial faster than this.
    max_wait:
        Hard ceiling; ``None`` uses the deployment's static
        ``max_batch_wait``, so adaptive mode never waits *longer* than
        the static server would have.
    ewma_alpha:
        Smoothing factor for the inter-arrival and service-time EWMAs
        (higher adapts faster, noisier).
    epc_headroom:
        Fraction of usable EPC one in-flight window may claim; the rest
        is slack for enclave code/stack and SGX metadata drift.
    warmup_arrivals:
        Admitted arrivals a shard must observe before its learned
        deadline takes over from the static one — a cold EWMA built on a
        couple of gaps is overconfident and shreds the first burst into
        partial flushes.
    """

    target_fill: float = 0.85
    min_wait: float = 1e-4
    max_wait: float | None = None
    ewma_alpha: float = 0.25
    epc_headroom: float = 0.9
    warmup_arrivals: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fill <= 1.0:
            raise ConfigurationError(
                f"target fill must be in (0, 1], got {self.target_fill}"
            )
        if self.min_wait <= 0:
            raise ConfigurationError(f"min wait must be > 0, got {self.min_wait}")
        if self.max_wait is not None and self.max_wait < self.min_wait:
            raise ConfigurationError(
                f"max wait {self.max_wait} must be >= min wait {self.min_wait}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not 0.0 < self.epc_headroom <= 1.0:
            raise ConfigurationError(
                f"EPC headroom must be in (0, 1], got {self.epc_headroom}"
            )
        if self.warmup_arrivals < 0:
            raise ConfigurationError(
                f"warmup arrivals must be >= 0, got {self.warmup_arrivals}"
            )


@dataclass(frozen=True)
class WindowFeedback:
    """What one dispatched flush window cost, fed back to the scheduler.

    The worker pool builds one per successfully dispatched per-shard
    window from the staged executor's :class:`~repro.pipeline.stages.
    PipelineStats` — these are the *measured* simulated timings of the
    run (bytes masked, MACs executed), not a synthetic service model.
    """

    shard_id: int
    n_batches: int  #: Virtual batches the window carried.
    enclave_busy: float  #: Enclave-occupied seconds within the window.
    makespan: float  #: End-to-end seconds for the window.
    stage_totals: dict  #: Seconds per stage kind (encode/gpu/decode/tee).
    slot_bytes_observed: int = 0  #: Largest per-request input payload seen.


def estimate_slot_bytes(network) -> int:
    """Bytes one virtual-batch slot contributes to the enclave working set.

    The enclave's per-slot footprint is dominated by the largest
    activation it masks or unmasks on the slot's behalf; walk the
    network's per-sample layer shapes and take the widest, priced at
    float64 (the repro's tensor dtype).
    """
    widest = max(
        int(np.prod(shape, dtype=np.int64)) for shape in network.layer_shapes
    )
    return widest * np.dtype(np.float64).itemsize


def working_set_bytes(
    batch_size: int,
    slot_bytes: int,
    collusion_tolerance: int = 1,
    extra_shares: int = 0,
    pipeline_depth: int = 1,
) -> int:
    """EPC bytes one in-flight window of virtual batches occupies.

    Per virtual batch the enclave simultaneously holds the ``K`` real
    slots, the ``K + M (+1 integrity)`` masked share tensors it scatters,
    and the same number of gathered GPU outputs it must unmask; a staged
    pipeline keeps up to ``pipeline_depth`` such batches resident at
    once.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    if slot_bytes < 0:
        raise ConfigurationError(f"slot bytes must be >= 0, got {slot_bytes}")
    n_shares = batch_size + collusion_tolerance + extra_shares
    per_batch = (batch_size + 2 * n_shares) * slot_bytes
    return max(1, pipeline_depth) * per_batch


def epc_fitting_batch_size(
    base_batch_size: int,
    slot_bytes: int,
    epc_budget_bytes: int,
    collusion_tolerance: int = 1,
    extra_shares: int = 0,
    pipeline_depth: int = 1,
) -> int:
    """Largest ``K <= base`` whose working set fits the EPC budget.

    Returns at least ``1``: a deployment whose single-slot working set
    already overflows still serves (real SGX pages rather than refusing),
    it just cannot be saved by shrinking ``K`` further.
    """
    if base_batch_size < 1:
        raise ConfigurationError(
            f"base batch size must be >= 1, got {base_batch_size}"
        )
    if epc_budget_bytes <= 0:
        raise ConfigurationError(
            f"EPC budget must be > 0, got {epc_budget_bytes}"
        )
    for k in range(base_batch_size, 1, -1):
        if (
            working_set_bytes(
                k, slot_bytes, collusion_tolerance, extra_shares, pipeline_depth
            )
            <= epc_budget_bytes
        ):
            return k
    return 1


class AdaptiveFlushPolicy:
    """Per-shard learned flush deadline plus EPC-capped batch size.

    One instance per shard scheduler — shards see different tenant mixes,
    so each learns its own arrival process and service times
    independently.  All state is driven by explicit ``observe_*`` calls
    from the serving layer (arrivals from admission, flushes from the
    scheduler, timings from the worker pool), so a replayed trace adapts
    deterministically.

    Parameters
    ----------
    batch_size:
        The provisioned virtual-batch size ``K`` (already EPC-clamped by
        the server when a budget is known).
    max_wait:
        The deployment's static flush deadline; used as the ceiling when
        :attr:`AdaptiveBatchingConfig.max_wait` is unset, and as the
        deadline until enough arrivals have been observed to predict.
    config:
        Adaptive knobs; defaults are sensible for the repo's traces.
    slot_bytes:
        Analytic per-slot working-set estimate
        (:func:`estimate_slot_bytes`); refined upward by observation.
    epc_budget_bytes:
        Usable EPC available to one in-flight window (headroom already
        applied by the caller, or pass raw and let the policy apply
        ``config.epc_headroom``).  ``None`` disables the cap.
    collusion_tolerance / extra_shares / pipeline_depth:
        Masking shape facts the working-set model needs.
    budget_ceiling:
        Optional extra deadline ceiling from the deployment's SLO policy
        (the tightest class's flush budget).  The learned wait — and the
        winsorization bound the inter-arrival EWMA is clipped at — never
        exceeds it, so adaptation cannot violate a premium contract.
    """

    def __init__(
        self,
        batch_size: int,
        max_wait: float,
        config: AdaptiveBatchingConfig | None = None,
        slot_bytes: int | None = None,
        epc_budget_bytes: int | None = None,
        collusion_tolerance: int = 1,
        extra_shares: int = 0,
        pipeline_depth: int = 1,
        budget_ceiling: float | None = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
        if max_wait <= 0:
            raise ConfigurationError(f"max wait must be > 0, got {max_wait}")
        if budget_ceiling is not None and budget_ceiling <= 0:
            raise ConfigurationError(
                f"budget ceiling must be > 0, got {budget_ceiling}"
            )
        self.config = config or AdaptiveBatchingConfig()
        self.base_batch_size = batch_size
        self.ceiling = (
            self.config.max_wait if self.config.max_wait is not None else max_wait
        )
        if budget_ceiling is not None:
            self.ceiling = min(self.ceiling, budget_ceiling)
        self.floor = min(self.config.min_wait, self.ceiling)
        self._collusion = collusion_tolerance
        self._extra = extra_shares
        self._depth = pipeline_depth
        self._slot_bytes = int(slot_bytes or 0)
        self._budget = (
            int(epc_budget_bytes * self.config.epc_headroom)
            if epc_budget_bytes is not None
            else None
        )
        # Learned state.
        self._gap_ewma: float | None = None
        self._last_arrival: float | None = None
        self._service_ewma: float | None = None
        self._stretch = 1.5  # start between "trust the estimate" and "pad it"
        #: Outstanding early-flush probes: ``(flush_time, static_deadline)``
        #: pairs whose verdict (premature vs harmless) awaits the next
        #: arrival — see :meth:`observe_flush`.
        self._probes: deque[tuple[float, float]] = deque()
        # Telemetry.
        self.arrivals = 0
        self.deadline_flushes = 0
        self.partial_deadline_flushes = 0
        self.premature_flushes = 0

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def observe_arrival(self, now: float) -> None:
        """Fold one admitted arrival into the inter-arrival EWMA.

        Gaps are winsorized at the deadline ceiling before folding: an
        idle period longer than any deadline we could set (a burst
        boundary) says only "longer than the ceiling" — letting its raw
        magnitude swamp the EWMA would blind the policy to the intra-burst
        rate for the rest of the next burst.
        """
        self.arrivals += 1
        if self._last_arrival is not None:
            gap = min(max(0.0, now - self._last_arrival), self.ceiling)
            alpha = self.config.ewma_alpha
            self._gap_ewma = (
                gap
                if self._gap_ewma is None
                else alpha * gap + (1.0 - alpha) * self._gap_ewma
            )
        self._last_arrival = now
        self._resolve_probes(now)

    def _resolve_probes(self, now: float) -> None:
        """Judge outstanding early flushes against this arrival.

        A probe whose static deadline passed with no arrival was a *free*
        early flush (the batch could never have been filled — the typical
        burst tail): tighten.  An arrival landing before the static
        deadline means the early flush forfeited a slot the static server
        would have filled — a genuine fill miss: relax.
        """
        while self._probes and self._probes[0][1] < now:
            self._probes.popleft()
            self._stretch = max(_STRETCH_MIN, self._stretch * _STRETCH_DOWN)
        while self._probes and self._probes[0][0] <= now <= self._probes[0][1]:
            self._probes.popleft()
            self.premature_flushes += 1
            self._stretch = min(_STRETCH_MAX, self._stretch * _STRETCH_UP)

    def observe_flush(
        self,
        trigger: str,
        n_requests: int,
        wait_used: float | None = None,
        flush_time: float | None = None,
    ) -> None:
        """Steer the stretch controller from one flushed batch's fill.

        Only deadline flushes carry signal: a size-triggered flush says
        nothing about whether the deadline was tight or loose.  A partial
        flush below the target fill is not judged immediately — whether
        flushing early was a mistake depends on whether an arrival would
        have filled the batch before the *static* deadline, which only
        the future can tell; the flush is recorded as a probe that the
        next arrival resolves (:meth:`_resolve_probes`).  Partials that
        already waited the full ceiling carry no signal at all: no
        admissible deadline could have filled them.
        """
        if trigger != "deadline":
            return
        self.deadline_flushes += 1
        fill = n_requests / max(1, self.batch_size)
        if fill < self.config.target_fill:
            self.partial_deadline_flushes += 1
            if (
                wait_used is not None
                and flush_time is not None
                and wait_used < self.ceiling * (1.0 - 1e-9)
            ):
                self._probes.append(
                    (flush_time, flush_time - wait_used + self.ceiling)
                )
        else:
            self._stretch = max(_STRETCH_MIN, self._stretch * _STRETCH_DOWN)

    def observe_window(self, feedback: WindowFeedback) -> None:
        """Fold one dispatched window's measured timings into the policy."""
        if feedback.n_batches > 0:
            per_batch = feedback.enclave_busy / feedback.n_batches
            alpha = self.config.ewma_alpha
            self._service_ewma = (
                per_batch
                if self._service_ewma is None
                else alpha * per_batch + (1.0 - alpha) * self._service_ewma
            )
        if feedback.slot_bytes_observed > self._slot_bytes:
            self._slot_bytes = int(feedback.slot_bytes_observed)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """The EPC-capped coalescing target ``K``."""
        if self._budget is None or self._slot_bytes <= 0:
            return self.base_batch_size
        return min(
            self.base_batch_size,
            epc_fitting_batch_size(
                self.base_batch_size,
                self._slot_bytes,
                self._budget,
                self._collusion,
                self._extra,
                self._depth,
            ),
        )

    def current_wait(self, pending: int = 0) -> float:
        """The learned flush deadline for the oldest queued request.

        Predicts the time to fill the remaining ``K - pending`` slots at
        the observed arrival rate, stretched by the fill controller, then
        clamps into ``[floor, ceiling]`` where the floor also tracks the
        measured per-batch enclave occupancy.  With no observed arrivals
        yet the static deadline stands.
        """
        floor = self.floor
        if self._service_ewma is not None:
            floor = max(
                floor,
                min(self.ceiling, _SERVICE_FLOOR_FRACTION * self._service_ewma),
            )
        if self._gap_ewma is None or self.arrivals < self.config.warmup_arrivals:
            return self.ceiling
        # Never predict below two gaps: arrival jitter around the EWMA
        # would otherwise fire the deadline between back-to-back arrivals
        # of a healthy burst and shred it into partial flushes.
        slots_missing = max(2, self.batch_size - max(0, pending))
        predicted = self._stretch * self._gap_ewma * slots_missing
        if not math.isfinite(predicted):
            return self.ceiling
        return min(self.ceiling, max(floor, predicted))

    def window_working_set_bytes(self, slots: int) -> int:
        """Working-set bytes a flushed batch of ``slots`` slots occupies."""
        return working_set_bytes(
            max(1, slots), self._slot_bytes, self._collusion, self._extra, self._depth
        )

    @property
    def epc_budget_bytes(self) -> int | None:
        """Headroom-adjusted EPC budget the cap enforces (None = uncapped)."""
        return self._budget

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Learned state as strict-JSON-safe scalars (no Infinity/NaN)."""

        def _safe(value):
            if value is None:
                return None
            value = float(value)
            return value if math.isfinite(value) else None

        return {
            "batch_size": self.batch_size,
            "base_batch_size": self.base_batch_size,
            "current_wait": _safe(self.current_wait()),
            "wait_floor": _safe(self.floor),
            "wait_ceiling": _safe(self.ceiling),
            "gap_ewma": _safe(self._gap_ewma),
            "service_ewma": _safe(self._service_ewma),
            "stretch": _safe(self._stretch),
            "arrivals": self.arrivals,
            "deadline_flushes": self.deadline_flushes,
            "partial_deadline_flushes": self.partial_deadline_flushes,
            "premature_flushes": self.premature_flushes,
            "slot_bytes": self._slot_bytes,
            "epc_budget_bytes": self._budget,
        }
