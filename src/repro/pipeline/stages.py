"""First-class stage objects for the encode -> dispatch -> decode split.

The synchronous backend hid the paper's three-phase structure inside one
blocking call; these dataclasses make each phase's hand-off explicit so a
scheduler can hold, reorder, and overlap them:

* :class:`WindowItem` — one batch entering a flush window, with its release
  time, SLO deadline and any sealed hand-off bytes;
* :class:`StagedLinearOp` — one linear layer prepared for offload (weights
  quantized and broadcast, kernel chosen);
* :class:`PreparedStep` — what a layer step derives from its coefficient
  stack (encoder, verifier or decoder, device line-up, launch), built once;
* :class:`EncodeTicket` — one virtual batch masked and scattered, waiting
  to be dispatched;
* :class:`GpuFuture` — a stack of tickets' shares in flight on the cluster;
  carries the real outputs plus the simulated completion time the decode
  stage must wait for.

The objects deliberately carry *both* worlds: the real tensors (masked
compute always runs for real) and the simulated-clock bookkeeping
(:mod:`repro.pipeline.timing`) that models where the time would go on
SGX + GPU hardware.

Every window builds dozens of these, so each is a ``slots=True``
dataclass and none is frozen — a slotted record builds in less than half
a frozen one's time.  On the request path only
:class:`~repro.quantization.Normalization` stays frozen, because
``quantization.IDENTITY`` is one instance every caller shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.gpu import ShareLaunch
from repro.masking import ForwardDecoder, ForwardEncoder, IntegrityVerifier
from repro.masking.coefficients import CoefficientStack, as_stack
from repro.quantization import Normalization


@dataclass(slots=True)
class WindowItem:
    """One batch of a flush window, from the worker pool to the executor.

    ``payload`` is the batch's rows — the network input, or, entering a
    layer-partition shard mid-plan, the producer's live value dict
    (``{step index: rows}``).  No stage of it runs before ``release``.
    ``deadline`` is the tightest absolute SLO deadline among its requests
    (``inf`` without a contract), which ranks its jobs among equally early
    ones.  A positive ``transfer_bytes`` is the sealed hand-off the
    consuming enclave unseals before the first compute stage.
    """

    payload: np.ndarray | dict
    release: float
    deadline: float = math.inf
    transfer_bytes: int = 0


@dataclass(slots=True)
class PreparedStep:
    """What a layer step derives from its coefficient stack, built once.

    The masking objects over the step's stack — the encoder, and the
    verifier (integrity on) or the decoder, all reading the stack's own
    ``Aᵀ``, decode operands and plan — and the devices the launch runs on.
    A served layer keeps one on its :class:`StagedLinearOp` for the
    deployment's cached set, so a window pays only for its own numbers.  A
    training step builds one for its fresh stack, which its tickets carry
    through the forward and the backward until ``end_batch`` drops them.
    Nothing here views a thread's workspace.
    """

    sets: CoefficientStack
    encoder: ForwardEncoder
    #: ``IntegrityVerifier`` with integrity on, else ``ForwardDecoder``.
    check: IntegrityVerifier | ForwardDecoder
    lineup: range  #: Device ``j`` takes share ``j``.
    #: The layer's launch, validated once on the first dispatch; each
    #: later dispatch only names its share keys on it.
    launch: ShareLaunch | None = None

    @classmethod
    def build(cls, sets, rng, integrity: bool) -> "PreparedStep":
        """Prepare the masking of one stack (or sequence) of ``sets`` under ``rng``."""
        stack, _ = as_stack(sets)
        check = IntegrityVerifier(stack) if integrity else ForwardDecoder(stack)
        return cls(stack, ForwardEncoder(stack, rng), check, range(stack.n_shares))


@dataclass
class StagedLinearOp:
    """A linear layer readied for staged execution.

    Handed out by ``DarKnightBackend.stage_linear`` once per (layer,
    window) — with the layer's weights normalised, quantized and resident
    on every device under ``key``, so each virtual batch only pays for its
    own encode/dispatch/decode.  For inference the op (and the encoding
    behind it) is *kept*: as long as the layer's weight array still reads
    the same, later windows get this same object back with ``bias`` and
    ``staged_bytes`` refreshed, so hold an op for one window only.  The op
    *describes* the kernel (kind, weight name, conv geometry);
    ``DarKnightBackend.dispatch`` turns it into one cluster launch per
    stack of virtual batches.
    """

    kind: str  #: ``"conv2d"`` or ``"dense"``.
    #: Layer identity — names the broadcast weights on the devices and
    #: pairs forward encodings with backward reuse.
    key: str
    w_norm: Normalization
    bias: np.ndarray | None
    stride: int = 1  #: Conv geometry (ignored by dense ops).
    pad: int = 0
    #: Optional float reference over real rows (``validate_decode`` mode).
    validate: Callable[[np.ndarray, np.ndarray], None] | None = None
    #: Quantized-weight bytes broadcast by this staging call (a kept encoding
    #: re-broadcast counts); 0 when precompute mode left it resident on the
    #: devices.  Prices weight staging; the executor zeroes it once priced.
    staged_bytes: int = 0
    #: The served layer's step over the deployment's cached coefficient
    #: set, kept with the op (so a re-staged layer builds a new one).
    prepared: PreparedStep | None = None

    def apply_bias(self, y: np.ndarray) -> np.ndarray:
        """Add the (public) bias after decode, matching the sync path."""
        if self.bias is None:
            return y
        if self.kind == "conv2d":
            return y + self.bias.reshape(1, -1, 1, 1)
        return y + self.bias


@dataclass(slots=True)
class EncodeTicket:
    """One virtual batch encoded and scattered, ready for GPU dispatch."""

    op: StagedLinearOp
    share_key: str  #: Where the shares live on each device.
    prepared: PreparedStep  #: The step its stack was encoded by ...
    slot: int  #: ... and its place in that stack: ``prepared.sets[slot]``.
    vb_index: int  #: Position of this virtual batch within the parent batch.
    indices: tuple[int, ...]  #: Real-row positions inside the parent batch.
    n_real: int  #: Leading rows that are real (the rest is padding).
    x_norm: Normalization
    encode_bytes: int  #: Bytes of masked shares produced (prices the encode).
    #: Noise bytes drawn inline (pool miss or precompute off); priced on the
    #: encode when the cost model sets ``maskgen_bandwidth``.
    inline_noise_bytes: int = 0


@dataclass(slots=True)
class GpuFuture:
    """A stack's shares in flight: real outputs now, simulated completion later.

    The cluster computes eagerly (simulation has no real asynchrony) but
    the result is not *observable* until ``ready_at`` on the simulated
    clock — the decode stage serializes behind it.  The synchronous path
    dispatches a layer's whole stack at once, the executor a stack of one.
    """

    tickets: Sequence[EncodeTicket]
    outputs: np.ndarray  #: ``(V, S, ...)`` per-share field results.
    macs_per_share: int  #: Real MAC count one device performed.
    output_bytes: int  #: Bytes the gather/decode stage must touch.
    ready_at: float = 0.0  #: Simulated completion (set by the scheduler).


@dataclass(slots=True)
class StageSpan:
    """One scheduled interval — the unit of the stage-timeline diagram."""

    job: int  #: Virtual-batch (pipeline job) index.
    layer: str  #: Layer key (or name, for TEE-resident layers).
    stage: str  #: ``encode`` | ``gpu`` | ``decode`` | ``tee``.
    resource: str  #: ``enclave`` or ``gpu``.
    start: float
    end: float


@dataclass(slots=True)
class PipelineStats:
    """What one pipelined run cost on the simulated clock."""

    start: float  #: When the first stage began.
    finish: float  #: When the last stage completed.
    n_jobs: int  #: Virtual batches executed.
    enclave_busy: float  #: Enclave-occupied seconds within the run.
    gpu_busy: float  #: Busiest single device's occupied seconds.
    #: Seconds per stage: a run's spans summed in span order (a merge's
    #: parts' totals in parts order).
    stage_totals: dict[str, float] = field(default_factory=dict)
    spans: list[StageSpan] = field(default_factory=list)

    @classmethod
    def merge(cls, parts: Sequence["PipelineStats"]) -> "PipelineStats":
        """One account for several runs, e.g. a pipeline's member windows.

        The merged clock runs from the earliest start to the latest
        finish; jobs, occupancy and every stage total are summed in
        ``parts`` order.  Spans stay with their parts (their job indices
        are per run).
        """
        stage_totals: dict[str, float] = {}
        for part in parts:
            for name, secs in part.stage_totals.items():
                stage_totals[name] = stage_totals.get(name, 0.0) + secs
        return cls(
            start=min((p.start for p in parts), default=0.0),
            finish=max((p.finish for p in parts), default=0.0),
            n_jobs=sum(p.n_jobs for p in parts),
            enclave_busy=sum(p.enclave_busy for p in parts),
            gpu_busy=sum(p.gpu_busy for p in parts),
            stage_totals=stage_totals,
        )

    @property
    def makespan(self) -> float:
        """End-to-end simulated seconds for the run."""
        return self.finish - self.start

    @property
    def enclave_utilization(self) -> float:
        """Fraction of the makespan the enclave was busy."""
        return self.enclave_busy / self.makespan if self.makespan > 0 else 0.0

    @property
    def gpu_utilization(self) -> float:
        """Fraction of the makespan the busiest device was busy."""
        return self.gpu_busy / self.makespan if self.makespan > 0 else 0.0
