"""First-class stage objects for the encode -> dispatch -> decode split.

The synchronous backend hid the paper's three-phase structure inside one
blocking call; these dataclasses make each phase's hand-off explicit so a
scheduler can hold, reorder, and overlap them:

* :class:`StagedLinearOp` — one linear layer prepared for offload (weights
  quantized and broadcast, kernel chosen);
* :class:`EncodeTicket` — one virtual batch masked and scattered, waiting
  to be dispatched;
* :class:`GpuFuture` — shares in flight on the cluster; carries the real
  outputs plus the simulated completion time the decode stage must wait for.

The objects deliberately carry *both* worlds: the real tensors (masked
compute always runs for real) and the simulated-clock bookkeeping
(:mod:`repro.pipeline.timing`) that models where the time would go on
SGX + GPU hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.masking import CoefficientSet
from repro.quantization import Normalization


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
    virtual batch — or per stack of them.
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

    def apply_bias(self, y: np.ndarray) -> np.ndarray:
        """Add the (public) bias after decode, matching the sync path."""
        if self.bias is None:
            return y
        if self.kind == "conv2d":
            return y + self.bias.reshape(1, -1, 1, 1)
        return y + self.bias


@dataclass
class EncodeTicket:
    """One virtual batch encoded and scattered, ready for GPU dispatch."""

    op: StagedLinearOp
    share_key: str  #: Where the shares live on each device.
    coefficients: CoefficientSet
    vb_index: int  #: Position of this virtual batch within the parent batch.
    indices: tuple[int, ...]  #: Real-row positions inside the parent batch.
    n_real: int  #: Leading rows that are real (the rest is padding).
    x_norm: Normalization
    encode_bytes: int  #: Bytes of masked shares produced (prices the encode).
    #: Noise bytes drawn inline (pool miss or precompute off); priced on the
    #: encode when the cost model sets ``maskgen_bandwidth``.
    inline_noise_bytes: int = 0


@dataclass
class GpuFuture:
    """Shares in flight: real outputs now, simulated completion later.

    The cluster computes eagerly (simulation has no real asynchrony) but
    the result is not *observable* until ``ready_at`` on the simulated
    clock — the decode stage serializes behind it.  The synchronous path
    dispatches a layer's whole stack at once: ``ticket`` is then the
    sequence of its tickets and ``outputs`` carries a leading
    virtual-batch axis.
    """

    ticket: EncodeTicket | Sequence[EncodeTicket]
    outputs: np.ndarray  #: Stacked per-share field results.
    macs_per_share: int  #: Real MAC count one device performed.
    output_bytes: int  #: Bytes the gather/decode stage must touch.
    ready_at: float = 0.0  #: Simulated completion (set by the scheduler).


@dataclass(frozen=True)
class StageSpan:
    """One scheduled interval — the unit of the stage-timeline diagram."""

    job: int  #: Virtual-batch (pipeline job) index.
    layer: str  #: Layer key (or name, for TEE-resident layers).
    stage: str  #: ``encode`` | ``gpu`` | ``decode`` | ``tee``.
    resource: str  #: ``enclave`` or ``gpu``.
    start: float
    end: float


@dataclass
class PipelineStats:
    """What one pipelined run cost on the simulated clock."""

    start: float  #: When the first stage began.
    finish: float  #: When the last stage completed.
    n_jobs: int  #: Virtual batches executed.
    enclave_busy: float  #: Enclave-occupied seconds within the run.
    gpu_busy: float  #: Busiest single device's occupied seconds.
    stage_totals: dict[str, float] = field(default_factory=dict)
    spans: list[StageSpan] = field(default_factory=list)

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
