"""Simulated-time cost model and the serialized-enclave clock.

DarKnight's pipelining argument (Section 7.1) is about *where time
goes*: the enclave masks/unmasks at memory bandwidth, the GPUs grind MACs,
and the two can overlap as long as the enclave — the single trusted,
serialized resource — is never idle while work is available.  This module
prices each stage from the *real* byte counts and MAC counts the run
produced (nothing here is a guess about tensor shapes; the backend hands
the model what actually moved), and tracks the enclave's one-lane clock.

Per-GPU clocks live on :class:`repro.gpu.device.SimulatedGpu` — each share
occupies its device for the kernel's simulated duration, so virtual batches
contend for devices exactly as they contend for the enclave.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StageCostModel:
    """Linear simulated-seconds model for every pipeline stage.

    Defaults are calibrated so a VGG-style conv layer's GPU kernel is the
    same order as its enclave encode+decode — the regime where the paper's
    overlap argument bites — while a tiny dense layer stays enclave-bound
    (launch overheads dominate), which is what the serving benchmark's
    coalescing win relies on.

    Parameters
    ----------
    encode_bandwidth / decode_bandwidth:
        Bytes/second the enclave masks (encodes) or unmasks (decodes) at;
        masking is memory-traffic bound (Section 6).
    tee_bandwidth:
        Bytes/second for TEE-resident non-linear layers (ReLU/pool/BN).
    gpu_mac_throughput:
        Field multiply-accumulates/second one device sustains on a share.
    gpu_launch_overhead:
        Fixed seconds per kernel dispatch on a device.
    stage_overhead:
        Fixed seconds per enclave stage invocation (ecall/ocall boundary
        crossing plus dispatch bookkeeping).
    transfer_bandwidth:
        Bytes/second for a sealed activation hand-off between enclave
        shards in a layer-partitioned pipeline (the consumer enclave
        receives, MAC-verifies, and unseals inside the TEE, so the cost
        lands on *its* timeline).
    maskgen_bandwidth:
        Bytes/second the enclave generates mask/noise material and
        (re-)stages weight encodings at.  ``None`` (the default) keeps
        the legacy model where this work is free on the simulated clock;
        setting it prices inline noise draws and per-window weight
        staging, which is what makes the offline/online split
        (``precompute`` mode) visible as a simulated-latency win.
    """

    encode_bandwidth: float = 2e9
    decode_bandwidth: float = 2e9
    tee_bandwidth: float = 2e9
    gpu_mac_throughput: float = 1e9
    gpu_launch_overhead: float = 2e-5
    stage_overhead: float = 2e-4
    transfer_bandwidth: float = 2e9
    maskgen_bandwidth: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "encode_bandwidth",
            "decode_bandwidth",
            "tee_bandwidth",
            "gpu_mac_throughput",
            "transfer_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.gpu_launch_overhead < 0 or self.stage_overhead < 0:
            raise ConfigurationError("stage overheads must be >= 0")
        if self.maskgen_bandwidth is not None and self.maskgen_bandwidth <= 0:
            raise ConfigurationError(
                f"maskgen_bandwidth must be > 0 or None, got {self.maskgen_bandwidth}"
            )

    # ------------------------------------------------------------------
    # per-stage durations
    # ------------------------------------------------------------------
    def encode_time(self, nbytes: int) -> float:
        """Enclave seconds to mask one virtual batch into shares."""
        return self.stage_overhead + nbytes / self.encode_bandwidth

    def decode_time(self, nbytes: int) -> float:
        """Enclave seconds to gather/verify/unmask stacked GPU outputs."""
        return self.stage_overhead + nbytes / self.decode_bandwidth

    def local_time(self, nbytes: int) -> float:
        """Enclave seconds for one TEE-resident (non-linear) layer."""
        return self.stage_overhead + nbytes / self.tee_bandwidth

    def gpu_time(self, macs_per_share: int) -> float:
        """Device seconds for one share's bilinear kernel."""
        return self.gpu_launch_overhead + macs_per_share / self.gpu_mac_throughput

    def transfer_time(self, nbytes: int) -> float:
        """Consumer-enclave seconds to receive + unseal a cross-shard
        activation envelope."""
        return self.stage_overhead + nbytes / self.transfer_bandwidth

    def maskgen_time(self, nbytes: int) -> float:
        """Enclave seconds to quantize/broadcast a weight encoding.

        Priced only when :attr:`maskgen_bandwidth` is set; includes the
        ecall overhead because staging crosses the enclave boundary.
        Background pool refills deliberately do *not* use this — they
        run inside already-open enclave idle time, so they pay bytes
        only (see the executor's gap filler).
        """
        if self.maskgen_bandwidth is None:
            return 0.0
        return self.stage_overhead + nbytes / self.maskgen_bandwidth


#: Shared default so every entry point prices stages identically.
DEFAULT_STAGE_COSTS = StageCostModel()


class EnclaveTimeline:
    """The enclave's serialized simulated clock.

    One lane: every encode, decode, and TEE-resident layer reserves an
    exclusive interval.  The timeline persists across batches when shared
    (the serving worker pool holds one), which is what lets batch ``n+1``'s
    encode run — in simulated time — while batch ``n``'s shares are still
    on the GPUs.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.free_at = float(start)
        self.busy_time = 0.0

    def reserve(self, not_before: float, duration: float) -> tuple[float, float]:
        """Claim the next exclusive interval; returns ``(start, end)``."""
        if duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {duration}")
        start = max(self.free_at, not_before)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        return start, end
