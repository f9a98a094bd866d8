"""Pipelined vs. non-pipelined execution timelines (Fig. 5's two settings).

The paper's non-pipelined design serialises TEE encoding, transfers and GPU
compute; the pipelined design (Section 7.1) encodes virtual batch ``v+1``
and streams data "under the shadow of GPUs execution time".  In steady
state the three resources — TEE, link, GPUs — each process one virtual
batch per stage, so the per-sample wall time collapses to the slowest
stream plus a negligible pipeline fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.costs import PhaseBreakdown


@dataclass(frozen=True)
class TimelineSummary:
    """Per-sample wall times under both execution disciplines."""

    non_pipelined: float
    pipelined: float


def build_timeline(breakdown: PhaseBreakdown) -> TimelineSummary:
    """Map a phase breakdown onto the three hardware streams.

    TEE stream = non-linear ops + encode/decode; GPU stream = offloaded
    linear ops; link stream = transfers.  Non-pipelined executes them
    back-to-back; pipelined overlaps them completely in steady state.
    """
    tee = breakdown.nonlinear + breakdown.encode_decode
    gpu = breakdown.linear
    link = breakdown.communication
    return TimelineSummary(non_pipelined=tee + gpu + link, pipelined=max(tee, gpu, link))

