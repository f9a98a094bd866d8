"""Layer-pipelined private execution: encode/compute/decode as a schedule.

DarKnight's pipelined setting (Section 7.1, Fig. 5) overlaps enclave
encode/decode with GPU linear compute.  This package makes that overlap a
first-class, inspectable schedule instead of an implementation accident:
stage objects (:mod:`repro.pipeline.stages`), a simulated-time cost model
and the serialized enclave clock (:mod:`repro.pipeline.timing`),
and the event-driven :class:`~repro.pipeline.executor.PipelineExecutor`
that interleaves stages across in-flight virtual batches.

The executor is the one stage scheduler, with one rank order: batching,
sharding, layer partitioning and SLO classes all reach it as windows of
:class:`~repro.pipeline.stages.WindowItem` s, never as alternative
schedulers.

Relationship to :mod:`repro.perf`: that package *predicts* schedules from
analytical architecture specs (the paper's tables/figures); this package
*executes* real masked compute and accounts the stages it actually ran.
The two answer different questions and deliberately do not share state.
"""

from repro.pipeline.executor import GroupResult, PipelineExecutor, PipelineResult
from repro.pipeline.stages import (
    EncodeTicket,
    GpuFuture,
    PipelineStats,
    StagedLinearOp,
    StageSpan,
    WindowItem,
)
from repro.pipeline.timing import DEFAULT_STAGE_COSTS, EnclaveTimeline, StageCostModel

__all__ = [
    "PipelineExecutor",
    "PipelineResult",
    "GroupResult",
    "WindowItem",
    "StagedLinearOp",
    "EncodeTicket",
    "GpuFuture",
    "StageSpan",
    "PipelineStats",
    "StageCostModel",
    "DEFAULT_STAGE_COSTS",
    "EnclaveTimeline",
]
