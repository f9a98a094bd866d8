"""Multi-tenant private-inference serving with virtual-batch coalescing.

The paper amortizes enclave encode/decode over a virtual batch; this
package applies the same argument to *traffic*: independent single-sample
requests from many tenants are coalesced into full virtual batches under
a max-latency deadline, served over one or more enclave + GPU shards
(:mod:`repro.sharding`) behind per-tenant attested, shard-scoped
sessions.  Multiple shards progress on parallel enclave timelines behind
one scheduler; a cross-enclave attestation mesh lets sessions fail over
when a shard dies.
"""

from repro.audit import AuditConfig, AuditTrail
from repro.serving.adaptive import (
    AdaptiveBatchingConfig,
    AdaptiveFlushPolicy,
    WindowFeedback,
    epc_fitting_batch_size,
    estimate_slot_bytes,
    working_set_bytes,
)
from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleEvent,
    ShardAutoscaler,
)
from repro.serving.config import PRESETS, ServingConfig
from repro.serving.metrics import ServerMetrics
from repro.serving.queue import RequestQueue
from repro.serving.requests import (
    STATUS_DECODE_FAILED,
    STATUS_INTEGRITY_FAILED,
    STATUS_OK,
    STATUS_SHARD_FAILED,
    STATUS_SHED,
    PendingRequest,
    RequestOutcome,
    ScheduledBatch,
)
from repro.serving.scheduler import ShardedBatchScheduler, VirtualBatchScheduler
from repro.serving.server import PrivateInferenceServer, ServingReport
from repro.serving.slo import (
    DEFAULT_SLO_CLASS,
    FLUSH_BUDGET_FRACTION,
    SloClass,
    SloPolicy,
    build_slo_policy,
)
from repro.serving.session import (
    ServingSession,
    SessionManager,
    ShardedSessionManager,
)
from repro.serving.trace import (
    TraceRequest,
    bursty_trace,
    phased_trace,
    ramping_trace,
    synthetic_trace,
    trace_from_arrays,
)
from repro.serving.unit import ServingUnit
from repro.serving.worker import InferenceWorkerPool

__all__ = [
    "AuditConfig",
    "AuditTrail",
    "AdaptiveBatchingConfig",
    "AdaptiveFlushPolicy",
    "WindowFeedback",
    "epc_fitting_batch_size",
    "estimate_slot_bytes",
    "working_set_bytes",
    "PendingRequest",
    "RequestOutcome",
    "ScheduledBatch",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_INTEGRITY_FAILED",
    "STATUS_DECODE_FAILED",
    "STATUS_SHARD_FAILED",
    "AutoscaleConfig",
    "AutoscaleEvent",
    "ShardAutoscaler",
    "PRESETS",
    "RequestQueue",
    "VirtualBatchScheduler",
    "ShardedBatchScheduler",
    "SloClass",
    "SloPolicy",
    "DEFAULT_SLO_CLASS",
    "FLUSH_BUDGET_FRACTION",
    "build_slo_policy",
    "ServingSession",
    "SessionManager",
    "ShardedSessionManager",
    "InferenceWorkerPool",
    "ServingUnit",
    "ServerMetrics",
    "PrivateInferenceServer",
    "ServingConfig",
    "ServingReport",
    "TraceRequest",
    "bursty_trace",
    "phased_trace",
    "ramping_trace",
    "synthetic_trace",
    "trace_from_arrays",
]
