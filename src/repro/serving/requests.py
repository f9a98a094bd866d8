"""Request/response records flowing through the serving subsystem.

One tenant request carries exactly one sample: the whole point of the
serving layer is that the *server* — not the caller — assembles the
paper's virtual batches out of independent single-sample requests
(Section 3.1's amortization argument applied to concurrent traffic).
All timestamps are simulated-clock seconds from the offline trace driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Outcome states a request can end in.  Three of them are sheds: an
#: arrival refused for a full deployment (``shed``), a pending request
#: evicted for a higher-priority arrival, and a sample the model cannot take.
STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_EVICTED = "evicted"
STATUS_MALFORMED = "malformed"
STATUS_INTEGRITY_FAILED = "integrity_failed"
STATUS_DECODE_FAILED = "decode_failed"
STATUS_SHARD_FAILED = "shard_failed"


@dataclass(slots=True)
class PendingRequest:
    """One decrypted single-sample request waiting for a virtual batch.

    Attributes
    ----------
    request_id:
        Server-assigned monotonically increasing id.
    tenant:
        The client this sample belongs to (fairness + session lookup key).
    x:
        The decrypted sample, shape = model input shape (no batch axis).
    arrival_time:
        When the request reached the server, which is also when it entered
        a request queue; re-homing to another queue keeps it.
    """

    request_id: int
    tenant: str
    x: np.ndarray
    arrival_time: float


@dataclass(slots=True)
class RequestOutcome:
    """The terminal record of one request's trip through the server."""

    request_id: int
    tenant: str
    status: str
    arrival_time: float
    dispatch_time: float | None = None
    completion_time: float | None = None
    batch_id: int | None = None
    logits: np.ndarray | None = None
    prediction: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the request produced a verified prediction."""
        return self.status == STATUS_OK

    @property
    def latency(self) -> float | None:
        """Arrival-to-completion latency in simulated seconds."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time


@dataclass(slots=True)
class ScheduledBatch:
    """A coalesced virtual batch handed from the scheduler to a worker.

    Attributes
    ----------
    batch_id:
        Scheduler-assigned id (monotonic).
    requests:
        The coalesced requests, at most ``slots`` of them; a partial batch
        is padded up to the virtual-batch size inside the backend.
    flush_time:
        Simulated time the scheduler released the batch.
    trigger:
        Why it flushed: ``"size"`` (filled up), ``"deadline"`` (oldest
        request hit the max-latency budget), or ``"drain"`` (shutdown).
    slots:
        The virtual-batch size ``K`` the batch occupies on the enclave/GPUs
        regardless of fill (padding slots still cost encode/decode work).
    shard_id:
        The enclave shard the batch is bound for (every request in the
        batch is from a tenant pinned to that shard); re-written by the
        worker pool when the batch fails over to a survivor.
    retries:
        Times the batch was re-dispatched after a shard failure.

    A batch carries no deadline: the worker pool derives one from the
    requests it holds at dispatch, so a failover retry's deadline is its
    surviving requests' own.
    """

    batch_id: int
    requests: list = field(default_factory=list)
    flush_time: float = 0.0
    trigger: str = "size"
    slots: int = 1
    shard_id: int = 0
    retries: int = 0

    @property
    def n_requests(self) -> int:
        """Real samples in the batch."""
        return len(self.requests)

    @property
    def fill_ratio(self) -> float:
        """Fraction of virtual-batch slots carrying real samples."""
        return self.n_requests / max(1, self.slots)
