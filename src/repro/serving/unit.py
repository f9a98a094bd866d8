"""One serving unit: an enclave+GPU stack and the serving state bound to it.

DarKnight's unit of trust, attestation and scheduling is one TEE with its
``K + M (+1)`` non-colluding GPUs.  A :class:`ServingUnit` is that unit as
the serving layer sees it: the executor tenants are routed to (a
:class:`~repro.sharding.PipelineGroup` of ``N >= 1`` chained shards —
one under ``replicated``, ``N`` under ``layered:N``) together with the
queue, coalescing scheduler and attested sessions that exist only because
that executor does.

:class:`~repro.serving.server.PrivateInferenceServer` holds the one
ordered collection of units — ``units[i].unit_id == i``, ids are never
reused, retired units stay in place — and
:class:`~repro.serving.membership.Membership`, the sharded scheduler and
the worker pool share that list by reference.  Lifecycle is not stored
here: it is whatever the executor says it is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.queue import RequestQueue
from repro.serving.scheduler import VirtualBatchScheduler
from repro.serving.session import SessionManager
from repro.sharding import EnclaveShard, PipelineGroup


@dataclass
class ServingUnit:
    """Everything the serving layer keeps per routing unit."""

    #: What runs this unit's flush windows; its ``shard_id`` is the id the
    #: router pins tenants to.
    executor: PipelineGroup
    queue: RequestQueue
    #: Coalesces ``queue`` (and carries the unit's flush policy, if any).
    scheduler: VirtualBatchScheduler
    #: Tenant sessions terminating on the executor's entry enclave.
    sessions: SessionManager

    @property
    def unit_id(self) -> int:
        return self.executor.shard_id

    @property
    def shards(self) -> list[EnclaveShard]:
        """The physical shards behind the executor, entry to exit."""
        return self.executor.members

    @property
    def state(self) -> str:
        """``active`` / ``failed`` / ``retired``."""
        return self.executor.state
