"""One enclave shard: a trusted unit with its own serialized timeline.

DarKnight's enclave is the serialized resource — every encode, decode, and
TEE-resident layer queues on one clock.  A shard bundles one such unit end
to end: an :class:`~repro.enclave.Enclave`, a
:class:`~repro.gpu.GpuCluster` sized for the masking parameters, and a
:class:`~repro.runtime.inference.PrivateInferenceEngine` whose staged
executor runs on the shard's *own* :class:`EnclaveTimeline`.  Shards
therefore progress in parallel on the simulated clock; the router decides
which tenants ride which timeline.

Failure is a first-class event: :meth:`EnclaveShard.kill` (or the
test-facing :meth:`EnclaveShard.fail_after`) makes subsequent dispatch
raise :class:`~repro.errors.ShardFailedError` carrying the window batches
that did complete, so the worker pool can fail the remainder over to a
surviving shard without dropping a response.
"""

from __future__ import annotations

import dataclasses

from repro.comm import LinkModel
from repro.enclave import Enclave, EpcModel
from repro.errors import DecodingError, IntegrityError, ShardFailedError
from repro.gpu import GpuCluster
from repro.pipeline.timing import StageCostModel
from repro.runtime.config import DarKnightConfig
from repro.runtime.darknight import DarKnightBackend
from repro.runtime.inference import PrivateInferenceEngine


class EnclaveShard:
    """An enclave + GPU cluster + pipeline engine behind one shard id.

    Parameters
    ----------
    shard_id:
        Position in the deployment's shard list (stable across failover).
    engine:
        The shard's private-inference engine; its backend owns the
        enclave and cluster, and its timeline is the shard's clock.
        Build one from scratch with :meth:`provision`.
    """

    def __init__(self, shard_id: int, engine: PrivateInferenceEngine) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self.healthy = True
        self.batches_run = 0
        #: Enclave-occupied simulated seconds across dispatched windows.
        self.busy_time = 0.0
        self._fail_after: int | None = None
        #: Lifecycle marks for elastic membership (simulated seconds).
        self.draining = False
        self.provisioned_at = 0.0
        self.retired_at: float | None = None

    @classmethod
    def provision(
        cls,
        shard_id: int,
        network,
        config: DarKnightConfig,
        code_identity: str | bytes = "darknight-enclave-v1",
        stage_costs: StageCostModel | None = None,
        cluster: GpuCluster | None = None,
        enclave: Enclave | None = None,
        link: LinkModel | None = None,
    ) -> "EnclaveShard":
        """Build a shard's full trusted stack from a DarKnight config.

        The shard's enclave randomness is derived from ``config.seed`` and
        the shard id, so multi-shard deployments stay deterministic while
        every shard masks with independent coefficients/noise.  (Decoded
        logits never depend on the seed — masking decodes exactly.)
        """
        seed = None if config.seed is None else config.seed + shard_id
        shard_config = dataclasses.replace(config, seed=seed)
        epc = (
            EpcModel(usable_bytes=config.epc_budget_bytes)
            if config.epc_budget_bytes is not None
            else None
        )
        enclave = enclave or Enclave(code_identity=code_identity, seed=seed, epc=epc)
        backend = DarKnightBackend(
            shard_config, enclave=enclave, cluster=cluster, link=link
        )
        engine = PrivateInferenceEngine(
            network, backend=backend, stage_costs=stage_costs
        )
        return cls(shard_id, engine)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def enclave(self) -> Enclave:
        """The shard's trust anchor."""
        return self.engine.backend.enclave

    @property
    def backend(self) -> DarKnightBackend:
        """The shard's masked execution backend."""
        return self.engine.backend

    @property
    def cluster(self) -> GpuCluster:
        """The shard's simulated accelerator pool."""
        return self.engine.backend.cluster

    @property
    def timeline(self):
        """The shard's serialized enclave clock."""
        return self.engine.timeline

    @property
    def n_gpus(self) -> int:
        """Simulated devices this shard occupies."""
        return len(self.cluster)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def retired(self) -> bool:
        """True once :meth:`decommission` closed the shard's service life."""
        return self.retired_at is not None

    @property
    def state(self) -> str:
        """``active`` / ``draining`` / ``retired`` / ``failed``."""
        if self.retired:
            return "retired"
        if not self.healthy:
            return "failed"
        if self.draining:
            return "draining"
        return "active"

    def begin_drain(self) -> None:
        """Mark the shard as winding down; it still serves pinned work."""
        self.draining = True

    def decommission(self, now: float = 0.0) -> None:
        """Planned retirement: drained, flushed, sessions migrated, done.

        Unlike :meth:`kill`, this is the graceful end of the lifecycle —
        the autoscaler's shard-seconds accounting closes at ``now``.
        """
        self.draining = False
        self.healthy = False
        self.retired_at = now

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Take the shard down; subsequent dispatch raises ShardFailedError."""
        self.healthy = False

    def fail_after(self, n_batches: int) -> None:
        """Arrange for the shard to die after ``n_batches`` total batches.

        When the threshold lands inside a dispatched window the shard
        completes the batches it still owes, then fails *mid-window* —
        exactly the scenario session failover must survive.
        """
        self._fail_after = n_batches

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run_window(self, items: list[tuple], step_range: tuple[int, int] | None = None):
        """Run one flush window on this shard's timeline.

        ``items`` entries are ``(batch, release_time)`` or ``(batch,
        release_time, deadline)``; returns ``(groups, stats)`` exactly like
        :meth:`~repro.runtime.inference.PrivateInferenceEngine.run_batch_window`.
        ``step_range`` restricts the run to one layer-partition stage range
        (this shard's slice of the plan).

        Raises
        ------
        ShardFailedError
            When the shard is dead (nothing ran) or dies mid-window (the
            error carries the completed prefix so no response is lost).
        """
        if not self.healthy:
            raise ShardFailedError(
                f"shard {self.shard_id} is down", shard_id=self.shard_id
            )
        budget = None
        if self._fail_after is not None:
            budget = max(0, self._fail_after - self.batches_run)
        if budget is not None and budget < len(items):
            completed = []
            for item in items[:budget]:
                completed.append(self._run([item], step_range))
            self.healthy = False
            raise ShardFailedError(
                f"shard {self.shard_id} failed mid-window after"
                f" {self.batches_run} batches",
                shard_id=self.shard_id,
                completed=completed,
                remaining_from=budget,
            )
        return self._run(items, step_range)

    def _run(self, items: list[tuple], step_range: tuple[int, int] | None):
        """One engine window, with its enclave occupancy on the shard's books.

        A window aborted by an integrity/decode failure still occupied the
        enclave up to the failure point; that occupancy is charged here,
        where the timeline is, before the error travels on.
        """
        busy_before = self.timeline.busy_time
        try:
            groups, stats = self.engine.run_batch_window(items, step_range=step_range)
        except (IntegrityError, DecodingError):
            self.busy_time += self.timeline.busy_time - busy_before
            raise
        self.batches_run += len(items)
        self.busy_time += stats.enclave_busy
        return groups, stats
