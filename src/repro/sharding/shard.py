"""One enclave shard: a trusted unit with its own serialized timeline.

DarKnight's enclave is the serialized resource — every encode, decode, and
TEE-resident layer queues on one clock.  A shard bundles one such unit end
to end: an :class:`~repro.enclave.Enclave`, a
:class:`~repro.gpu.GpuCluster` sized for the masking parameters, and the
:class:`~repro.pipeline.PipelineExecutor` that runs every window on the
shard's *own* :class:`EnclaveTimeline`.  Shards
therefore progress in parallel on the simulated clock; the router decides
which tenants ride which timeline.

Failure is a first-class event: an unhealthy shard (or one past
:meth:`EnclaveShard.fail_after`'s threshold) makes subsequent dispatch
raise :class:`~repro.errors.ShardFailedError` carrying one ``(groups,
stats)`` account of the window batches that did complete, so the worker
pool can fail the remainder over to a surviving shard without dropping a
response.  The shard keeps no occupancy of its own: :attr:`busy_time` is
its timeline's.
"""

from __future__ import annotations

import dataclasses

from repro.comm import LinkModel
from repro.enclave import DEFAULT_CODE_IDENTITY, Enclave
from repro.errors import ShardFailedError
from repro.gpu import GpuCluster
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.stages import WindowItem
from repro.pipeline.timing import StageCostModel
from repro.runtime.config import DarKnightConfig
from repro.runtime.darknight import DarKnightBackend


class EnclaveShard:
    """An enclave + GPU cluster + pipeline executor behind one shard id.

    Parameters
    ----------
    shard_id:
        Position in the deployment's shard list (stable across failover).
    executor:
        The shard's pipeline executor; its backend owns the enclave and
        cluster, and its timeline is the shard's clock.  Build one from
        scratch with :meth:`provision`.
    """

    def __init__(
        self, shard_id: int, executor: PipelineExecutor, provisioned_at: float = 0.0
    ) -> None:
        self.shard_id = shard_id
        self.executor = executor
        self.healthy = True
        self.batches_run = 0
        self._fail_after: int | None = None
        #: The shard's service life on the simulated clock: from
        #: ``provisioned_at`` until it is decommissioned (``retired_at``)
        #: or taken out of rotation by failover (``failed_at``).
        self.provisioned_at = provisioned_at
        self.retired_at: float | None = None
        self.failed_at: float | None = None

    @classmethod
    def provision(
        cls,
        shard_id: int,
        network,
        config: DarKnightConfig,
        code_identity: str | bytes = DEFAULT_CODE_IDENTITY,
        stage_costs: StageCostModel | None = None,
        cluster: GpuCluster | None = None,
        enclave: Enclave | None = None,
        link: LinkModel | None = None,
        provisioned_at: float = 0.0,
        precompute: bool = False,
    ) -> "EnclaveShard":
        """Build a shard's full trusted stack from a DarKnight config.

        The shard's enclave randomness is derived from ``config.seed`` and
        the shard id, so multi-shard deployments stay deterministic while
        every shard masks with independent coefficients/noise.  (Decoded
        logits never depend on the seed — masking decodes exactly.)  Its
        backend runs in the serving mode — one reused coefficient set,
        per-slot normalisation, no backward — and ``precompute`` is the
        deployment's offline/online switch (``ServingConfig.precompute``).
        """
        seed = None if config.seed is None else config.seed + shard_id
        shard_config = dataclasses.replace(config, seed=seed)
        enclave = enclave or Enclave(code_identity=code_identity, seed=seed)
        backend = DarKnightBackend(
            shard_config, enclave=enclave, cluster=cluster, link=link,
            serving=True, precompute=precompute,
        )
        executor = PipelineExecutor(
            network,
            backend,
            pipeline_depth=shard_config.pipeline_depth,
            costs=stage_costs,
        )
        return cls(shard_id, executor, provisioned_at)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def enclave(self) -> Enclave:
        """The shard's trust anchor."""
        return self.executor.backend.enclave

    @property
    def backend(self) -> DarKnightBackend:
        """The shard's masked execution backend."""
        return self.executor.backend

    @property
    def cluster(self) -> GpuCluster:
        """The shard's simulated accelerator pool."""
        return self.executor.backend.cluster

    @property
    def timeline(self):
        """The shard's serialized enclave clock."""
        return self.executor.timeline

    @property
    def busy_time(self) -> float:
        """Enclave-occupied simulated seconds, aborted windows included —
        read from the timeline that books them."""
        return self.timeline.busy_time

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def retired(self) -> bool:
        """True once :meth:`decommission` closed the shard's service life."""
        return self.retired_at is not None

    def decommission(self, now: float = 0.0) -> None:
        """Planned retirement: drained, flushed, sessions migrated, done.

        Unlike a failure, this is the graceful end of the lifecycle —
        the shard's shard-seconds close at ``now``.
        """
        self.healthy = False
        self.retired_at = now

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_after(self, n_batches: int) -> None:
        """Arrange for the shard to die after ``n_batches`` total batches.

        When the threshold lands inside a dispatched window the shard
        runs the batches it still owes as one window, then fails
        *mid-window* — exactly the scenario session failover must survive.
        """
        self._fail_after = n_batches

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run_window(self, items: list[WindowItem], step_range: tuple[int, int] | None = None):
        """Run one flush window on this shard's timeline.

        One :class:`~repro.pipeline.stages.WindowItem` per batch; returns
        ``(groups, stats)`` exactly like
        :meth:`~repro.pipeline.PipelineExecutor.run_grouped`.
        ``step_range`` restricts the run to one layer-partition stage range
        (this shard's slice of the plan).

        Raises
        ------
        ShardFailedError
            When the shard is dead (nothing ran) or dies mid-window (the
            error carries the completed prefix, run as one window, so no
            response is lost).
        """
        if not self.healthy:
            raise ShardFailedError(
                f"shard {self.shard_id} is down", shard_id=self.shard_id
            )
        if self._fail_after is not None:
            budget = max(0, self._fail_after - self.batches_run)
            if budget < len(items):
                completed = self._run(items[:budget], step_range) if budget else None
                self.healthy = False
                raise ShardFailedError(
                    f"shard {self.shard_id} failed mid-window after"
                    f" {self.batches_run} batches",
                    shard_id=self.shard_id,
                    completed=completed,
                )
        return self._run(items, step_range)

    def _run(self, items: list[WindowItem], step_range: tuple[int, int] | None):
        groups, stats = self.executor.run_grouped(items, step_range=step_range)
        self.batches_run += len(items)
        return groups, stats
