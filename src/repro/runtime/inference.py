"""Private inference engine (the paper's Section 7.2 usage).

Forward pass and inference share the same encoding (Section 4: "forward
pass and inference are similar in terms of encoding and decoding
functions"), so the engine is a thin orchestration over the DarKnight
backend in inference mode, with optional per-layer integrity verification.

Execution is staged: the engine owns a
:class:`~repro.pipeline.executor.PipelineExecutor` that walks the network's
execution plan with up to ``pipeline_depth`` virtual batches in flight.
``pipeline_depth=1`` keeps the classic synchronous path (and
:meth:`PrivateInferenceEngine.run_batch` then drives the network's forward
loop directly, exactly as before); deeper pipelines overlap enclave
encode/decode with GPU compute.  All depths produce bit-identical logits —
masking decodes exactly, so stage order never changes values.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import Sequential
from repro.nn.loss import SoftmaxCrossEntropy
from repro.pipeline.executor import GroupResult, PipelineExecutor
from repro.pipeline.ranker import build_ranker
from repro.pipeline.stages import PipelineStats
from repro.pipeline.timing import EnclaveTimeline, StageCostModel
from repro.precompute import scratch_scope
from repro.runtime.config import DarKnightConfig
from repro.runtime.darknight import DarKnightBackend


class PrivateInferenceEngine:
    """Runs a trained model on private inputs via masked offload.

    Parameters
    ----------
    network:
        A trained model.
    config:
        DarKnight parameters; ``integrity=True`` adds the redundant share
        and verifies every GPU result (the DarKnight(K)+Integrity bars of
        Fig. 6a).  ``pipeline_depth`` sets how many virtual batches the
        executor keeps in flight.
    backend:
        Optionally share an existing backend (e.g. to reuse its cluster).
    pipeline_depth:
        Overrides ``config.pipeline_depth`` when given.
    stage_costs:
        Simulated-time pricing for the pipeline stages (timed runs).
    timeline:
        The enclave's serialized simulated clock.  Pass a shared instance
        so consecutive batches overlap on the clock (the serving worker
        pool does exactly this for cross-batch pipelining).
    """

    def __init__(
        self,
        network: Sequential,
        config: DarKnightConfig | None = None,
        backend: DarKnightBackend | None = None,
        pipeline_depth: int | None = None,
        stage_costs: StageCostModel | None = None,
        timeline: EnclaveTimeline | None = None,
    ) -> None:
        self.network = network
        self.backend = backend or DarKnightBackend(config or DarKnightConfig())
        depth = (
            pipeline_depth
            if pipeline_depth is not None
            else self.backend.config.pipeline_depth
        )
        if depth < 1:
            raise ConfigurationError(f"pipeline depth must be >= 1, got {depth}")
        self.pipeline_depth = depth
        self.timeline = timeline or EnclaveTimeline()
        self.executor = PipelineExecutor(
            network,
            self.backend,
            pipeline_depth=depth,
            costs=stage_costs,
            timeline=self.timeline,
            ranker=build_ranker(self.backend.config.stage_ranker),
        )

    @contextmanager
    def _released(self):
        """One batch or window of masked work, cleaned up on every exit.

        A precompute backend's hot path borrows the process-wide scratch
        pool for exactly this long; the switch is back where it was when
        the block ends, so the pool never leaks onto other backends.
        """
        with scratch_scope(self.backend.config.precompute):
            try:
                yield
            finally:
                self.backend.end_batch()
                self.backend.assert_encodings_released()

    def run_batch(self, x: np.ndarray) -> np.ndarray:
        """Run one pre-formed batch through the masked pipeline.

        The reusable single-batch entry point serving workers call.  At
        ``pipeline_depth=1`` this is the classic synchronous forward; at
        deeper settings the staged executor interleaves virtual batches.
        Either way the backend's stored encodings are released on every
        exit path — including decode/integrity failures and pipeline
        aborts mid-network — and the release is asserted, so a byzantine
        batch cannot wedge (or leak into) the next one.
        """
        with self._released():
            if self.pipeline_depth == 1:
                return self.network.forward(x, self.backend, training=False)
            return self.executor.run(x).output

    def run_batch_window(
        self, items: list[tuple], step_range: tuple[int, int] | None = None
    ) -> tuple[list[GroupResult], PipelineStats]:
        """Pipeline a *window* of batches through one executor event loop.

        ``items`` is ``(batch, release_time)`` — optionally ``(batch,
        release_time, deadline)`` for SLO-ranked windows — per scheduled
        batch.  This
        is where cross-batch overlap actually happens: the enclave encodes
        batch ``n+1``'s first layer while batch ``n``'s shares are still on
        the GPUs.  Returns one :class:`~repro.pipeline.executor.GroupResult`
        per input batch (its logits plus its own start/finish on the
        simulated clock) and the window-wide stats.

        ``step_range`` runs only that slice of the execution plan — one
        layer-partition shard's stage range; mid-plan items are live value
        dicts and may carry a fourth ``transfer_bytes`` element pricing
        the sealed hand-off (see
        :meth:`~repro.pipeline.PipelineExecutor.run_grouped`).
        """
        with self._released():
            return self.executor.run_grouped(items, step_range=step_range)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch of private inputs."""
        return self.run_batch(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions for a batch of private inputs."""
        return np.argmax(self.predict_logits(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy of private predictions."""
        return SoftmaxCrossEntropy.accuracy(self.predict_logits(x), y)
