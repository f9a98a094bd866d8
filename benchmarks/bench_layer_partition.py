"""Layer-partitioned serving vs a single enclave on a deep model.

The scale-up argument in one exhibit: the same saturating trace of
mini-resnet requests served by one whole-model enclave shard and by
pipeline groups that cut the flattened execution plan into 2 and 3
contiguous stage ranges (``partition=layered:N``).  Each member shard
only holds ~1/N of the plan, so consecutive flush windows overlap
across members — window ``w+1``'s first stage starts as soon as the
entry shard finishes window ``w``'s first stage, not when the whole
model finishes — and per-request tail latency drops with partition
count, the axis whole-model replication cannot improve.

Acceptance (asserted below):

* 3-stage p99 <= 1/1.5 of the single-enclave p99 (>= 1.5x improvement);
* p99 improves monotonically from 1 -> 2 -> 3 partitions;
* zero shed/failed requests in every partitioning;
* logits bit-identical per request across replicated, layered:2, and
  layered:3 — partitioning is a pure placement decision.

The JSON artifact records ``p99_ratio``.
"""

import numpy as np
from conftest import show

from repro.cli import build_serving_model
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace

INPUT_SHAPE = (3, 8, 8)
K = 4
#: >= 1.5x p99 at 3 partitions, i.e. a p99 ratio of at most 1/1.5.
SPEEDUP_TARGET = 1.5


def _serve(trace, n_stages: int):
    """Serve ``trace`` on ``n_stages`` shards chained as one pipeline group."""
    network, _ = build_serving_model("mini-resnet", seed=0)
    partition = "replicated" if n_stages == 1 else f"layered:{n_stages}"
    config = ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=K, seed=0, num_shards=n_stages
        ),
        partition=partition,
        queue_capacity=2 * len(trace),
    )
    server = PrivateInferenceServer(network, config)
    return server.serve_trace(trace)


def test_layer_partition_cuts_p99_with_bit_identical_logits(
    benchmark, capsys, quick
):
    n = 24 if quick else 64
    # Saturating arrivals: the single enclave queues deeply, so tail
    # latency is governed by service throughput — the axis partitioning
    # multiplies.
    trace = synthetic_trace(
        n_requests=n,
        input_shape=INPUT_SHAPE,
        n_tenants=4,
        mean_interarrival=1e-5,
        seed=0,
    )

    def run_all():
        return {stages: _serve(trace, stages) for stages in (1, 2, 3)}

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Full completion everywhere so the latency comparison is fair.
    for report in reports.values():
        assert len(report.completed) == n
        assert all(o.ok for o in report.outcomes)

    # Bit-identical logits per request across every partitioning.
    baseline_logits = {o.request_id: o.logits for o in reports[1].completed}
    for stages in (2, 3):
        for o in reports[stages].completed:
            assert np.array_equal(o.logits, baseline_logits[o.request_id])

    p99 = {
        stages: report.metrics.latency_percentile(99)
        for stages, report in reports.items()
    }
    p99_ratio = p99[3] / p99[1]
    speedup = p99[1] / p99[3]

    benchmark.extra_info["n_requests"] = n
    benchmark.extra_info["p99_ratio"] = p99_ratio
    benchmark.extra_info["p99_ratio_2"] = p99[2] / p99[1]
    benchmark.extra_info["speedup_3_stages"] = speedup

    show(
        capsys,
        render_table(
            ["metric", "replicated (1)", "layered:2", "layered:3"],
            [
                [
                    "p99 (sim ms)",
                    f"{p99[1] * 1e3:.2f}",
                    f"{p99[2] * 1e3:.2f}",
                    f"{p99[3] * 1e3:.2f}",
                ],
                [
                    "p99 vs single",
                    "1.00x",
                    f"{p99[1] / p99[2]:.2f}x",
                    f"{speedup:.2f}x",
                ],
                [
                    "mean (sim ms)",
                    f"{reports[1].metrics.mean_latency * 1e3:.2f}",
                    f"{reports[2].metrics.mean_latency * 1e3:.2f}",
                    f"{reports[3].metrics.mean_latency * 1e3:.2f}",
                ],
            ],
            title=(
                f"Layer-partitioned serving — mini-resnet"
                f" ({n} requests, K={K}, target >= {SPEEDUP_TARGET:.1f}x p99"
                f" at 3 partitions)"
            ),
        ),
    )

    assert p99[2] < p99[1], (
        f"layered:2 p99 {p99[2]:.4f}s did not improve on the single-enclave"
        f" p99 {p99[1]:.4f}s"
    )
    assert p99[3] < p99[2], (
        f"layered:3 p99 {p99[3]:.4f}s did not improve on layered:2"
        f" p99 {p99[2]:.4f}s"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"3-partition p99 {p99[3]:.4f}s is only {speedup:.2f}x better than"
        f" the single-enclave p99 {p99[1]:.4f}s"
        f" (target {SPEEDUP_TARGET:.1f}x)"
    )
