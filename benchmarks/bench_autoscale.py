"""Elastic shard autoscaling vs static provisioning on a phased trace.

The autoscaling argument in one exhibit: diurnal-in-miniature traffic
(heavy / lull / heavy phases) served three ways — statically
max-provisioned (4 shards for the whole run), statically min-provisioned
(1 shard), and elastically (1-4 shards under the control loop).  The
elastic deployment must hold tail latency close to the static maximum
while paying far fewer shard-seconds (provisioned capacity integrated
over simulated time — the "shard-hours" bill), and per-sample
normalization must keep every response bit-identical across all three.

Acceptance (asserted below):

* elastic p99 <= 1.10x the static 4-shard p99;
* elastic shard-seconds <= 0.70x the static 4-shard bill;
* zero failed/shed requests under every membership change;
* logits bit-identical to both static deployments, per request.

The JSON artifact records ``p99_ratio`` / ``shard_seconds_ratio``.
"""

import numpy as np
from conftest import show

from repro.cli import build_serving_model
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import (
    AutoscaleConfig,
    PrivateInferenceServer,
    ServingConfig,
    phased_trace,
)

INPUT_SHAPE = (16,)
K = 4
MAX_SHARDS = 4
#: Acceptance bounds, asserted below.
P99_BUDGET = 1.10
SHARD_SECONDS_BUDGET = 0.70

# Scale-out is deliberately twitchy (react to a flood within a couple of
# evaluation windows) while scale-in stays conservative — provisioning
# late is what costs tail latency, decommissioning late only costs a few
# shard-seconds.
AUTOSCALE = AutoscaleConfig(
    min_shards=1,
    max_shards=MAX_SHARDS,
    eval_interval=2e-4,
    scale_out_cooldown=3e-4,
    scale_in_cooldown=5e-3,
    queue_high=2.0,
    queue_low=0.5,
    breaches_to_scale_out=1,
    breaches_to_scale_in=6,
)


def _trace(n: int):
    """Heavy / lull / heavy: each heavy phase saturates a single shard,
    the lull leaves a static max deployment mostly idle."""
    heavy = (2 * n) // 5
    lull = n - 2 * heavy
    return phased_trace(
        [(heavy, 2e-5), (lull, 2e-2), (heavy, 2e-5)],
        INPUT_SHAPE,
        n_tenants=8,
        seed=0,
    )


def _serve(trace, num_shards, autoscale=None):
    dk = DarKnightConfig(virtual_batch_size=K, seed=0, num_shards=num_shards)
    network, _ = build_serving_model("tiny", seed=0)
    server = PrivateInferenceServer(
        network,
        ServingConfig(
            darknight=dk, queue_capacity=2 * len(trace), autoscale=autoscale
        ),
    )
    return server, server.serve_trace(trace)


def _last_completion(report) -> float:
    return max(
        o.completion_time for o in report.completed if o.completion_time is not None
    )


def test_autoscale_matches_static_p99_at_fraction_of_shard_seconds(
    benchmark, capsys, quick
):
    n = 200 if quick else 1000
    trace = _trace(n)

    def run_all():
        _, static_max = _serve(trace, MAX_SHARDS)
        _, static_min = _serve(trace, 1)
        elastic_server, elastic = _serve(trace, 1, autoscale=AUTOSCALE)
        return static_max, static_min, elastic_server, elastic

    static_max, static_min, elastic_server, elastic = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    # Zero casualties from membership changes, and full completion
    # everywhere so the latency comparison is apples to apples.
    for report in (static_max, static_min, elastic):
        assert len(report.completed) == n
        assert all(o.ok for o in report.outcomes)

    # Bit-identical logits vs *both* static shard counts.
    elastic_logits = {o.request_id: o.logits for o in elastic.completed}
    for report in (static_max, static_min):
        for o in report.completed:
            assert np.array_equal(o.logits, elastic_logits[o.request_id])

    p99_static = static_max.metrics.latency_percentile(99)
    p99_elastic = elastic.metrics.latency_percentile(99)
    p99_ratio = p99_elastic / p99_static

    # A static deployment pays for every shard for the whole run.
    static_shard_seconds = MAX_SHARDS * _last_completion(static_max)
    elastic_shard_seconds = elastic.autoscale["shard_seconds"]
    shard_seconds_ratio = elastic_shard_seconds / static_shard_seconds

    benchmark.extra_info["n_requests"] = n
    benchmark.extra_info["p99_ratio"] = p99_ratio
    benchmark.extra_info["shard_seconds_ratio"] = shard_seconds_ratio
    benchmark.extra_info["scale_outs"] = elastic.autoscale["scale_outs"]
    benchmark.extra_info["scale_ins"] = elastic.autoscale["scale_ins"]
    benchmark.extra_info["peak_shards"] = elastic.autoscale["peak_shards"]

    show(
        capsys,
        render_table(
            ["metric", "static 4", "static 1", "elastic 1-4"],
            [
                [
                    "p99 (sim ms)",
                    f"{p99_static * 1e3:.2f}",
                    f"{static_min.metrics.latency_percentile(99) * 1e3:.2f}",
                    f"{p99_elastic * 1e3:.2f}",
                ],
                [
                    "shard-seconds",
                    f"{static_shard_seconds:.3f}",
                    f"{_last_completion(static_min):.3f}",
                    f"{elastic_shard_seconds:.3f}",
                ],
                [
                    "membership",
                    "fixed 4",
                    "fixed 1",
                    f"{elastic.autoscale['scale_outs']} out /"
                    f" {elastic.autoscale['scale_ins']} in,"
                    f" peak {elastic.autoscale['peak_shards']}",
                ],
            ],
            title=(
                f"Elastic autoscaling — phased trace"
                f" ({n} requests, K={K}, bounds: p99 <= {P99_BUDGET:.2f}x,"
                f" shard-seconds <= {SHARD_SECONDS_BUDGET:.2f}x)"
            ),
        ),
    )

    assert elastic.autoscale["scale_outs"] >= 1
    assert elastic.autoscale["scale_ins"] >= 1
    assert p99_ratio <= P99_BUDGET, (
        f"elastic p99 {p99_elastic:.4f}s is {p99_ratio:.2f}x the static"
        f" 4-shard p99 {p99_static:.4f}s (budget {P99_BUDGET:.2f}x)"
    )
    assert shard_seconds_ratio <= SHARD_SECONDS_BUDGET, (
        f"elastic bill {elastic_shard_seconds:.3f} shard-seconds is"
        f" {shard_seconds_ratio:.2f}x the static bill"
        f" {static_shard_seconds:.3f} (budget {SHARD_SECONDS_BUDGET:.2f}x)"
    )
