"""Adaptive coalescing vs static knobs on bursty / steady / ramping traffic.

The static flush deadline (``max_batch_wait``) is tuned for one arrival
process; every other regime pays for it — burst-tail stragglers idle out
the full deadline while the queue is provably going to stay empty.  The
adaptive policy (:mod:`repro.serving.adaptive`) learns each shard's
inter-arrival EWMA and flushes partials as soon as filling becomes
unlikely, with the static deadline as a hard ceiling, so it can only
ship *earlier* than the static server.

Acceptance (asserted below):

* bursty trace — adaptive p99 latency >= 20% better than static at
  equal-or-better batch fill ratio;
* every adaptive batch's masking working set stays inside the EPC
  budget (and a deliberately tiny budget clamps ``K`` down);
* with adaptive batching *off* the served logits are bit-identical to
  the static server's — the default path is untouched.
"""

import numpy as np
from conftest import show

from repro.cli import build_serving_model
from repro.enclave import EPC_USABLE_BYTES
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import (
    PrivateInferenceServer,
    ServingConfig,
    bursty_trace,
    estimate_slot_bytes,
    ramping_trace,
    synthetic_trace,
    working_set_bytes,
)
from repro.serving.adaptive import EPC_HEADROOM

INPUT_SHAPE = (16,)
K = 4
MAX_WAIT = 0.01


def _server(adaptive: bool, n_requests: int, seed: int = 0, epc_budget=None):
    dk = DarKnightConfig(
        virtual_batch_size=K, seed=seed, epc_budget_bytes=epc_budget
    )
    config = ServingConfig(
        darknight=dk,
        adaptive=adaptive,
        max_batch_wait=MAX_WAIT,
        queue_capacity=2 * n_requests,
    )
    network, input_shape = build_serving_model("tiny", seed=seed)
    assert input_shape == INPUT_SHAPE
    return PrivateInferenceServer(network, config)


def _traces(n: int, seed: int = 2) -> dict:
    return {
        "bursty": bursty_trace(
            n, INPUT_SHAPE, burst_size=11, intra_gap=2e-4, burst_gap=5e-2, seed=seed
        ),
        "steady": synthetic_trace(
            n, INPUT_SHAPE, mean_interarrival=1e-3, seed=seed
        ),
        "ramping": ramping_trace(
            n, INPUT_SHAPE, start_interarrival=5e-3, end_interarrival=2e-4, seed=seed
        ),
    }


def test_adaptive_beats_static_deadline_on_bursty_traffic(benchmark, capsys, quick):
    """>= 20% p99 win on the bursty trace at equal-or-better fill."""
    n = 120 if quick else 240

    def run_all():
        results = {}
        for name, trace in _traces(n).items():
            static = _server(adaptive=False, n_requests=n).serve_trace(trace)
            adaptive = _server(adaptive=True, n_requests=n).serve_trace(trace)
            results[name] = (static, adaptive)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (static, adaptive) in results.items():
        p99_s = static.metrics.latency_percentile(99)
        p99_a = adaptive.metrics.latency_percentile(99)
        rows.append(
            [
                name,
                f"{p99_s * 1e3:.2f}",
                f"{p99_a * 1e3:.2f}",
                f"{(1 - p99_a / p99_s) * 100:+.1f}%",
                f"{static.metrics.batch_fill_ratio:.3f}",
                f"{adaptive.metrics.batch_fill_ratio:.3f}",
                adaptive.adaptive[0]["deadline_flushes"],
            ]
        )
    show(
        capsys,
        render_table(
            [
                "trace", "static p99 ms", "adaptive p99 ms", "p99 gain",
                "static fill", "adaptive fill", "deadline flushes",
            ],
            rows,
            title=(
                "Adaptive coalescing — learned flush deadline vs static"
                f" max_batch_wait={MAX_WAIT * 1e3:.0f}ms (K={K})"
            ),
        ),
    )

    for name, (static, adaptive) in results.items():
        assert len(static.completed) == len(adaptive.completed) == n
        assert adaptive.metrics.decode_errors == 0
        assert adaptive.metrics.integrity_failures == 0

    static, adaptive = results["bursty"]
    p99_s = static.metrics.latency_percentile(99)
    p99_a = adaptive.metrics.latency_percentile(99)
    assert p99_a <= 0.8 * p99_s, (
        f"adaptive p99 {p99_a * 1e3:.2f}ms vs static {p99_s * 1e3:.2f}ms:"
        f" only {(1 - p99_a / p99_s) * 100:.1f}% better (need >= 20%)"
    )
    assert (
        adaptive.metrics.batch_fill_ratio
        >= static.metrics.batch_fill_ratio - 1e-9
    ), "adaptive must not trade fill away on the bursty trace"
    # The ceiling guarantee: the learned deadline is clamped at the
    # static one, so even on regimes with nothing to learn (steady,
    # ramping) the tail stays in the static server's neighbourhood —
    # misaligned batch boundaries cost at most a deadline's worth.
    for name, (static, adaptive) in results.items():
        assert adaptive.metrics.latency_percentile(99) <= 1.5 * (
            static.metrics.latency_percentile(99)
        ), f"{name}: adaptive p99 regressed past the static ceiling"


def test_adaptive_batches_respect_the_epc_budget(capsys, quick):
    """No flushed batch's masking working set exceeds usable EPC, and a
    tiny budget visibly clamps ``K`` below the configured size."""
    n = 48 if quick else 96
    trace = _traces(n)["bursty"]

    def fits(server) -> bool:
        """The provisioned K's working set is within the budget's headroom."""
        dk = server.darknight
        budget = dk.epc_budget_bytes or EPC_USABLE_BYTES
        return working_set_bytes(
            dk.virtual_batch_size, slot, dk.collusion_tolerance, dk.extra_shares,
            dk.pipeline_depth,
        ) <= int(budget * EPC_HEADROOM)

    # Default budget: the tiny model fits at the configured K.
    server = _server(adaptive=True, n_requests=n)
    slot = estimate_slot_bytes(server.network)
    report = server.serve_trace(trace)
    assert report.adaptive[0] is not None
    for outcome in report.outcomes:
        assert outcome.batch_id is not None
    assert server.darknight.virtual_batch_size == K
    assert fits(server), "provisioned K's working set must fit the EPC budget"

    # Shrunken budget: K gets clamped, the working set still fits, and
    # every request is still served.
    tight_budget = working_set_bytes(2, slot, collusion_tolerance=1) + slot
    clamped = _server(adaptive=True, n_requests=n, epc_budget=tight_budget)
    assert clamped.darknight.virtual_batch_size < K
    clamped_report = clamped.serve_trace(trace)
    assert len(clamped_report.completed) == n
    assert clamped_report.adaptive[0]["batch_size"] == clamped.darknight.virtual_batch_size
    assert fits(clamped)
    show(
        capsys,
        f"EPC-aware K: budget {tight_budget}B clamps K {K} ->"
        f" {clamped.darknight.virtual_batch_size}"
        f" (slot {slot}B, all {n} requests served)",
    )


def test_adaptive_off_is_bit_identical_to_static_serving(quick):
    """The default (static) path must be untouched by this feature: a
    ServingConfig with ``adaptive=False`` and one never constructed with
    the field serve identical bits on the same trace."""
    n = 48 if quick else 96
    trace = _traces(n, seed=5)["bursty"]
    baseline = _server(adaptive=False, n_requests=n).serve_trace(trace)

    network, _ = build_serving_model("tiny", seed=0)
    legacy_config = ServingConfig(
        darknight=DarKnightConfig(virtual_batch_size=K, seed=0),
        max_batch_wait=MAX_WAIT,
        queue_capacity=2 * n,
    )
    legacy = PrivateInferenceServer(network, legacy_config).serve_trace(trace)

    a = {o.request_id: o for o in baseline.completed}
    b = {o.request_id: o for o in legacy.completed}
    assert sorted(a) == sorted(b) == list(range(n))
    for rid in a:
        assert np.array_equal(a[rid].logits, b[rid].logits)
        assert a[rid].completion_time == b[rid].completion_time
        assert a[rid].batch_id == b[rid].batch_id
