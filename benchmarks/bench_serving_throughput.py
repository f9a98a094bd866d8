"""Serving throughput: virtual-batch coalescing vs per-request dispatch.

The paper amortizes enclave encode/decode over ``K`` inputs; the serving
subsystem applies that to concurrent traffic.  Per-request dispatch pads
every lone sample to a full ``K``-slot encoding, so coalescing recovers
up to a ``K``x throughput win at equal privacy/integrity settings.  Both
modes are measured on identical traces in simulated *and* wall-clock
time, and a 1,000-request trace must complete with integrity
verification on and zero decode errors.
"""

import time

import numpy as np
from conftest import show

from repro.cli import build_serving_model
from repro.nn import PlainBackend
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace

INPUT_SHAPE = (16,)
K = 4


def _run(coalesce: bool, n_requests: int, integrity: bool, seed: int = 0):
    """Serve one trace; returns (report, wall_seconds)."""
    config = ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=K, integrity=integrity, seed=seed
        ),
        coalesce=coalesce,
        queue_capacity=2 * n_requests,
        max_batch_wait=0.01,
    )
    # The same "tiny" model `python -m repro serve --model tiny` runs.
    network, input_shape = build_serving_model("tiny", seed=seed)
    assert input_shape == INPUT_SHAPE
    server = PrivateInferenceServer(network, config)
    trace = synthetic_trace(
        n_requests, INPUT_SHAPE, n_tenants=4, mean_interarrival=2e-4, seed=seed
    )
    start = time.perf_counter()
    report = server.serve_trace(trace)
    wall = time.perf_counter() - start
    return report, wall


def test_coalescing_beats_per_request_dispatch(benchmark, capsys, quick):
    """>= 2x simulated *and* wall-clock throughput at equal settings."""
    n = 64 if quick else 200

    def run_pair():
        return _run(coalesce=True, n_requests=n, integrity=False), _run(
            coalesce=False, n_requests=n, integrity=False
        )

    (coalesced, wall_c), (per_request, wall_p) = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    sim_c = coalesced.metrics.throughput
    sim_p = per_request.metrics.throughput
    sim_ratio = sim_c / sim_p
    wall_ratio = wall_p / wall_c

    rows = [
        [
            "coalesced (K=4)",
            coalesced.metrics.batches,
            f"{coalesced.metrics.batch_fill_ratio:.2f}",
            f"{sim_c:.0f}",
            f"{coalesced.metrics.latency_percentile(99) * 1e3:.2f}",
            f"{n / wall_c:.0f}",
        ],
        [
            "per-request",
            per_request.metrics.batches,
            f"{per_request.metrics.batch_fill_ratio:.2f}",
            f"{sim_p:.0f}",
            f"{per_request.metrics.latency_percentile(99) * 1e3:.2f}",
            f"{n / wall_p:.0f}",
        ],
    ]
    rendered = render_table(
        ["dispatch", "batches", "fill", "sim req/s", "p99 ms", "wall req/s"],
        rows,
        title=(
            "Serving throughput — virtual-batch coalescing vs per-request"
            f" (speedup: {sim_ratio:.1f}x simulated, {wall_ratio:.1f}x wall)"
        ),
    )
    show(capsys, rendered)

    assert len(coalesced.completed) == len(per_request.completed) == n
    assert sim_ratio >= 2.0, f"simulated speedup only {sim_ratio:.2f}x"
    # Wall clock is noisy under CI load; the deterministic simulated ratio
    # above carries the >= 2x acceptance bar, expect ~3-4x here anyway.
    assert wall_ratio >= 1.5, f"wall-clock speedup only {wall_ratio:.2f}x"
    # Coalescing fills the virtual batch; per-request wastes K-1 slots.
    assert coalesced.metrics.batch_fill_ratio > 0.9
    assert per_request.metrics.batch_fill_ratio <= 1.0 / K + 1e-9


def test_thousand_request_trace_with_integrity(benchmark, capsys, quick):
    """1,000 verified requests, zero decode errors, predictions correct
    (``--quick`` smoke mode verifies the same invariants on 200)."""
    n = 200 if quick else 1000

    report, wall = benchmark.pedantic(
        lambda: _run(coalesce=True, n_requests=n, integrity=True, seed=1),
        rounds=1,
        iterations=1,
    )
    assert len(report.completed) == n
    assert report.metrics.decode_errors == 0
    assert report.metrics.integrity_failures == 0
    assert report.metrics.shed == 0

    # Decoded logits track the float reference within quantization error;
    # argmax may flip only on near-ties (never from decode faults).
    net, _ = build_serving_model("tiny", seed=1)
    trace = synthetic_trace(
        n, INPUT_SHAPE, n_tenants=4, mean_interarrival=2e-4, seed=1
    )
    events = sorted(trace, key=lambda r: r.time)
    reference = net.forward(
        np.stack([e.x for e in events]), PlainBackend(), training=False
    )
    by_id = {o.request_id: o for o in report.completed}
    logits = np.stack([by_id[i].logits for i in range(n)])
    max_gap = float(np.max(np.abs(logits - reference)))
    assert max_gap < 0.1, f"decoded logits deviate by {max_gap:.3f}"
    agreement = np.mean(
        np.argmax(logits, axis=1) == np.argmax(reference, axis=1)
    )
    # Near-tie argmax flips are quantization noise; the smaller --quick
    # sample makes the ratio bar correspondingly noisier.
    bar = 0.99 if n >= 1000 else 0.98
    assert agreement >= bar, f"argmax agreement only {agreement:.3f}"

    show(
        capsys,
        "Serving 1,000-request integrity trace — "
        f"{report.metrics.throughput:.0f} req/s simulated, "
        f"{n / wall:.0f} req/s wall, "
        f"p99 {report.metrics.latency_percentile(99) * 1e3:.1f} ms, "
        f"{report.handshakes} handshakes, 0 decode errors, 0 integrity failures",
    )
