"""Offline/online split: precompute overlap vs inline mask generation.

DarKnight's enclave critical path pays for three things every flush
window: mask/noise generation, weight (re-)encoding + broadcast, and
hot-path buffer churn.  None of them *has* to be online — masks can be
pregenerated into idle pipeline gaps (the paper's offline phase), weight
encodings are static across windows, and the scratch buffers a window
needs are the same ones the last window just dropped.  ``--precompute``
moves all three off the critical path.

This bench serves the same 1,000-request integrity trace (the one
``bench_serving_throughput.py`` gates on) twice — precompute off, then
on — under a cost model that prices mask-generation bandwidth, and
asserts the whole contract at once:

* responses are **bit-identical** across the two runs (the split changes
  *when* work happens, never the bits of any answer),
* p99 latency improves by >= 1.3x (measured ~2.6x: pooled masks come
  out of idle gaps, weight staging is paid once instead of per window),
* the mask pool sustains a >= 0.9 hit rate at steady state,
* the audit trail stays green in both modes: every per-shard hash chain
  verifies and a committed window replays digest-for-digest,
* the metrics snapshot (pool/cache/scratch stats included) is strict
  JSON — ``validate_artifacts.py`` re-checks the emitted artifact.

``check_regression.py --precompute`` gates the recorded ``p99_ratio``
and ``pool_hit_rate`` in CI.
"""

import time

import numpy as np
from conftest import show

from repro.audit import replay_window
from repro.cli import build_serving_model
from repro.pipeline.timing import StageCostModel
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import (
    AuditConfig,
    PrivateInferenceServer,
    ServingConfig,
    synthetic_trace,
)

INPUT_SHAPE = (16,)
K = 4
#: Enclave mask-generation bandwidth (bytes/simulated-second).  Prices the
#: work the offline phase exists to hide; both runs use the same model, so
#: the comparison is apples-to-apples.
MASKGEN_BANDWIDTH = 2e8


def _run(precompute: bool, n_requests: int):
    """Serve the integrity trace once; returns (server, report, wall)."""
    config = ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=K, integrity=True, seed=1
        ),
        coalesce=True,
        queue_capacity=2 * n_requests,
        max_batch_wait=0.01,
        stage_costs=StageCostModel(maskgen_bandwidth=MASKGEN_BANDWIDTH),
        precompute=precompute,
        audit=AuditConfig(),
    )
    network, input_shape = build_serving_model("tiny", seed=1)
    assert input_shape == INPUT_SHAPE
    server = PrivateInferenceServer(network, config)
    trace = synthetic_trace(
        n_requests, INPUT_SHAPE, n_tenants=4, mean_interarrival=2e-4, seed=1
    )
    start = time.perf_counter()
    report = server.serve_trace(trace)
    wall = time.perf_counter() - start
    return server, report, wall


def _sorted_logits(report) -> np.ndarray:
    outcomes = sorted(report.completed, key=lambda o: o.request_id)
    return np.stack([o.logits for o in outcomes])


def _audit_green(server) -> int:
    """Verify every shard chain and replay one committed window per log.

    Returns the number of windows whose digests were re-derived.
    """
    network, _ = build_serving_model("tiny", seed=1)
    replayed = 0
    for log in server.audit.logs.values():
        assert log.verify_chain() == len(log.entries)
        for entry in log.entries:
            if not entry["leaves"]:
                continue
            result = replay_window(entry, network, server.darknight)
            assert result.matched and not result.mismatches
            replayed += 1
            break
    return replayed


def test_precompute_overlap_on_integrity_trace(benchmark, capsys, quick):
    """>= 1.3x p99 and >= 0.9 pool hit rate at bit-identical responses."""
    n = 200 if quick else 1000

    def run_pair():
        return _run(precompute=False, n_requests=n), _run(
            precompute=True, n_requests=n
        )

    (
        (server_off, off, wall_off),
        (server_on, on, wall_on),
    ) = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    assert len(off.completed) == len(on.completed) == n
    for report in (off, on):
        assert report.metrics.decode_errors == 0
        assert report.metrics.integrity_failures == 0
        assert report.metrics.shed == 0

    # The split must never change a single bit of any response.
    assert np.array_equal(_sorted_logits(off), _sorted_logits(on))

    p99_off = off.metrics.latency_percentile(99)
    p99_on = on.metrics.latency_percentile(99)
    p99_ratio = p99_on / p99_off
    pre = on.precompute
    assert pre is not None
    hit_rate = pre["hit_rate"]

    rows = [
        [
            "inline (off)",
            f"{p99_off * 1e3:.2f}",
            f"{off.metrics.throughput:.0f}",
            "-",
            "-",
            f"{n / wall_off:.0f}",
        ],
        [
            "precompute (on)",
            f"{p99_on * 1e3:.2f}",
            f"{on.metrics.throughput:.0f}",
            f"{hit_rate:.3f}",
            f"{pre['weights_reused']}",
            f"{n / wall_on:.0f}",
        ],
    ]
    show(
        capsys,
        render_table(
            ["mode", "p99 ms", "sim req/s", "pool hit", "w reuse", "wall req/s"],
            rows,
            title=(
                "Precompute overlap — offline/online split on the"
                f" {n}-request integrity trace"
                f" (p99 {p99_off / p99_on:.2f}x better, bit-identical)"
            ),
        ),
    )

    assert p99_off / p99_on >= 1.3, (
        f"p99 improved only {p99_off / p99_on:.2f}x with precompute on"
    )
    assert hit_rate is not None and hit_rate >= 0.9, (
        f"mask pool hit rate {hit_rate} below steady-state bar"
    )
    # Weight encodings are cached after the first window per (shard, layer).
    assert pre["weights_reused"] > pre["weights_staged"]

    # Audit trail green in both modes: chains verify, windows replay.
    assert _audit_green(server_off) >= 1
    assert _audit_green(server_on) >= 1

    # Gate inputs for check_regression.py --precompute, plus the full
    # strict-JSON metrics snapshot so validate_artifacts.py covers the
    # pool/cache/scratch stats (no inf/NaN may survive serialization).
    benchmark.extra_info["n_requests"] = n
    benchmark.extra_info["p99_ratio"] = p99_ratio
    benchmark.extra_info["pool_hit_rate"] = hit_rate
    benchmark.extra_info["weights_reused"] = pre["weights_reused"]
    benchmark.extra_info["metrics_snapshot"] = on.metrics.snapshot()
