"""Pipelined vs synchronous execution: the paper's Section 7.1 overlap, measured.

DarKnight's pipelined setting says enclave encode/decode and GPU linear
compute should overlap across batches instead of serializing.  This
benchmark drives a VGG-style conv stack (9 offloaded linear layers) through
the staged executor at ``pipeline_depth=1`` (the classic synchronous
schedule) and at depth 6 (six virtual batches in flight), on identical
inputs, and compares simulated makespans.  Outputs must stay bit-identical
— pipelining reorders stages, never values.

The stage cost profile is the *balanced* regime the overlap argument
targets: one conv share's GPU kernel time rivals the enclave's
encode+decode for the same virtual batch (roughly the paper's SGX-vs-V100
operating point).  Acceptance: >= 1.5x simulated speedup, with the
enclave-busy vs GPU-busy utilization split reported per schedule.
"""

import numpy as np
from conftest import show

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.pipeline import PipelineExecutor, StageCostModel
from repro.reporting import render_table
from repro.runtime import DarKnightBackend, DarKnightConfig

K = 4
N_SAMPLES = 24  # 6 virtual batches in flight at depth >= 6
PIPELINE_DEPTH = 6

#: Balanced SGX-vs-GPU operating point (see module docstring).
OVERLAP_COSTS = StageCostModel(stage_overhead=5e-5, gpu_mac_throughput=1e9)


def _vgg_style_net(seed=0, width=16):
    """Eight 3x3 conv layers in two VGG blocks plus a dense head."""
    rng = np.random.default_rng(seed)
    layers = [Conv2D(3, width, 3, 1, 1, rng=rng), ReLU()]
    for _ in range(3):
        layers += [Conv2D(width, width, 3, 1, 1, rng=rng), ReLU()]
    layers += [MaxPool2D(2)]
    for _ in range(4):
        layers += [Conv2D(width, width, 3, 1, 1, rng=rng), ReLU()]
    layers += [Flatten(), Dense(width * 8 * 8, 10, rng=rng)]
    return Sequential(layers, (3, 16, 16))


def _run(depth: int, net, x):
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=K, seed=7))
    executor = PipelineExecutor(net, backend, pipeline_depth=depth, costs=OVERLAP_COSTS)
    return executor.run(x)


def test_pipeline_overlap_speedup(benchmark, capsys, quick):
    """>= 1.5x simulated speedup from layer-pipelined cross-batch overlap.

    ``--quick`` keeps the 9-layer stack at full width (the overlap regime
    depends on the conv/dense cost balance) and trims the sample count.
    """
    net = _vgg_style_net()
    n_linear = sum(1 for step in net.execution_plan() if step.offloaded)
    assert n_linear >= 8, f"need a >= 8-linear-layer model, built {n_linear}"
    n_samples = 16 if quick else N_SAMPLES
    x = np.random.default_rng(1).normal(size=(n_samples, 3, 16, 16))

    def run_pair():
        return _run(1, net, x), _run(PIPELINE_DEPTH, net, x)

    sync, pipelined = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert np.array_equal(sync.output, pipelined.output), "pipelining changed logits"
    assert pipelined.stats.n_jobs >= 4

    speedup = sync.stats.makespan / pipelined.stats.makespan
    rows = [
        [
            "synchronous (depth 1)",
            f"{sync.stats.makespan * 1e3:.2f}",
            f"{sync.stats.enclave_utilization:.2f}",
            f"{sync.stats.gpu_utilization:.2f}",
            f"{sync.stats.stage_totals.get('encode', 0) * 1e3:.2f}",
            f"{sync.stats.stage_totals.get('gpu', 0) * 1e3:.2f}",
            f"{sync.stats.stage_totals.get('decode', 0) * 1e3:.2f}",
        ],
        [
            f"pipelined (depth {PIPELINE_DEPTH})",
            f"{pipelined.stats.makespan * 1e3:.2f}",
            f"{pipelined.stats.enclave_utilization:.2f}",
            f"{pipelined.stats.gpu_utilization:.2f}",
            f"{pipelined.stats.stage_totals.get('encode', 0) * 1e3:.2f}",
            f"{pipelined.stats.stage_totals.get('gpu', 0) * 1e3:.2f}",
            f"{pipelined.stats.stage_totals.get('decode', 0) * 1e3:.2f}",
        ],
    ]
    show(
        capsys,
        render_table(
            [
                "schedule",
                "makespan ms",
                "enclave util",
                "gpu util",
                "encode ms",
                "gpu ms",
                "decode ms",
            ],
            rows,
            title=(
                "Layer-pipelined encode/compute/decode — VGG-style, "
                f"{n_linear} linear layers, {pipelined.stats.n_jobs} virtual batches"
                f" in flight (speedup {speedup:.2f}x simulated)"
            ),
        ),
    )

    assert speedup >= 1.5, f"pipelined speedup only {speedup:.2f}x"
    # Overlap = both resources busier within a shorter window.
    assert pipelined.stats.enclave_utilization > sync.stats.enclave_utilization
    assert pipelined.stats.gpu_utilization > sync.stats.gpu_utilization


def test_depth_sweep_monotone_until_saturation(benchmark, capsys, quick):
    """More in-flight batches help until the bottleneck resource saturates."""
    net = _vgg_style_net(seed=3)
    n_samples = 16 if quick else N_SAMPLES
    x = np.random.default_rng(2).normal(size=(n_samples, 3, 16, 16))

    def sweep():
        return {d: _run(d, net, x).stats for d in (1, 2, 4, 6)}

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = stats[1].makespan
    rows = [
        [
            f"depth {d}",
            f"{s.makespan * 1e3:.2f}",
            f"{base / s.makespan:.2f}x",
            f"{s.enclave_utilization:.2f}",
            f"{s.gpu_utilization:.2f}",
        ]
        for d, s in stats.items()
    ]
    show(
        capsys,
        render_table(
            ["schedule", "makespan ms", "speedup", "enclave util", "gpu util"],
            rows,
            title="Pipeline depth sweep — overlap saturates at the bottleneck",
        ),
    )
    assert stats[2].makespan < stats[1].makespan
    assert stats[4].makespan <= stats[2].makespan
    assert stats[6].makespan <= stats[4].makespan
