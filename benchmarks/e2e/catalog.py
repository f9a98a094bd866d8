"""Names, units, directions and bounds of everything the benchmark reports.

Pure data (no ``repro`` or numpy import): ``run.py``'s parent process,
``compare.py`` and the tests all read it, and ``BENCHMARK.json`` at the
repo root is exactly :func:`manifest` serialised.

Two clocks, and every metric says which one it uses: **host** is wall
time of the real numpy/BLAS execution on the machine running the
benchmark; **sim** is the modelled SGX+GPU deployment's simulated clock
(``pipeline.timing.StageCostModel``), deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The reference loop's frozen nominal duration: ``norm_items_per_s`` is
#: raw throughput scaled by ``ref_s / REF_NOMINAL_S``, i.e. what the run
#: would have measured on a machine where the loop takes exactly this.
REF_NOMINAL_S = 0.30

#: Seconds the driver measures per run (``BENCHMARK.json: run_seconds``).
RUN_SECONDS = 20

WORKLOADS = (
    (
        "serve-tiny-plain",
        "Tiny dense model, no integrity: per-request host overhead (AEAD, admission,"
        " pipeline bookkeeping) dominates; the bypass workload for integrity/precompute/"
        "partition work.",
    ),
    (
        "serve-resnet-integrity",
        "mini-resnet with integrity shares on one shard: verify_forward, subset rank"
        " checks and field GEMMs dominate; where integrity and field-kernel work must show.",
    ),
    (
        "serve-resnet-composed",
        "Same model and requests on 4 shards, layered:2, depth 2, precompute and audit on:"
        " pooled masks, cached encodings, sealed hops, audit commits; logits must match"
        " the integrity workload.",
    ),
    (
        "train-vgg-integrity",
        "mini-vgg private training with integrity and fresh coefficients every virtual"
        " batch: backward masking and verify_backward; caches keyed on static coefficients"
        " are bypassed here.",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
SERVING_WORKLOADS = WORKLOAD_NAMES[:3]
INTEGRITY_WORKLOADS = WORKLOAD_NAMES[1:]


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric of the benchmark's own report.

    ``bound`` is the share of the reference median by which the metric
    may worsen before ``compare.py`` calls it a regression; ``floor`` is
    an absolute allowance added on top (same unit as the metric).
    """

    name: str
    unit: str
    better: str
    clock: str
    bound: float
    floor: float = 0.0
    serving_only: bool = False
    integrity_only: bool = False

    def applies_to(self, workload: str) -> bool:
        if self.serving_only and workload not in SERVING_WORKLOADS:
            return False
        if self.integrity_only and workload not in INTEGRITY_WORKLOADS:
            return False
        return True


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", "host", 0.25, floor=0.02),
    # The issue asked for 10 %; on this box two same-code full sets 15 min
    # apart differed by up to 14 % after normalisation (55 % raw).
    EndToEnd("norm_items_per_s", "items/s", "higher", "host", 0.20),
    EndToEnd("peak_rss_mb", "MB", "lower", "host", 0.10),
    EndToEnd("failed_share", "share", "lower", "-", 0.0),
    EndToEnd("tamper_detected_share", "share", "higher", "-", 0.0, integrity_only=True),
    EndToEnd("sim_req_per_s", "req/s", "higher", "sim", 0.01, serving_only=True),
    EndToEnd("sim_latency_p50_ms", "ms", "lower", "sim", 0.01, serving_only=True),
    EndToEnd("sim_latency_p95_ms", "ms", "lower", "sim", 0.01, serving_only=True),
    EndToEnd("sim_slo_miss_share", "share", "lower", "sim", 0.0, floor=0.005, serving_only=True),
    EndToEnd("sim_max_rate_ok_req_per_s", "req/s", "higher", "sim", 0.0, serving_only=True),
)

#: Diagnostics recorded beside the end-to-end metrics, never gated.
DIAGNOSTICS = (("wall_items_per_s", "items/s"), ("ref_s", "s"), ("setup_wall_s", "s"))

#: What the driver gates (``BENCHMARK.json: end_to_end``).  Its contract
#: wants every listed metric from every workload and never 0, so only the
#: host-clock metrics all four workloads define are listed; failures ride
#: in the result line's ``attempted``/``failed``/``correct`` and the
#: simulated-clock metrics (undefined for training) are listed with the
#: per-layer metrics, where 0 means "this workload does not run it".
DRIVER_END_TO_END = (
    ("norm_items_per_s", "items/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: The simulated-clock end-to-end metrics as the driver's traced run
#: reports them (same names; 0 on the training workload).
SIM_END_TO_END = tuple(m for m in END_TO_END if m.clock == "sim")

_HOST = "norm_items_per_s"
_SIM = "sim_latency_p95_ms"


def _layer(prefix: str, *suffixes: tuple[str, str, str], moves: str = _HOST):
    return tuple((f"{prefix}.{s}", unit, better, moves) for s, unit, better in suffixes)


_BUSY = ("busy_s", "s", "lower")
_SELF = ("self_s", "s", "lower")
_CALLS = ("calls", "count", "lower")

#: ``pipeline.sim_stage_s.<stage>`` for every key ``stage_totals()`` can hold.
SIM_STAGES = ("encode", "gpu", "decode", "tee", "transfer", "precompute", "stage_weights")

#: ``(name, unit, better, end-to-end metric it should move)``.
PER_LAYER = (
    *_layer("serving.serve_trace", _SELF),
    *_layer("serving.session_crypto", _BUSY, _CALLS),
    *_layer("serving.queue", _BUSY),
    *_layer("serving.scheduler", _BUSY),
    *_layer("serving.dispatch_window", _SELF, _CALLS),
    ("serving.batches", "count", "lower", _HOST),
    ("serving.batch_fill_ratio", "share", "higher", _SIM),
    ("serving.deadline_flush_share", "share", "lower", _SIM),
    ("serving.sim_queue_wait_ms_p50", "ms", "lower", _SIM),
    ("serving.shed_share", "share", "lower", "sim_slo_miss_share"),
    *_layer("sharding.router", _BUSY),
    *_layer("sharding.run_window", _SELF),
    *_layer("sharding.hop", _BUSY, _CALLS, ("bytes", "bytes", "lower")),
    *_layer("pipeline.run_grouped", _SELF, _CALLS),
    ("pipeline.jobs", "count", "lower", _HOST),
    ("pipeline.sim_enclave_util", "share", "higher", "sim_req_per_s"),
    ("pipeline.sim_gpu_util", "share", "higher", "sim_req_per_s"),
    *((f"pipeline.sim_stage_s.{stage}", "s", "lower", _SIM) for stage in SIM_STAGES),
    *_layer("runtime.stage_linear", _BUSY, _CALLS),
    *_layer("runtime.encode", _SELF),
    *_layer("runtime.decode", _SELF),
    *_layer("runtime.grad_w", _SELF),
    ("runtime.train_step.ms_p50", "ms", "lower", _HOST),
    ("runtime.train_step.ms_p95", "ms", "lower", _HOST),
    *_layer("masking.encode", _BUSY),
    *_layer("masking.decode", _BUSY),
    *_layer("masking.verify_forward", _BUSY, _CALLS),
    *_layer("masking.verify_backward", _BUSY, _CALLS),
    *_layer("masking.backward_resolve", _BUSY),
    *_layer("masking.subset_enum", _BUSY, _CALLS),
    ("masking.decodes_per_verify", "count", "lower", _HOST),
    *_layer("masking.coeff_generate", _BUSY, _CALLS),
    *_layer("masking.backward_decode", _BUSY),
    *_layer("fieldmath.matmul", _BUSY, _CALLS, ("macs", "MACs", "lower")),
    *_layer("fieldmath.gauss", _BUSY, _CALLS),
    *_layer("quantization", _BUSY, _CALLS),
    *_layer("gpu.map_shares", _BUSY, _CALLS),
    *_layer("gpu.scatter", _BUSY),
    *_layer("gpu.float_ops", _BUSY),
    ("gpu.mac_ops", "MACs", "lower", _HOST),
    ("gpu.bytes_moved", "bytes", "lower", _HOST),
    *_layer("enclave.aead", _BUSY, _CALLS, ("bytes", "bytes", "lower")),
    ("enclave.handshakes", "count", "lower", "setup_s"),
    *_layer("comm.channel", _SELF),
    ("comm.link_bytes", "bytes", "lower", _SIM),
    *_layer("audit.commit_window", _BUSY, _CALLS, ("bytes", "bytes", "lower")),
    *_layer("audit.verify_chain", _BUSY),
    ("precompute.pool.hit_rate", "share", "higher", _HOST),
    *_layer("precompute.pool.draw", _BUSY),
    *_layer("precompute.pool.refill", _BUSY),
    ("precompute.weight_cache.hit_rate", "share", "higher", _HOST),
    *_layer("precompute.scratch", _BUSY, _CALLS),
    ("precompute.scratch.pooled_bytes", "bytes", "lower", "peak_rss_mb"),
    *_layer("nn.functional", _BUSY),
    ("bench.trace_overhead_share", "share", "lower", _HOST),
    ("bench.ref_s", "s", "lower", _HOST),
    ("bench.layer_partition_error", "share", "lower", _HOST),
    *((m.name, m.unit, m.better, m.name) for m in SIM_END_TO_END),
)
PER_LAYER_NAMES = tuple(name for name, *_ in PER_LAYER)


def manifest() -> dict:
    """The contract file at the repo root (``BENCHMARK.json``)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
