"""Where the traced pass puts its spans, and how spans become metrics.

A layer is a package under ``src/repro/``; a span's layer is the first
dotted component of its name.  Only *public* callables are wrapped, so a
refactor of private helpers cannot silently move a boundary.  Counts that
the program already keeps (batches, MACs, link bytes, pool hits) are read
from its own counters at the end of the traced pass rather than
re-derived; ``fieldmath.matmul.macs`` and ``gpu.bytes_moved`` are
*computed from operand shapes / tensor sizes*, not measured traffic.
"""

from __future__ import annotations

import math

import numpy as np

import catalog
from tracing import Summary, Target


def _matmul_macs(args, kwargs, _result) -> int:
    a, b = args[1], args[2]
    return math.prod(np.shape(a)) * math.prod(np.shape(b)[1:])


def targets() -> list[Target]:
    """Every public callable the traced pass wraps, with its span name."""
    from repro.audit import AuditTrail
    from repro.audit.log import AuditLog
    from repro.comm.secure_channel import SecureChannel
    from repro.enclave.crypto import StreamAead
    from repro.fieldmath import linalg
    from repro.gpu import GpuCluster
    from repro.gpu.device import SimulatedGpu
    from repro.masking import (
        BackwardDecoder,
        CoefficientSet,
        ForwardDecoder,
        ForwardEncoder,
        IntegrityVerifier,
    )
    from repro.nn import functional
    from repro.pipeline import PipelineExecutor
    from repro.precompute import MaskStreamPool
    from repro.precompute.scratch import ScratchPool
    from repro.quantization import QuantizationConfig
    from repro.runtime import DarKnightBackend, Trainer
    from repro.serving import PrivateInferenceServer
    from repro.serving.queue import RequestQueue
    from repro.serving.scheduler import ShardedBatchScheduler
    from repro.serving.session import ServingSession
    from repro.serving.worker import InferenceWorkerPool
    from repro.sharding import EnclaveShard, PipelineGroup, ShardRouter, partition

    def many(span, owner, *attrs, **kwargs):
        return [Target(span, owner, attr, **kwargs) for attr in attrs]

    return [
        Target("serving.serve_trace", PrivateInferenceServer, "serve_trace"),
        *many(
            "serving.session_crypto", ServingSession,
            "encrypt_request", "decrypt_request", "encrypt_response", "decrypt_response",
        ),
        *many("serving.queue", RequestQueue, "push", "pop_fair"),
        *many("serving.scheduler", ShardedBatchScheduler, "collect_ready", "collect_expired"),
        Target(
            "serving.dispatch_window", InferenceWorkerPool, "dispatch_window",
            bumps_context=True,
        ),
        Target("sharding.router", ShardRouter, "shard_for"),
        Target("sharding.run_window", EnclaveShard, "run_window"),
        Target("sharding.run_window", PipelineGroup, "run_window"),
        Target(
            "sharding.hop", partition, "seal_activations",
            amount=lambda _a, _k, sealed: sealed.nbytes,
        ),
        Target("sharding.hop", partition, "open_activations"),
        Target(
            "pipeline.run_grouped", PipelineExecutor, "run_grouped",
            amount=lambda _a, _k, result: result[1].n_jobs,
        ),
        Target("runtime.train_step", Trainer, "train_step", bumps_context=True),
        Target("runtime.stage_linear", DarKnightBackend, "stage_linear"),
        Target("runtime.encode", DarKnightBackend, "encode"),
        Target("runtime.decode", DarKnightBackend, "decode"),
        *many("runtime.grad_w", DarKnightBackend, "conv2d_grad_w", "dense_grad_w"),
        Target("masking.encode", ForwardEncoder, "encode"),
        Target("masking.decode", ForwardDecoder, "decode"),
        Target("masking.verify_forward", IntegrityVerifier, "verify_forward"),
        Target("masking.verify_backward", IntegrityVerifier, "verify_backward"),
        # The alternate-subset re-solve and re-decode exist only for backward
        # verification; the GPU re-dispatch it also costs is in gpu.map_shares.
        Target("masking.backward_resolve", CoefficientSet, "backward_matrices_for_subset"),
        Target("masking.backward_resolve", BackwardDecoder, "decode_with_matrices"),
        Target("masking.subset_enum", CoefficientSet, "iter_decoding_subsets", generator=True),
        Target("masking.coeff_generate", CoefficientSet, "generate"),
        *many("masking.backward_decode", BackwardDecoder, "decode", "decode_many"),
        Target("fieldmath.matmul", linalg, "field_matmul", amount=_matmul_macs),
        *many(
            "fieldmath.gauss", linalg,
            "rank", "is_invertible", "inverse", "solve", "determinant",
            "all_column_subsets_full_rank",
        ),
        *many(
            "quantization", QuantizationConfig,
            "quantize", "quantize_weights", "dequantize", "dequantize_product",
        ),
        Target("gpu.map_shares", GpuCluster, "map_shares"),
        *many("gpu.scatter", GpuCluster, "scatter_shares", "broadcast_weights"),
        *many("gpu.float_ops", SimulatedGpu, "float_conv2d_grad_x", "float_matmul"),
        Target(
            "enclave.aead", StreamAead, "encrypt",
            amount=lambda _a, _k, ct: len(ct.data),
        ),
        Target("enclave.aead", StreamAead, "decrypt", amount=lambda _a, _k, data: len(data)),
        *many("comm.channel", SecureChannel, "send_array", "recv_array"),
        Target("audit.commit_window", AuditTrail, "commit_window"),
        Target("audit.verify_chain", AuditLog, "verify_chain"),
        Target("precompute.pool.draw", MaskStreamPool, "draw"),
        Target("precompute.pool.refill", MaskStreamPool, "refill_one"),
        *many("precompute.scratch", ScratchPool, "get", "cast"),
        *many(
            "nn.functional", functional,
            "im2col", "col2im", "conv2d_via_matmul", "conv2d_grad_w", "conv2d_grad_x",
            "depthwise_conv2d", "depthwise_conv2d_grad_w", "depthwise_conv2d_grad_x",
            "relu", "relu_grad", "maxpool2d", "maxpool2d_grad", "avgpool2d",
            "avgpool2d_grad", "softmax", "cross_entropy",
        ),
    ]


#: Root span of a traced pass, per kind of workload.
SERVING_ROOT = "serving.serve_trace"
TRAINING_ROOT = "runtime.train_step"


def per_layer_metrics(summary: Summary, root: str, facts: dict) -> dict[str, float]:
    """Every ``catalog.PER_LAYER`` metric for one traced pass.

    Span metrics cover the subtree of the ``root`` spans — the timed
    region: the served trace or the training steps — so set-up and the
    benchmark's own post-run checks (an audit replay re-executes a whole
    window) do not leak into them; ``audit.verify_chain`` is the one
    span that only ever runs after the trace.  ``facts`` carries what the
    spans cannot: the program's own counters read after the pass, the
    simulated end-to-end numbers, and the benchmark's overhead/reference
    measurements.  A metric whose layer the workload never enters is 0.
    """
    out = dict.fromkeys(catalog.PER_LAYER_NAMES, 0.0)
    out.update(facts)

    def put(prefix: str, stats, *fields: str, amount: str | None = None) -> None:
        for field in fields:
            out[f"{prefix}.{field}"] = getattr(stats, field)
        if amount is not None:
            out[f"{prefix}.{amount}"] = stats.amount

    def st(name, **filters):
        return summary.stats(name, under=root, **filters)

    put("serving.serve_trace", st(SERVING_ROOT), "self_s")
    put("serving.session_crypto", st("serving.session_crypto"), "busy_s", "calls")
    put("serving.queue", st("serving.queue"), "busy_s")
    put("serving.scheduler", st("serving.scheduler"), "busy_s")
    put("serving.dispatch_window", st("serving.dispatch_window"), "self_s", "calls")
    put("sharding.router", st("sharding.router"), "busy_s")
    put("sharding.run_window", st("sharding.run_window"), "self_s")
    put("sharding.hop", st("sharding.hop"), "busy_s", "calls", amount="bytes")
    grouped = st("pipeline.run_grouped")
    put("pipeline.run_grouped", grouped, "self_s", "calls")
    out["pipeline.jobs"] = grouped.amount
    put("runtime.stage_linear", st("runtime.stage_linear"), "busy_s", "calls")
    put("runtime.encode", st("runtime.encode"), "self_s")
    put("runtime.decode", st("runtime.decode"), "self_s")
    put("runtime.grad_w", st("runtime.grad_w"), "self_s")
    put("masking.encode", st("masking.encode"), "busy_s")
    in_verify = ["masking.verify_forward"]
    put("masking.decode", st("masking.decode", outside=in_verify), "busy_s")
    verify = st("masking.verify_forward")
    put("masking.verify_forward", verify, "busy_s", "calls")
    if verify.calls:
        out["masking.decodes_per_verify"] = (
            st("masking.decode", inside=in_verify).calls / verify.calls
        )
    put("masking.verify_backward", st("masking.verify_backward"), "busy_s", "calls")
    put("masking.backward_resolve", st("masking.backward_resolve"), "busy_s")
    enum = st("masking.subset_enum")
    out["masking.subset_enum.busy_s"] = enum.busy_s
    out["masking.subset_enum.calls"] = enum.amount  # enumerations started
    put("masking.coeff_generate", st("masking.coeff_generate"), "busy_s", "calls")
    put("masking.backward_decode", st("masking.backward_decode"), "busy_s")
    put("fieldmath.matmul", st("fieldmath.matmul"), "busy_s", "calls", amount="macs")
    put("fieldmath.gauss", st("fieldmath.gauss"), "busy_s", "calls")
    put("quantization", st("quantization"), "busy_s", "calls")
    put("gpu.map_shares", st("gpu.map_shares"), "busy_s", "calls")
    put("gpu.scatter", st("gpu.scatter"), "busy_s")
    put("gpu.float_ops", st("gpu.float_ops"), "busy_s")
    put("enclave.aead", st("enclave.aead"), "busy_s", "calls", amount="bytes")
    put("comm.channel", st("comm.channel"), "self_s")
    put("audit.commit_window", st("audit.commit_window"), "busy_s", "calls")
    put("audit.verify_chain", summary.stats("audit.verify_chain"), "busy_s")
    put("precompute.pool.draw", st("precompute.pool.draw"), "busy_s")
    put("precompute.pool.refill", st("precompute.pool.refill"), "busy_s")
    put("precompute.scratch", st("precompute.scratch"), "busy_s", "calls")
    # TEE-resident non-linear layers: functional ops not running on a device.
    put("nn.functional", st("nn.functional", outside=summary.layer_names("gpu")), "busy_s")

    total, layer_self = summary.layer_self_s(root)
    out["bench.layer_partition_error"] = (
        abs(sum(layer_self.values()) - total) / total if total else 0.0
    )
    missing = set(catalog.PER_LAYER_NAMES) ^ set(out)
    if missing:
        raise KeyError(f"per-layer metrics out of step with the catalog: {sorted(missing)}")
    return {name: float(out[name]) for name in catalog.PER_LAYER_NAMES}
