"""Quickstart: mask a virtual batch, offload, decode — then go end-to-end.

Walks the paper's Section 3.1 flow at the smallest possible scale:

1. encode two quantized inputs + noise into three masked shares;
2. let simulated GPUs run the linear op on the shares;
3. decode the exact results inside the (simulated) enclave;
4. then do the same implicitly by running a real model through the
   DarKnight backend;
5. finally serve *concurrent single-sample requests* through the
   multi-tenant server, which coalesces them back into virtual batches.

Run:  python examples/quickstart.py [--seed N]
"""

import numpy as np

from repro import (
    CoefficientSet,
    DarKnightConfig,
    FieldRng,
    ForwardDecoder,
    ForwardEncoder,
    PrimeField,
    PrivateInferenceServer,
    QuantizationConfig,
    ServingConfig,
    build_mini_vgg,
    synthetic_trace,
)
from repro.cli import parse_seed_flag
from repro.fieldmath import field_matmul
from repro.nn import PlainBackend
from repro.runtime import DarKnightBackend

SEED = parse_seed_flag(default=0)


def manual_masking_walkthrough() -> None:
    """Steps 1-3: the raw masking protocol on a toy linear layer."""
    field = PrimeField()  # p = 2**25 - 39, as in the paper
    rng = FieldRng(field, seed=SEED)
    quantizer = QuantizationConfig(fractional_bits=8, field=field)

    # Two private inputs and a public weight matrix.
    x = np.array([[0.25, -0.5, 0.75, 0.1], [0.9, 0.2, -0.3, -0.8]])
    w = np.array([[0.5, -0.25], [0.1, 0.9], [-0.4, 0.2], [0.3, 0.3]])

    # K=2 inputs + M=1 noise -> 3 shares; coefficients stay enclave-secret.
    coeffs = CoefficientSet.generate(rng, k=2, m=1)
    encoded = ForwardEncoder(coeffs, rng).encode(quantizer.quantize(x))
    print("masked share 0 (what GPU 0 sees):", encoded.shares[0][:4], "...")

    # Each simulated GPU computes <W, x̄> on its single share.
    w_q = quantizer.quantize(w)
    gpu_outputs = np.stack(
        [field_matmul(field, s.reshape(1, -1), w_q).ravel() for s in encoded.shares]
    )

    # The enclave decodes exactly and converts back to floats.
    decoded = ForwardDecoder(coeffs).decode(gpu_outputs)
    y = quantizer.dequantize_product(decoded)
    print("decoded result:", np.round(y, 3))
    print("float reference:", np.round(x @ w, 3))
    assert np.max(np.abs(y - x @ w)) < 0.05

    # A batch is several virtual batches, each under its own coefficients and
    # noise: one call draws a layer step's worth (here two sets, with the
    # integrity share) and inverts all their decode matrices together.
    stack, noise = CoefficientSet.generate(
        rng, k=2, m=1, extra_shares=1, count=2, noise_shape=x.shape[1:]
    )
    for v, fresh in enumerate(stack):
        print(
            f"stacked set {v}: A {fresh.a.shape}, B {fresh.b.shape}, noise {noise[v].shape},"
            f" verification plan {fresh.verification_plan}, verify() = {fresh.verify()}"
        )
        assert fresh.verify()


def end_to_end_model() -> None:
    """Step 4: the same protocol, driven by a real model + backend."""
    rng = np.random.default_rng(SEED)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=rng, width=8)
    x = rng.normal(size=(4, 3, 8, 8))

    private = net.forward(
        x,
        DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=SEED + 1)),
        training=False,
    )
    plain = net.forward(x, PlainBackend(), training=False)
    gap = float(np.max(np.abs(private - plain)))
    print(f"\nMiniVGG masked vs float logits: max gap {gap:.4f} (quantization only)")
    assert gap < 0.2


def serve_concurrent_requests() -> None:
    """Step 5: independent tenant requests, coalesced into virtual batches."""
    rng = np.random.default_rng(SEED)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=rng, width=8)
    trace = synthetic_trace(
        n_requests=12, input_shape=(3, 8, 8), n_tenants=3, seed=SEED
    )
    server = PrivateInferenceServer(
        net,
        ServingConfig(darknight=DarKnightConfig(virtual_batch_size=4, seed=SEED)),
    )
    report = server.serve_trace(trace)
    metrics = report.metrics
    print(
        f"\nserved {metrics.completed} single-sample requests from"
        f" {len(report.tenants)} tenants in {metrics.batches} virtual batches"
        f" (fill {metrics.batch_fill_ratio:.2f},"
        f" {report.handshakes} attestation handshakes,"
        f" p99 {metrics.latency_percentile(99) * 1e3:.1f} ms)"
    )
    assert metrics.completed == 12
    # One handshake per distinct tenant in the trace, cached afterwards.
    assert report.handshakes == len({r.tenant for r in trace})


if __name__ == "__main__":
    manual_masking_walkthrough()
    end_to_end_model()
    serve_concurrent_requests()
    print("\nquickstart OK")
