"""Microbenchmarks of the library's hot kernels (real wall-clock timing).

Unlike the exhibit benches (which assert *modeled* shapes), these time the
actual numpy implementations that every experiment runs on: the prime-field
GEMM in both backends (the generic chunked oracle vs the limb-decomposed
BLAS path) against plain float matmul, the encode/decode primitives at a
realistic layer size, Vandermonde/elimination coefficient generation (a
virtual batch's whole coefficient material, and a layer step's as one
stack), the batched conv-as-GEMM
lowering, the cluster's stacked launches and their ledger accounting, a
whole masked layer step (forward and backward) over a batch's stack of virtual batches, and the
per-request floor of serving (a session's AEAD round trip, a window's
re-staging of unchanged weights), and the mask pool's refill/draw cycle.  Useful for
regression-tracking the
simulator's own performance: CI appends the ``--benchmark-json`` output of
this file to ``BENCH_kernels.json`` via ``benchmarks/check_regression.py``,
which fails the build when a tracked kernel regresses.

The limb backend must be *exactly* as correct as the generic one, so every
timed call also cross-checks its result; the speedup acceptance test lives
here (not in tier-1) because wall-clock ratios belong in the bench lane.
"""

import resource
import time

import numpy as np
import pytest

from repro.cli import build_serving_model
from repro.enclave import ByteStream, Enclave
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.gpu import GpuCluster, ShareLaunch
from repro.gpu.faults import FaultInjector
from repro.masking import (
    BackwardDecoder,
    CoefficientSet,
    ForwardDecoder,
    ForwardEncoder,
    reference_aggregate,
)
from repro.nn.functional import conv2d_grad_w, conv2d_via_matmul
from repro.pipeline import PipelineExecutor
from repro.precompute import MaskStreamPool, enable_scratch
from repro.quantization import QuantizationConfig
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.serving import SessionManager

FIELD = PrimeField()
RNG = FieldRng(FIELD, seed=0)
N = 96
N_BIG = 256


@pytest.fixture(scope="module")
def operands():
    return RNG.uniform((N, N)), RNG.uniform((N, N))


@pytest.fixture(scope="module")
def big_operands():
    return RNG.uniform((N_BIG, N_BIG)), RNG.uniform((N_BIG, N_BIG))


def test_field_matmul_speed(benchmark, operands):
    a, b = operands
    result = benchmark(lambda: field_matmul(FIELD, a, b))
    assert result.shape == (N, N)


def test_float_matmul_reference_speed(benchmark, operands):
    a, b = operands
    af, bf = a.astype(np.float64), b.astype(np.float64)
    result = benchmark(lambda: af @ bf)
    assert result.shape == (N, N)


def test_field_matmul_generic_speed_n256(benchmark, big_operands):
    a, b = big_operands
    result = benchmark(lambda: field_matmul(FIELD, a, b, backend="generic"))
    assert result.shape == (N_BIG, N_BIG)


def test_field_matmul_limb_speed_n256(benchmark, big_operands):
    a, b = big_operands
    result = benchmark(lambda: field_matmul(FIELD, a, b, backend="limb"))
    assert result.shape == (N_BIG, N_BIG)
    assert np.array_equal(result, field_matmul(FIELD, a, b, backend="generic"))


def test_float_matmul_reference_speed_n256(benchmark, big_operands):
    a, b = big_operands
    af, bf = a.astype(np.float64), b.astype(np.float64)
    result = benchmark(lambda: af @ bf)
    assert result.shape == (N_BIG, N_BIG)


def test_small_contraction_matmul_speed(benchmark):
    """A masking-sized contraction — ``K + M = 5`` terms, as in every encode,
    decode, ``Σβ·δ`` combine and ``γ``-decode: one unsplit float64 GEMM."""
    a, b = RNG.uniform((5, 5)), RNG.uniform((5, 512))
    result = benchmark(lambda: field_matmul(FIELD, a, b))
    assert np.array_equal(result, field_matmul(FIELD, a, b, backend="generic"))


def _best_of(fn, reps):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_limb_backend_speedup_acceptance(big_operands, quick):
    """The limb path must beat the generic oracle by >= 3x at N=256.

    (Measured ~8x on the reference container; 3 leaves slack for noisy
    CI neighbours.  Min-of-reps so a single descheduled rep cannot fail
    the gate.)
    """
    a, b = big_operands
    reps = 3 if quick else 5
    generic = _best_of(lambda: field_matmul(FIELD, a, b, backend="generic"), reps)
    limb = _best_of(lambda: field_matmul(FIELD, a, b, backend="limb"), reps)
    speedup = generic / limb
    print(f"\nfield_matmul N={N_BIG}: generic {generic * 1e3:.2f}ms,"
          f" limb {limb * 1e3:.2f}ms, speedup {speedup:.1f}x")
    assert speedup >= 3.0


@pytest.mark.parametrize("backend", ["generic", "limb"])
def test_forward_encode_speed(benchmark, backend):
    from repro.fieldmath import use_backend

    coeffs = CoefficientSet.generate(RNG, k=4, m=1, extra_shares=1)
    encoder = ForwardEncoder(coeffs, RNG)
    x = RNG.uniform((4, 3, 32, 32))
    with use_backend(backend):
        batch = benchmark(lambda: encoder.encode(x))
    assert batch.shares.shape[0] == 6


@pytest.mark.parametrize("backend", ["generic", "limb"])
def test_forward_decode_speed(benchmark, backend):
    from repro.fieldmath import use_backend

    coeffs = CoefficientSet.generate(RNG, k=4, m=1, extra_shares=1)
    decoder = ForwardDecoder(coeffs)
    outputs = RNG.uniform((6, 3, 32, 32))
    with use_backend(backend):
        decoded = benchmark(lambda: decoder.decode(outputs))
    assert decoded.shape == (4, 3, 32, 32)


@pytest.mark.parametrize("backend", ["generic", "limb"])
def test_backward_decode_many_speed(benchmark, backend):
    """Batched gamma decode: R equation sets in one GEMM (bit-checked)."""
    from repro.fieldmath import use_backend

    coeffs = CoefficientSet.generate(RNG, k=4, m=1, extra_shares=1)
    decoder = BackwardDecoder(coeffs)
    equations = RNG.uniform((16, coeffs.n_shares, 64, 64))
    with use_backend(backend):
        decoded = benchmark(lambda: decoder.decode_many(equations))
    assert decoded.shape == (16, 64, 64)
    loop = np.stack([decoder.decode(eq) for eq in equations])
    assert np.array_equal(decoded, loop)


def test_backward_reference_aggregate_speed(benchmark):
    """The unmasked Σ<δ,x> baseline: stacked terms, one modular reduction."""
    deltas = RNG.uniform((32, 64))
    inputs = RNG.uniform((32, 128))

    def outer(d, x):
        return field_matmul(FIELD, x.reshape(-1, 1), d.reshape(1, -1))

    out = benchmark(lambda: reference_aggregate(FIELD, deltas, inputs, outer))
    assert out.shape == (128, 64)


def test_coefficient_generation_speed(benchmark):
    result = benchmark(
        lambda: CoefficientSet.generate(RNG, k=4, m=2, extra_shares=1)
    )
    assert result.verify()


def test_coefficient_material_speed(benchmark):
    """Everything a fresh-coefficient training batch derives from its set:
    generation, the verification plan and the alternate subset's ``B`` —
    one stacked elimination in all."""

    def material():
        coeffs = CoefficientSet.generate(RNG, k=4, m=1, extra_shares=1)
        plan = coeffs.verification_plan
        return coeffs, plan, coeffs.backward_matrices_for_subset(plan[1])

    coeffs, plan, _ = benchmark(material)
    assert coeffs.verify() and len(plan) == 2


def _step_material(sets):
    """Each set's verification plan and alternate-subset ``B`` — what a
    training layer step reads off its coefficient sets."""
    return [
        (coeffs.verification_plan, coeffs.backward_matrices_for_subset(coeffs.verification_plan[1]))
        for coeffs in sets
    ]


def test_coefficient_stack_speed(benchmark):
    """A layer step's coefficient material in one call: ``V = 4`` sets with
    their noise, verification plans and alternate ``B``s from four block
    draws (``A1``, MDS points, ``γ``, noise) and one stacked elimination.
    The one-slice stack is bit for bit the single call."""
    spec = dict(k=4, m=1, extra_shares=1)
    noise_shape = (3, 8, 8)

    def stack(rng=RNG, count=4):
        sets, noise = CoefficientSet.generate(
            rng, **spec, count=count, noise_shape=noise_shape
        )
        return sets, noise, _step_material(sets)

    rng, single_rng = FieldRng(FIELD, seed=5), FieldRng(FIELD, seed=5)
    (only,), noise, ((plan, (b_alt, _)),) = stack(rng, count=1)
    single, single_noise = CoefficientSet.generate(single_rng, **spec, noise_shape=noise_shape)
    assert np.array_equal(noise[0], single_noise)
    for name in ("a", "gamma", "b"):
        assert np.array_equal(getattr(only, name), getattr(single, name)), name
    ((single_plan, (single_b_alt, _)),) = _step_material([single])
    assert plan == single_plan and np.array_equal(b_alt, single_b_alt)
    assert np.array_equal(rng.uniform((4,)), single_rng.uniform((4,)))

    sets, noise, material = benchmark(stack)
    assert all(coeffs.verify() for coeffs in sets) and len(material) == 4
    assert noise.shape == (4, 1) + noise_shape
    assert all(len(plan) == 2 for plan, _ in material)


def test_interpreter_reference_speed(benchmark):
    """The normalizer for the interpreter-bound kernels: a fixed loop of
    Python big-int field arithmetic and small-array ufunc calls — no BLAS,
    nothing that leaves cache — which is what coefficient generation and
    the quantize chains spend their time on.  It speeds up and slows down
    with the interpreter where the float GEMM follows the BLAS."""
    p = FIELD.p
    small = np.arange(48, dtype=np.int64).reshape(6, 8)

    def loop():
        acc = 1
        for i in range(1, 151):
            acc = (acc * i + pow(i, -1, p)) % p
        out = small
        for _ in range(40):
            out = (out * 3 + 1) % p
        return acc, out

    acc, out = benchmark(loop)
    again, out_again = loop()
    assert acc == again and 0 < acc < p and np.array_equal(out, out_again)


def test_quantize_speed(benchmark):
    """Float -> field lift as one in-place ufunc chain (no Python loops)."""
    q = QuantizationConfig()
    rng = np.random.default_rng(0)
    values = rng.standard_normal((4, 3, 32, 32))
    out = benchmark(lambda: q.quantize(values))
    assert out.shape == values.shape
    assert out.dtype == np.int64


def test_dequantize_product_speed(benchmark):
    """Algorithm 1 line 9 (two rounding divisions) over one float64 buffer."""
    q = QuantizationConfig()
    rng = np.random.default_rng(0)
    products = q.quantize(rng.standard_normal((4, 3, 32, 32)), bias=True)
    out = benchmark(lambda: q.dequantize_product(products))
    assert out.shape == products.shape
    assert out.dtype == np.float64


@pytest.mark.parametrize("scratch", ["alloc", "scratch"])
def test_forward_encode_hot_path_speed(benchmark, scratch):
    """Encode at serving steady state: scratch reuse vs fresh allocation.

    Same kernel, same bits either way — the scratch pool only recycles
    non-escaping staging buffers (the limb planes and the concat input),
    which is what lets a steady-state flush window allocate nothing.
    Timed at 64x64 feature maps: below ~32x32 the per-call key lookups
    cost more than the (freelist-cheap) small allocations they avoid;
    at layer sizes the reuse wins (~1.2x encode, ~1.8x decode).
    """
    from repro.fieldmath import use_backend

    coeffs = CoefficientSet.generate(RNG, k=4, m=1, extra_shares=1)
    encoder = ForwardEncoder(coeffs, RNG)
    x = RNG.uniform((4, 3, 64, 64))
    previous = enable_scratch(scratch == "scratch")
    try:
        with use_backend("limb"):
            batch = benchmark(lambda: encoder.encode(x))
    finally:
        enable_scratch(previous)
    assert batch.shares.shape[0] == 6


@pytest.mark.parametrize("scratch", ["alloc", "scratch"])
def test_forward_decode_hot_path_speed(benchmark, scratch):
    """Decode at serving steady state: scratch reuse vs fresh allocation."""
    from repro.fieldmath import use_backend

    coeffs = CoefficientSet.generate(RNG, k=4, m=1, extra_shares=1)
    decoder = ForwardDecoder(coeffs)
    outputs = RNG.uniform((6, 3, 64, 64))
    previous = enable_scratch(scratch == "scratch")
    try:
        with use_backend("limb"):
            reference = decoder.decode(outputs)
            decoded = benchmark(lambda: decoder.decode(outputs))
    finally:
        enable_scratch(previous)
    assert decoded.shape == (4, 3, 64, 64)
    assert np.array_equal(decoded, reference)


def test_conv2d_batched_gemm_speed(benchmark):
    """The whole-batch conv lowering: one stacked GEMM per layer call."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 16, 16))
    w = rng.standard_normal((16, 3, 3, 3))
    out = benchmark(lambda: conv2d_via_matmul(x, w, np.matmul, stride=1, pad=1))
    assert out.shape == (8, 16, 16, 16)


# ----------------------------------------------------------------------
# one launch per op: a layer's K+M+1 shares as one stacked field GEMM
# ----------------------------------------------------------------------
N_SHARES = 6  # K=4, M=1, +1 integrity share


@pytest.fixture(scope="module")
def resnet_conv_cluster():
    """A mini-resnet residual-block conv (16->16 channels, 3x3, pad 1, on
    16x16 maps) with one share resident on each of 6 devices."""
    cluster = GpuCluster(FIELD, N_SHARES)
    cluster.broadcast_weights("w", RNG.uniform((16, 16, 3, 3)))
    cluster.scatter_shares("s", RNG.uniform((N_SHARES, 16, 16, 16)))
    return cluster


def _oracle_matmul(a, b):
    return field_matmul(FIELD, a, b, backend="generic")


def test_cluster_forward_launch_speed(benchmark, resnet_conv_cluster):
    cluster = resnet_conv_cluster
    launch = ShareLaunch("conv2d", "s", weight_name="w", stride=1, pad=1)
    outputs, _ = benchmark(lambda: cluster.map_shares(launch, range(N_SHARES)))
    per_device = np.stack(
        [
            conv2d_via_matmul(
                dev.stored_share("s")[None], dev.weights["w"], _oracle_matmul, 1, 1
            )[0]
            for dev in cluster.devices
        ]
    )
    assert np.array_equal(outputs, per_device)


def test_cluster_backward_launch_speed(benchmark, resnet_conv_cluster):
    """``Σβ·δ`` combine + ``Eq_j`` for every share: two GEMMs per launch."""
    cluster = resnet_conv_cluster
    deltas, b_rows = RNG.uniform((4, 16, 16, 16)), RNG.uniform((N_SHARES, 4))
    launch = ShareLaunch(
        "conv2d", "s", deltas=deltas, b_rows=b_rows, kh=3, kw=3, stride=1, pad=1
    )
    equations, _ = benchmark(lambda: cluster.map_shares(launch, range(N_SHARES)))
    per_device = []
    for j, dev in enumerate(cluster.devices):
        combined = _oracle_matmul(b_rows[j : j + 1], deltas.reshape(4, -1))
        per_device.append(
            conv2d_grad_w(
                dev.stored_share("s")[None], combined.reshape(1, 16, 16, 16),
                3, 3, _oracle_matmul, 1, 1,
            )
        )
    assert np.array_equal(equations, np.stack(per_device))


def test_launch_accounting_speed(benchmark):
    """What a stacked launch pays to book one op's ``V·S = 24`` output
    slices (``V = 4`` virtual batches on 6 honest devices): one ledger
    entry per device.  The totals are those of walking every slice through
    its device's ``emit``, which is what a device with an injector gets."""

    class Passthrough(FaultInjector):
        """Honest, but not the base class: walked slice by slice."""

    n_batches = 4
    flat = RNG.uniform((n_batches * N_SHARES, 8, 8, 8))
    macs = 8 * 8 * 8 * 72
    aggregated = GpuCluster(FIELD, N_SHARES)
    walked = GpuCluster(
        FIELD, N_SHARES, fault_injectors={j: Passthrough() for j in range(N_SHARES)}
    )

    def account(cluster=aggregated):
        return GpuCluster._emit_each(cluster.devices, "conv2d_forward", flat, macs)

    assert account() is flat and account(walked) is flat
    for mine, theirs in zip(aggregated.devices, walked.devices):
        assert mine.ledger == theirs.ledger and mine.ledger.kernel_calls == n_batches
    benchmark(account)


# ----------------------------------------------------------------------
# the per-request floor: session AEAD and per-window weight staging
# ----------------------------------------------------------------------
def _keyed_session(rng):
    manager = SessionManager(Enclave(seed=0), rng=rng)
    return manager.connect("tenant")


def test_session_roundtrip_speed(benchmark):
    """What one served request pays in session crypto — seal and open the
    request, seal and open the response — at an 80 B payload (the big-int
    XOR side) and a 1,536 B one (the numpy side).  Nonces come off the
    manager's byte stream a block at a time; the envelopes are those of an
    equally seeded session drawing ``Generator.bytes`` once per take."""
    payloads = [np.arange(n, dtype=np.float64) / 7 for n in (10, 192)]

    def round_trips(session):
        envelopes = []
        for x in payloads:
            request = session.encrypt_request(x)
            assert session.decrypt_request(request).shape == x.shape
            response = session.encrypt_response(x[:10])
            assert session.decrypt_response(response).shape == (10,)
            envelopes += [request.ciphertext, response.ciphertext]
        return envelopes

    session = _keyed_session(np.random.default_rng(4))
    per_call = _keyed_session(ByteStream(np.random.default_rng(4), block_bytes=0))
    for _ in range(200):  # well past the first block refill
        assert round_trips(session) == round_trips(per_call)
    benchmark(round_trips, session)


def test_restage_linear_speed(benchmark):
    """The executor's once-per-window staging of an *unchanged* mini-resnet:
    every offloaded layer's kept encoding validated by value and re-broadcast
    (plain mode), no normalise and no quantize."""
    network, _ = build_serving_model("mini-resnet", seed=0)

    config = DarKnightConfig(virtual_batch_size=4, seed=0)
    warm, fresh = DarKnightBackend(config), DarKnightBackend(config)
    stage_all = PipelineExecutor(network, warm)._stage_ops
    stage_all()
    PipelineExecutor(network, fresh)._stage_ops()
    weights, reference = warm.cluster.devices[0].weights, fresh.cluster.devices[0].weights
    first = dict(weights)
    assert len(benchmark(stage_all)) == len(first) == 7
    for name in first:
        assert weights[name] is first[name]
        assert np.array_equal(weights[name], reference[name])


def test_mask_pool_refill_speed(benchmark):
    """A mini-resnet stream's idle-gap refills and the draws that use them:
    32 ``refill_one`` + 32 ``draw`` of a ``(1, 8, 8, 8)`` tensor.  The pool
    seats one Philox per block of draws; the per-tensor reference it is
    timed against seats one per tensor, as the pool did before."""
    key = ((8, 8, 8), 4, 1)  # feature shape, K, M
    pool = MaskStreamPool(FIELD, base_key=1)
    all_miss = MaskStreamPool(FIELD, base_key=1)

    def cycle():
        for _ in range(32):
            pool.refill_one()
        return [pool.draw(*key) for _ in range(32)]

    pool.draw(*key)  # registers the stream
    all_miss.draw(*key)
    for tensor, pooled in cycle():
        assert pooled and np.array_equal(tensor, all_miss.draw(*key)[0])

    def per_tensor():
        for c in range(32):
            seat = np.random.Philox(key=[1, 2], counter=[0, 0, 0, c])
            FIELD.uniform((1, 8, 8, 8), np.random.Generator(seat))

    benchmark(cycle)
    pool_s, reference_s = _best_of(cycle, 50), _best_of(per_tensor, 50)
    print(f"\nmask pool: 32 refills + 32 draws {pool_s * 1e6:.0f} us,"
          f" 32 per-tensor generations alone {reference_s * 1e6:.0f} us")
    assert pool_s < reference_s


# ----------------------------------------------------------------------
# one launch per op per layer step: a batch's V virtual batches as one stack
# ----------------------------------------------------------------------
STEP_K, STEP_V = 4, 4


@pytest.fixture(scope="module")
def vgg_conv_step():
    """mini-vgg's 8->8 3x3 conv on 8x8 maps, ``B = V·K = 16`` (K=4, M=1, the
    integrity share, fresh coefficients), plus what a per-virtual-batch loop
    makes of the same step: the same backend fed one virtual batch at a
    time draws its coefficients and noise set by set where the stack draws
    them by the block, and decoding is exact under either, so outputs and
    the summed gradient must match bit for bit."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((STEP_K * STEP_V, 8, 8, 8))
    w = rng.standard_normal((8, 8, 3, 3)) * 0.2
    bias = rng.standard_normal(8)
    delta = rng.standard_normal((STEP_K * STEP_V, 8, 8, 8)) * 0.1
    config = DarKnightConfig(virtual_batch_size=STEP_K, integrity=True, seed=0)
    loop = DarKnightBackend(config)
    outs, grad = [], None
    for v in range(STEP_V):
        rows = slice(v * STEP_K, (v + 1) * STEP_K)
        outs.append(loop.conv2d_forward(x[rows], w, bias, 1, 1, f"conv/vb{v}"))
    for v in range(STEP_V):
        rows = slice(v * STEP_K, (v + 1) * STEP_K)
        part = loop.conv2d_grad_w(x[rows], delta[rows], 3, 3, 1, 1, f"conv/vb{v}")
        grad = part if grad is None else grad + part
    loop.end_batch()
    return {"config": config, "x": x, "w": w, "bias": bias, "delta": delta,
            "loop_out": np.concatenate(outs), "loop_grad": grad}


def _minor_faults_per_call(fn, calls=50):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def test_layer_step_forward_speed(benchmark, vgg_conv_step):
    """Quantize, encode, launch, verify and decode all ``V`` virtual batches
    of the layer: one stacked field GEMM per op (coefficient generation,
    one stacked call for the step, included)."""
    step = vgg_conv_step
    backend = DarKnightBackend(step["config"])

    def forward():
        out = backend.conv2d_forward(step["x"], step["w"], step["bias"], 1, 1, "conv")
        backend.end_batch()
        return out

    assert np.array_equal(forward(), step["loop_out"])  # the first step, same seed
    benchmark(forward)
    print(f"\nlayer-step forward: {_minor_faults_per_call(forward):.1f} ru_minflt per iteration")


def test_layer_step_backward_speed(benchmark, vgg_conv_step):
    """``Σβ·δ`` combine, ``Eq_j`` under the primary and the alternate ``B``,
    ``γ``-decode and compare for all ``V`` virtual batches: one launch."""
    step = vgg_conv_step
    backend = DarKnightBackend(step["config"])
    backend.conv2d_forward(step["x"], step["w"], step["bias"], 1, 1, "conv")

    def backward():
        return backend.conv2d_grad_w(step["x"], step["delta"], 3, 3, 1, 1, "conv")

    grad = benchmark(backward)
    assert np.array_equal(grad, step["loop_grad"])
    print(f"\nlayer-step backward: {_minor_faults_per_call(backward):.1f} ru_minflt per iteration")
    backend.end_batch()
