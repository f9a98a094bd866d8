"""Convolutions unfold by the block: exactness, memory, and the ruler's
launches staying one block.

Every per-sample convolution kernel walks its sample (or share) axis in
blocks of whole samples whose unfold fits ``F.UNFOLD_BLOCK_BYTES``.  Here
the budget is shrunk until each path splits into at least three blocks,
the last one ragged, and the result is held against the unblocked one:
bit for bit on the field, ``allclose`` on floats (whether a float GEMM of
fewer columns rounds each element the same is up to the BLAS).
"""

import tracemalloc

import numpy as np
import pytest

from repro.cli import build_serving_model
from repro.fieldmath import FieldRng, GenericBackend, PrimeField, field_matmul
from repro.gpu import FieldKernels
from repro.models import build_mini_vgg
from repro.nn import functional as F
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer

_FIELD = PrimeField()
#: Samples (shares) per test batch and per block: blocks of 3, 3 and 1.
N, PER_BLOCK = 7, 3


def _oracle_matmul(a, b):
    return field_matmul(_FIELD, a, b, backend=GenericBackend())


@pytest.fixture()
def blocks(monkeypatch):
    """Every ``unfold_blocks`` call's ``(n, sample_bytes, blocks)``."""
    seen = []
    unfold_blocks = F.unfold_blocks

    def record(n, sample_bytes):
        out = unfold_blocks(n, sample_bytes)
        seen.append((n, sample_bytes, out))
        return out

    monkeypatch.setattr(F, "unfold_blocks", record)
    return seen


def _split(monkeypatch, blocks, run):
    """``run()`` unblocked, then with the budget at ``PER_BLOCK`` samples of
    the first call's unfold (plus a little): both results, after checking
    the first took one block and every call of the second took 3+ blocks,
    the last ragged."""
    whole = run()
    assert blocks and all(len(taken) == 1 for _, _, taken in blocks)
    sample_bytes = blocks[0][1]
    blocks.clear()
    monkeypatch.setattr(F, "UNFOLD_BLOCK_BYTES", PER_BLOCK * sample_bytes + sample_bytes // 2)
    split = run()
    assert blocks
    for n, _, taken in blocks:
        assert len(taken) >= 3 and taken[-1].stop - taken[-1].start < PER_BLOCK, taken
        assert taken[0].start == 0 and taken[-1].stop == n
    return whole, split


GEOMETRIES = [
    pytest.param(stride, pad, id=f"stride{stride}-pad{pad}") for stride in (1, 2) for pad in (0, 1)
]


# ----------------------------------------------------------------------
# field paths: bit for bit, and against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride, pad", GEOMETRIES)
@pytest.mark.parametrize("tier", ["public", "limb"])
def test_field_forward_by_the_block_is_the_unblocked_product(
    tier, stride, pad, monkeypatch, blocks
):
    """The public tier (small centred weights) and the limb fallback
    (full-range weights): blocked equals unblocked equals the generic
    oracle, share by share."""
    rng = FieldRng(_FIELD, seed=stride * 10 + pad)
    shares = rng.uniform((N, 3, 7, 6))
    if tier == "public":
        w = _FIELD.element(np.random.default_rng(pad).integers(-300, 301, size=(4, 3, 3, 3)))
    else:
        w = rng.uniform((4, 3, 3, 3))
    kernels = FieldKernels(_FIELD)
    whole, split = _split(monkeypatch, blocks, lambda: kernels.conv2d(shares, w, stride, pad))
    assert split.dtype == np.int64 and np.array_equal(split, whole)
    oracle = np.concatenate(
        [F.conv2d_via_matmul(share[None], w, _oracle_matmul, stride, pad) for share in shares]
    )
    assert np.array_equal(split, oracle)


@pytest.mark.parametrize("stride, pad", GEOMETRIES)
def test_field_backward_eq_by_the_block_is_the_unblocked_product(stride, pad, monkeypatch, blocks):
    """``Eq_j`` of every share — ``<δ[j], x[j]>`` — blocked equals
    unblocked equals the oracle's per-share product."""
    rng = FieldRng(_FIELD, seed=stride * 10 + pad + 1)
    shares = rng.uniform((N, 3, 7, 6))
    oh, ow = F.conv_output_size(7, 3, stride, pad), F.conv_output_size(6, 3, stride, pad)
    deltas = rng.uniform((N, 5, oh, ow))
    kernels = FieldKernels(_FIELD)
    whole, split = _split(
        monkeypatch, blocks, lambda: kernels.conv2d_grad_w(shares, deltas, 3, 3, stride, pad)
    )
    assert split.shape == (N, 5, 3, 3, 3) and np.array_equal(split, whole)
    for j in range(N):
        alone = F.conv2d_grad_w(
            shares[j : j + 1], deltas[j : j + 1], 3, 3, _oracle_matmul, stride, pad
        )
        assert np.array_equal(split[j], alone)


# ----------------------------------------------------------------------
# float paths: allclose (exact equality is printed, not asserted)
# ----------------------------------------------------------------------
def _float_cases(stride, pad):
    rng = np.random.default_rng(stride * 10 + pad)
    x = rng.standard_normal((N, 3, 7, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    dw = rng.standard_normal((3, 3, 3))
    oh, ow = F.conv_output_size(7, 3, stride, pad), F.conv_output_size(6, 3, stride, pad)
    delta = rng.standard_normal((N, 4, oh, ow))
    depth_delta = rng.standard_normal((N, 3, oh, ow))
    return {
        "conv2d_via_matmul": lambda: F.conv2d_via_matmul(x, w, np.matmul, stride, pad),
        "conv2d_grad_x": lambda: F.conv2d_grad_x(w, delta, x.shape, np.matmul, stride, pad),
        "depthwise_conv2d": lambda: F.depthwise_conv2d(x, dw, stride, pad),
        "depthwise_conv2d_grad_x": lambda: F.depthwise_conv2d_grad_x(
            dw, depth_delta, x.shape, stride, pad
        ),
    }


@pytest.mark.parametrize("stride, pad", GEOMETRIES)
@pytest.mark.parametrize(
    "name", ["conv2d_via_matmul", "conv2d_grad_x", "depthwise_conv2d", "depthwise_conv2d_grad_x"]
)
def test_float_kernels_by_the_block_match_the_unblocked_result(
    name, stride, pad, monkeypatch, blocks
):
    whole, split = _split(monkeypatch, blocks, _float_cases(stride, pad)[name])
    assert split.shape == whole.shape
    assert np.allclose(split, whole, rtol=1e-12, atol=1e-12)
    print(f"{name} stride {stride} pad {pad}: bit-identical {np.array_equal(split, whole)}")


# ----------------------------------------------------------------------
# memory: a launch's peak is one block plus its output, not its unfold
# ----------------------------------------------------------------------
#: Shares, and a conv whose unfold across them is over 10x the budget.
MEM_SHARES, MEM_BUDGET = 24, 320 << 10


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("launch", ["forward", "backward"])
def test_a_launch_peaks_at_one_block_plus_its_output(launch, monkeypatch):
    """A 24-share 8->8 3x3 conv on 16x16 maps unfolds 3.5 MB; with the
    budget at 320 KiB its launch — on a fresh kernel set, so the workspace
    is grown inside the trace — must stay under the output plus three
    budgets: a block's unfold, the limb workspace's float64 copy or
    staging of it, and the workspace's rounding up.  Unblocked, the
    unfold alone is over ten budgets."""
    monkeypatch.setattr(F, "UNFOLD_BLOCK_BYTES", MEM_BUDGET)
    rng = FieldRng(_FIELD, seed=5)
    shares = rng.uniform((MEM_SHARES, 8, 16, 16))
    w = _FIELD.element(np.random.default_rng(5).integers(-300, 301, size=(8, 8, 3, 3)))
    deltas = rng.uniform((MEM_SHARES, 8, 16, 16))
    unfold = MEM_SHARES * 8 * 9 * 16 * 16 * 8
    assert unfold >= 10 * MEM_BUDGET
    kernels = FieldKernels(_FIELD)
    if launch == "forward":
        out, peak = _traced_peak(lambda: kernels.conv2d(shares, w, 1, 1))
    else:
        out, peak = _traced_peak(lambda: kernels.conv2d_grad_w(shares, deltas, 3, 3, 1, 1))
    print(f"{launch}: traced peak {peak} B, output {out.nbytes} B, unfold {unfold} B")
    assert peak <= out.nbytes + 3 * MEM_BUDGET


# ----------------------------------------------------------------------
# guard: what the ruler times stays one block
# ----------------------------------------------------------------------
def test_the_rulers_largest_masked_launches_are_one_block(blocks):
    """mini-vgg's training step (a stack of 4 virtual batches: 24 shares,
    forward and backward ``Eq``) and a mini-resnet serving batch (6 shares)
    unfold in one block each, so a change of the budget can never start
    splitting the timed path unnoticed.  The largest is training's 24-share
    8->8 conv on 8x8 maps: 24 x 72 x 64 float64, 885 KB."""
    config = DarKnightConfig(virtual_batch_size=4, integrity=True, seed=0)
    rng = np.random.default_rng(0)
    vgg = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=rng, width=8)
    Trainer(vgg, DarKnightBackend(config)).train_step(
        rng.standard_normal((16, 3, 8, 8)), rng.integers(0, 10, size=16)
    )
    resnet, shape = build_serving_model("mini-resnet", seed=0)
    backend = DarKnightBackend(config)
    resnet.forward(rng.standard_normal((4,) + shape), backend, training=False)
    backend.end_batch()

    assert all(len(taken) == 1 for _, _, taken in blocks)
    largest = max(n * sample_bytes for n, sample_bytes, _ in blocks)
    assert largest == 24 * 72 * 64 * 8 < F.UNFOLD_BLOCK_BYTES
    assert {n for n, _, _ in blocks} >= {24, 16, 6}  # training shares, δ batch, serving
