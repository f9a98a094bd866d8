"""An inference forward holds one block of samples at a time.

``Sequential.forward(..., training=False)`` walks the execution plan one
block of whole samples at a time — as many as fit ``F.UNFOLD_BLOCK_BYTES``
at the plan's widest per-sample footprint, never splitting a masked
backend's virtual batch — and writes each block's rows into one result.
Here the budget is shrunk until a batch takes at least three blocks, the
last one ragged, and the result is held against the one-block path:
``allclose`` on floats, bit for bit under DarKnight (decoding is exact).
"""

import tracemalloc

import numpy as np
import pytest

from repro.cli import build_serving_model
from repro.models import build_mini_mobilenet, build_mini_vgg
from repro.nn import PlainBackend
from repro.nn import functional as F
from repro.nn.layers import BranchJoin
from repro.pipeline import PipelineExecutor
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.slalom import SlalomBackend

MODELS = ["tiny", "mini-vgg", "mini-resnet", "mini-mobilenet"]


def _model(name):
    if name == "mini-mobilenet":
        return build_mini_mobilenet(rng=np.random.default_rng(0), width=8)
    return build_serving_model(name, seed=0)[0]


def _batch(net, n, seed=1):
    return np.random.default_rng(seed).standard_normal((n,) + net.input_shape)


def _block_sizes(net, monkeypatch):
    """Record the batch size of every call to the plan's first layer —
    one per block of a forward."""
    layer = net.execution_plan()[0].layer
    sizes = []
    forward = layer.forward

    def record(x, backend, training=True):
        sizes.append(x.shape[0])
        return forward(x, backend, training)

    monkeypatch.setattr(layer, "forward", record)
    return sizes


def _budget(net, samples):
    """A budget that holds ``samples`` samples of ``net`` (plus a little)."""
    fp = net.widest_sample_bytes()
    return samples * fp + fp // 2


# ----------------------------------------------------------------------
# exactness: blocked against the one-block path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", MODELS)
def test_plain_logits_by_the_block_match_the_one_block_path(name, monkeypatch):
    net = _model(name)
    x = _batch(net, 7)
    sizes = _block_sizes(net, monkeypatch)
    whole = net.forward(x, PlainBackend(), training=False)
    assert sizes == [7]
    sizes.clear()
    monkeypatch.setattr(F, "UNFOLD_BLOCK_BYTES", _budget(net, 3))
    split = net.forward(x, PlainBackend(), training=False)
    assert sizes == [3, 3, 1]
    assert split.shape == whole.shape == (7,) + net.plan_shapes()[-1]
    assert np.allclose(split, whole, rtol=1e-12, atol=1e-12)
    print(f"{name}: bit-identical {np.array_equal(split, whole)}")


@pytest.mark.parametrize("name", MODELS)
def test_darknight_logits_by_the_block_equal_the_one_block_path(name, monkeypatch):
    """Integrity on, ``K = 4``, a budget of 10 samples (which 4 does not
    divide): blocks of two whole virtual batches, 8 + 8 + 5, so the last
    virtual batch of the last block is padded exactly as in the one-block
    run.  The logits are equal bit for bit, and equal to the depth-1
    executor's."""
    net = _model(name)
    x = _batch(net, 21)
    config = DarKnightConfig(virtual_batch_size=4, integrity=True, seed=0)
    sizes = _block_sizes(net, monkeypatch)
    whole = net.predict(x, DarKnightBackend(config))
    assert sizes == [21]
    sizes.clear()
    monkeypatch.setattr(F, "UNFOLD_BLOCK_BYTES", _budget(net, 10))
    split = net.predict(x, DarKnightBackend(config))
    assert sizes == [8, 8, 5]
    assert all(size % config.virtual_batch_size == 0 for size in sizes[:-1])
    assert np.array_equal(split, whole)
    staged = PipelineExecutor(net, DarKnightBackend(config)).run(x).output
    assert np.array_equal(staged, whole)


def test_a_block_is_at_least_one_virtual_batch(monkeypatch):
    """A budget under one sample still moves whole virtual batches."""
    net = _model("mini-resnet")
    x = _batch(net, 10)
    monkeypatch.setattr(F, "UNFOLD_BLOCK_BYTES", 1)
    sizes = _block_sizes(net, monkeypatch)
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=4, seed=0))
    net.forward(x, backend, training=False)
    assert sizes == [4, 4, 2]
    sizes.clear()
    net.forward(x, PlainBackend(), training=False)
    assert sizes == [1] * 10


# ----------------------------------------------------------------------
# a batch that fits one block takes the whole-batch walk
# ----------------------------------------------------------------------
def _whole_batch_walk(net, x, backend):
    """The plan replayed on the whole batch at once — the inference
    forward as it ran before blocks."""
    plan = net.execution_plan()
    values = {-1: x}
    for step in plan:
        if isinstance(step.layer, BranchJoin):
            a, b = (values[d] for d in step.deps)
            values[step.index] = step.layer.join(a, b, training=False)
        else:
            values[step.index] = step.layer.forward(values[step.deps[0]], backend, training=False)
    return values[plan[-1].index]


BACKENDS = {
    "plain": PlainBackend,
    "slalom": lambda: SlalomBackend(integrity=True),
    "slalom-no-integrity": lambda: SlalomBackend(integrity=False),
    "darknight": lambda: DarKnightBackend(
        DarKnightConfig(virtual_batch_size=4, integrity=True, seed=3)
    ),
    "darknight-no-integrity": lambda: DarKnightBackend(
        DarKnightConfig(virtual_batch_size=4, seed=3)
    ),
}


def _ledgers(backend):
    enclave = getattr(backend, "enclave", None)
    cluster = getattr(backend, "cluster", None)
    return (
        None if enclave is None else enclave.ledger,
        None if cluster is None else [dev.ledger for dev in cluster.devices],
    )


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("name", ["mini-vgg", "mini-resnet"])
def test_a_batch_that_fits_runs_the_whole_batch_walk(name, backend, monkeypatch):
    """Bit for bit the same logits and the same ledgers as the whole-batch
    replay, from equally built backends; the first layer is called once."""
    net = _model(name)
    x = _batch(net, 10)
    sizes = _block_sizes(net, monkeypatch)
    ours, theirs = BACKENDS[backend](), BACKENDS[backend]()
    got = net.forward(x, ours, training=False)
    assert sizes == [10]
    assert np.array_equal(got, _whole_batch_walk(net, x, theirs))
    assert _ledgers(ours) == _ledgers(theirs)


# ----------------------------------------------------------------------
# memory: one block's footprint plus the output, not the batch's
# ----------------------------------------------------------------------
#: Samples, and a budget the batch's widest activation is over 10x of.
MEM_SAMPLES, MEM_BUDGET = 64, 320 << 10


def test_an_inference_forward_peaks_at_one_block_plus_its_output(monkeypatch):
    """mini-vgg (width 8) on 16x16 inputs: its widest per-sample footprint
    is the 8->8 conv's 144 KiB unfold (9 MiB over 64 samples, 29 budgets).
    By the block (two samples each) the traced peak stays under the output
    plus three budgets: a block's unfold, its product and the step output
    it is copied into.  The whole-batch walk, whose convolutions unfold by
    the block but whose step outputs span the batch, peaks at 3.4 MB —
    over ten budgets."""
    net = build_mini_vgg(input_shape=(3, 16, 16), rng=np.random.default_rng(0), width=8)
    x = _batch(net, MEM_SAMPLES)
    net.forward(x[:1], PlainBackend(), training=False)  # first-call allocations
    unfold = MEM_SAMPLES * 8 * 9 * 16 * 16 * 8  # the 8->8 conv's, whole batch
    assert unfold >= 10 * MEM_BUDGET
    monkeypatch.setattr(F, "UNFOLD_BLOCK_BYTES", MEM_BUDGET)
    tracemalloc.start()
    try:
        out = net.forward(x, PlainBackend(), training=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"traced peak {peak} B, output {out.nbytes} B, unfold {unfold} B")
    assert out.shape == (MEM_SAMPLES, 10)
    assert peak <= out.nbytes + 3 * MEM_BUDGET
