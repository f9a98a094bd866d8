"""Property tests tying the flattened plan to partitioned execution.

Two invariants the partition stack leans on, checked model by model:

* **Plan faithfulness** — for every model family, replaying the
  flattened ``execution_plan()`` with an independent DAG walk (written
  here, not the library's) is bit-identical to running the layer list
  sequentially (an oracle here computes each block's body + shortcut
  recursively, so the two paths share no traversal code) and to
  ``Sequential.forward`` itself.
* **Cut independence** — *every* legal partition cut of the plan yields
  bit-identical masked logits: a two-stage ``PipelineGroup`` at each of
  the ``n_steps - 1`` possible boundaries, plus the planner's own 3-way
  cut, all match the single whole-model enclave to the last bit.
"""

import numpy as np
import pytest

from repro.models import build_mini_mobilenet, build_mini_resnet, build_mini_vgg
from repro.nn import PLAN_INPUT, Dense, PlainBackend, ReLU, ResidualBlock, Sequential
from repro.nn import functional as F
from repro.pipeline import WindowItem
from repro.runtime import DarKnightConfig
from repro.sharding import (
    AttestationMesh,
    EnclaveShard,
    LayerPartitionPlanner,
    PipelineGroup,
)

MODELS = {
    "mini-vgg": build_mini_vgg,
    "mini-resnet": build_mini_resnet,
    "mini-mobilenet": build_mini_mobilenet,
}
SHAPE = (3, 8, 8)


def _build(name, seed=0):
    rng = np.random.default_rng(seed)
    return MODELS[name](input_shape=SHAPE, n_classes=4, rng=rng, width=4)


def _replay_plan(net, x):
    """An independent walk of the flattened DAG (no library traversal)."""
    backend = PlainBackend()
    plan = net.execution_plan()
    values = {PLAN_INPUT: x}
    for i, step in enumerate(plan):
        if len(step.deps) == 2:
            a, b = (values[d] for d in step.deps)
            values[i] = step.layer.join(a, b, training=False)
        else:
            values[i] = step.layer.forward(
                values[step.deps[0]], backend, training=False
            )
    return values[len(plan) - 1]


def _unflattened(layer, x, backend):
    """The oracle: a residual block as ``relu(body(x) + shortcut(x))``."""
    if not isinstance(layer, ResidualBlock):
        return layer.forward(x, backend, training=False)
    out, skip = x, x
    for inner in layer.body:
        out = _unflattened(inner, out, backend)
    for inner in layer.shortcut:
        skip = _unflattened(inner, skip, backend)
    return F.relu(out + skip)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_flattened_plan_replays_bit_identical_to_forward(name):
    net = _build(name)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, *SHAPE))
    replayed = _replay_plan(net, x)
    # Sequential layer-list execution: blocks run un-flattened.
    backend = PlainBackend()
    h = x
    for layer in net.layers:
        h = _unflattened(layer, h, backend)
    assert np.array_equal(replayed, h)
    assert np.array_equal(replayed, net.forward(x, backend, training=False))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_planner_cuts_are_valid_for_every_model(name):
    net = _build(name)
    planner = LayerPartitionPlanner(net)
    n_steps = len(net.execution_plan())
    previous = None
    for n in range(1, min(4, n_steps) + 1):
        ranges = planner.plan(n)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_steps
        assert all(hi > lo for lo, hi in ranges)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        bottleneck = max(sum(planner.step_costs()[lo:hi]) for lo, hi in ranges)
        if previous is not None:
            assert bottleneck <= previous
        previous = bottleneck


def _masked_reference(net, cfg, x, shard_id=9):
    shard = EnclaveShard.provision(shard_id, net, cfg)
    groups, _ = shard.run_window([WindowItem(x, 0.0)])
    return np.asarray(groups[0].output)


def _run_cut(net, cfg, shards, mesh, ranges, x, group_id):
    group = PipelineGroup(group_id, shards[: len(ranges)], ranges, mesh)
    finals, _ = group.run_window([WindowItem(x, 0.0)])
    return np.asarray(finals[0].output)


@pytest.mark.parametrize("name", ["mini-resnet", "mini-vgg"])
def test_every_legal_two_stage_cut_serves_bit_identical_logits(name):
    """Exhaustive over all n_steps - 1 boundaries, plus the 3-way plan."""
    net = _build(name)
    cfg = DarKnightConfig(virtual_batch_size=2, seed=0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, *SHAPE))
    reference = _masked_reference(net, cfg, x)
    n_steps = len(net.execution_plan())
    shards = [EnclaveShard.provision(i, net, cfg) for i in range(3)]
    mesh = AttestationMesh(shards)
    for cut in range(1, n_steps):
        got = _run_cut(
            net, cfg, shards, mesh, [(0, cut), (cut, n_steps)], x, 100 + cut
        )
        assert np.array_equal(got, reference), f"{name}: cut at step {cut} diverged"
    three_way = LayerPartitionPlanner(net).plan(3)
    got = _run_cut(net, cfg, shards, mesh, three_way, x, 99)
    assert np.array_equal(got, reference), f"{name}: 3-way cut {three_way} diverged"


def test_every_partition_count_of_a_dense_plan_is_bit_identical():
    """A 3-step plan has exactly one 3-way cut and two 2-way cuts; all
    of them (every legal partitioning of the plan) must agree."""
    rng = np.random.default_rng(3)
    net = Sequential(
        [Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,)
    )
    cfg = DarKnightConfig(virtual_batch_size=2, seed=0)
    x = rng.standard_normal((2, 16))
    reference = _masked_reference(net, cfg, x)
    shards = [EnclaveShard.provision(i, net, cfg) for i in range(3)]
    mesh = AttestationMesh(shards)
    cuts = [
        [(0, 1), (1, 3)],
        [(0, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3)],
    ]
    for i, ranges in enumerate(cuts):
        got = _run_cut(net, cfg, shards, mesh, ranges, x, 200 + i)
        assert np.array_equal(got, reference), f"ranges {ranges} diverged"
