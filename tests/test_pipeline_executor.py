"""Tests for the staged pipeline executor: encode/dispatch/decode scheduling.

Covers the three load-bearing claims of the refactor:

1. pipelined execution is *bit-identical* to the synchronous path at every
   depth (masking decodes exactly, so schedule order cannot change logits);
2. with a compute-heavy model, overlapping enclave encode/decode with GPU
   kernels shortens the simulated makespan;
3. a window releases its encodings on every exit path — including aborts
   mid-network — and ``end_batch`` is idempotent.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError, IntegrityError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper, TargetedTamper
from repro.masking import iter_virtual_batches
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.pipeline import EnclaveTimeline, PipelineExecutor, StageCostModel, WindowItem
from repro.runtime import DarKnightBackend, DarKnightConfig


def _mixed_net(seed=0):
    """Conv + dense stack exercising offloaded and TEE-resident steps."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(2, 4, 3, 1, 1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, 10, rng=rng),
            ReLU(),
            Dense(10, 4, rng=rng),
        ],
        (2, 8, 8),
    )


def _conv_heavy_net(seed=0, width=12, n_convs=4):
    """A conv stack big enough that GPU kernel time rivals encode/decode."""
    rng = np.random.default_rng(seed)
    layers = [Conv2D(4, width, 3, 1, 1, rng=rng), ReLU()]
    for _ in range(n_convs - 1):
        layers += [Conv2D(width, width, 3, 1, 1, rng=rng), ReLU()]
    layers += [Flatten(), Dense(width * 12 * 12, 4, rng=rng)]
    return Sequential(layers, (4, 12, 12))


def _backend(seed=11, **kwargs):
    return DarKnightBackend(
        DarKnightConfig(virtual_batch_size=4, seed=seed, **kwargs)
    )


# ----------------------------------------------------------------------
# bit-identity across depths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_pipelined_logits_bit_identical_to_sync(depth, nprng):
    net = _mixed_net()
    x = nprng.normal(size=(11, 2, 8, 8))  # padded tail at K=4

    reference = net.predict(x, _backend())
    result = PipelineExecutor(net, _backend(), pipeline_depth=depth).run(x)
    assert np.array_equal(result.output, reference)
    assert result.stats.n_jobs == 3


def test_executor_logits_bit_identical_across_depths(nprng):
    net = _mixed_net()
    x = nprng.normal(size=(9, 2, 8, 8))
    config = DarKnightConfig(virtual_batch_size=4, seed=3)
    reference = net.predict(x, DarKnightBackend(config))
    for depth in (1, 2, 3):
        backend = DarKnightBackend(config)
        logits = PipelineExecutor(net, backend, pipeline_depth=depth).run(x).output
        assert np.array_equal(logits, reference)
        assert backend.open_encodings() == 0


def test_execution_plan_marks_offloaded_steps():
    net = _mixed_net()
    plan = net.execution_plan()
    assert [s.offloaded for s in plan] == [True, False, False, False, True, False, True]
    assert [s.index for s in plan] == list(range(7))
    assert plan[0].name == net.layers[0].name


# ----------------------------------------------------------------------
# overlap shortens the simulated makespan
# ----------------------------------------------------------------------
def test_pipeline_overlap_beats_synchronous_schedule(nprng):
    net = _conv_heavy_net()
    x = nprng.normal(size=(24, 4, 12, 12))  # 6 virtual batches at K=4
    # Price stages so one conv share's kernel rivals its encode+decode —
    # the balanced regime the paper's pipelined setting targets.
    costs = StageCostModel(stage_overhead=5e-5, gpu_mac_throughput=5e8)

    def makespan(depth):
        result = PipelineExecutor(
            net, _backend(), pipeline_depth=depth, costs=costs
        ).run(x)
        return result.output, result.stats

    out_sync, sync_stats = makespan(1)
    out_pipe, pipe_stats = makespan(4)
    assert np.array_equal(out_sync, out_pipe)
    speedup = sync_stats.makespan / pipe_stats.makespan
    assert speedup > 1.5, f"pipelining speedup only {speedup:.2f}x"
    # Overlap shows up as higher utilization of both resources.
    assert pipe_stats.enclave_utilization > sync_stats.enclave_utilization
    assert pipe_stats.gpu_utilization > sync_stats.gpu_utilization


def test_depth_one_schedule_is_fully_serialized(nprng):
    """At depth 1 no two stage spans may overlap — the synchronous order."""
    net = _mixed_net()
    result = PipelineExecutor(net, _backend(), pipeline_depth=1).run(
        nprng.normal(size=(8, 2, 8, 8))
    )
    spans = sorted(result.stats.spans, key=lambda s: s.start)
    for earlier, later in zip(spans, spans[1:]):
        assert later.start >= earlier.end - 1e-12


def test_batch_window_overlaps_consecutive_batches(nprng):
    """Batch n+1's encode starts before batch n's last decode lands."""
    net = _conv_heavy_net()
    costs = StageCostModel(gpu_mac_throughput=7e8)
    config = DarKnightConfig(virtual_batch_size=4, seed=2)
    executor = PipelineExecutor(
        net, DarKnightBackend(config), pipeline_depth=4, costs=costs
    )
    x1 = nprng.normal(size=(4, 4, 12, 12))
    x2 = nprng.normal(size=(4, 4, 12, 12))
    groups, stats = executor.run_grouped([WindowItem(x1, 0.0), WindowItem(x2, 0.0)])
    first, second = groups
    assert second.start < first.finish  # cross-batch overlap
    assert second.finish > first.finish
    assert stats.n_jobs == 2
    # The window's logits match per-batch synchronous runs bit-exactly.
    sync = DarKnightBackend(config)
    assert np.array_equal(first.output, net.predict(x1, sync))
    assert np.array_equal(second.output, net.predict(x2, sync))


def test_executor_rejects_bad_depth_and_plain_backend(nprng):
    net = _mixed_net()
    with pytest.raises(ConfigurationError, match="pipeline depth"):
        PipelineExecutor(net, _backend(), pipeline_depth=0)
    from repro.nn import PlainBackend

    with pytest.raises(ConfigurationError, match="staged op"):
        PipelineExecutor(net, PlainBackend(), pipeline_depth=2)
    with pytest.raises(ConfigurationError, match="pipeline depth"):
        DarKnightConfig(pipeline_depth=0)


# ----------------------------------------------------------------------
# staged ops on partial (padded) virtual batches, forward and backward
# ----------------------------------------------------------------------
def test_staged_dense_forward_backward_bit_identical_on_padded_batch(nprng):
    x = nprng.normal(size=(6, 8))  # K=4 -> one full vb + a padded pair
    w = nprng.normal(size=(8, 3))
    delta = nprng.normal(size=(6, 3)) * 0.1

    sync = _backend(seed=21)
    out_sync = sync.dense_forward(x, w, None, key="d")
    grad_sync = sync.dense_grad_w(x, delta, key="d")
    sync.end_batch()

    staged = _backend(seed=21)
    op = staged.stage_linear("dense", w, None, "d")
    vbs = list(iter_virtual_batches(x, 4))
    # Encode everything up front, then dispatch and decode out of order —
    # the freedoms a pipeline scheduler actually exercises.
    tickets = [staged.encode(op, [vb], [i]) for i, vb in enumerate(vbs)]
    futures = [staged.dispatch(t) for t in reversed(tickets)]
    decoded = {f.tickets[0].vb_index: staged.decode(f)[0] for f in futures}
    out_staged = np.concatenate([decoded[i] for i in range(len(vbs))], axis=0)
    assert np.array_equal(out_staged, out_sync)

    grad_staged = staged.dense_grad_w(x, delta, key="d")
    staged.end_batch()
    assert np.array_equal(grad_staged, grad_sync)
    staged.assert_encodings_released()


def test_staged_conv_forward_backward_bit_identical_on_padded_batch(nprng):
    x = nprng.normal(size=(5, 2, 6, 6))
    w = nprng.normal(size=(3, 2, 3, 3)) * 0.5
    delta = nprng.normal(size=(5, 3, 6, 6)) * 0.1

    sync = _backend(seed=31)
    out_sync = sync.conv2d_forward(x, w, None, 1, 1, key="c")
    grad_sync = sync.conv2d_grad_w(x, delta, 3, 3, 1, 1, key="c")
    sync.end_batch()

    staged = _backend(seed=31)
    op = staged.stage_linear("conv2d", w, None, "c", stride=1, pad=1)
    vbs = list(iter_virtual_batches(x, 4))
    tickets = [staged.encode(op, [vb], [i]) for i, vb in enumerate(vbs)]
    futures = [staged.dispatch(t) for t in tickets]
    decoded = [staged.decode(f)[0] for f in reversed(futures)]
    out_staged = np.concatenate(list(reversed(decoded)), axis=0)
    assert np.array_equal(out_staged, out_sync)

    grad_staged = staged.conv2d_grad_w(x, delta, 3, 3, 1, 1, key="c")
    staged.end_batch()
    assert np.array_equal(grad_staged, grad_sync)


def test_padded_rows_never_leak_into_outputs(nprng):
    """Decoded outputs contain exactly the real rows, whatever the order."""
    backend = _backend(seed=41)
    x = nprng.normal(size=(3, 8))  # single partial vb (3 of 4 slots real)
    w = nprng.normal(size=(8, 5))
    op = backend.stage_linear("dense", w, None, "p")
    (vb,) = iter_virtual_batches(x, 4)
    assert vb.n_real < vb.data.shape[0]  # padded
    (y,) = backend.decode(backend.dispatch(backend.encode(op, [vb], [0])))
    backend.end_batch()
    assert y.shape == (3, 5)
    assert np.max(np.abs(y - x @ w)) < 0.05


def test_reforward_with_fewer_virtual_batches_resets_records(nprng):
    """Re-staging a layer drops the previous forward's records wholesale,
    so a smaller re-forward before end_batch keeps backward well-defined."""
    backend = _backend(seed=71)
    w = nprng.normal(size=(8, 3))
    x8 = nprng.normal(size=(8, 8))
    x4 = nprng.normal(size=(4, 8))
    backend.dense_forward(x8, w, None, key="d")  # 2 virtual batches
    backend.dense_forward(x4, w, None, key="d")  # re-forward with just 1
    assert backend.open_encodings() == 1
    delta = nprng.normal(size=(4, 3)) * 0.1
    grad = backend.dense_grad_w(x4, delta, key="d")
    backend.end_batch()
    backend.assert_encodings_released()  # the stale vb1 share was dropped too
    assert np.max(np.abs(grad - x4.T @ delta)) < 0.05


def test_residual_block_flattens_into_dag_plan(nprng):
    """ResidualBlock flattens into body/shortcut/join DAG steps: the inner
    conv becomes a first-class offloaded stage (it pipelines below block
    granularity) and outputs stay bit-identical to the synchronous path."""
    from repro.nn import BranchJoin, ResidualBlock

    rng = np.random.default_rng(9)
    net = Sequential(
        [
            Conv2D(2, 4, 3, 1, 1, rng=rng),
            ReLU(),
            ResidualBlock([Conv2D(4, 4, 3, 1, 1, rng=rng)]),
            Flatten(),
            Dense(4 * 8 * 8, 3, rng=rng),
        ],
        (2, 8, 8),
    )
    plan = net.execution_plan()
    # conv, relu, inner conv (offloaded!), join, flatten, dense
    assert [s.offloaded for s in plan] == [True, False, True, False, False, True]
    join = plan[3]
    assert isinstance(join.layer, BranchJoin)
    # The skip connection is an explicit DAG edge: the join consumes the
    # body output and the block entry (the ReLU at step 1).
    assert join.deps == (2, 1)
    x = nprng.normal(size=(8, 2, 8, 8))
    reference = net.predict(x, _backend(seed=81))
    result = PipelineExecutor(net, _backend(seed=81), pipeline_depth=2).run(x)
    assert np.array_equal(result.output, reference)
    # Every inner kernel is span-accounted now — no hidden blocking offload.
    assert result.stats.stage_totals["gpu"] > 0


def _nested_residual_net():
    """A residual block nested in another block's body, with a 1x1 shortcut."""
    from repro.nn import ResidualBlock

    rng = np.random.default_rng(9)
    inner = ResidualBlock(
        [Conv2D(4, 4, 3, 1, 1, rng=rng), ReLU(), Conv2D(4, 4, 3, 1, 1, rng=rng)]
    )
    outer = ResidualBlock(
        [inner, Conv2D(4, 4, 3, 1, 1, rng=rng)], shortcut=[Conv2D(4, 4, 1, 1, 0, rng=rng)]
    )
    return Sequential(
        [Conv2D(2, 4, 3, 1, 1, rng=rng), ReLU(), outer, Flatten(), Dense(4 * 8 * 8, 3, rng=rng)],
        (2, 8, 8),
    )


def test_nested_residual_blocks_flatten_recursively(nprng):
    """A block inside a block's body flattens too: only Conv2D/Dense steps
    reach the backend, pipelined logits equal the synchronous forward's,
    and training through the plan equals the blocks' unflattened
    ``relu(body(x) + shortcut(x))`` with their own backward."""
    from repro.nn import BranchJoin, PlainBackend, ResidualBlock
    from repro.nn import functional as F
    from repro.runtime import Trainer

    net = _nested_residual_net()
    plan = net.execution_plan()
    kinds = [type(s.layer).__name__ for s in plan]
    assert kinds == ["Conv2D", "ReLU", "Conv2D", "ReLU", "Conv2D", "BranchJoin",
                     "Conv2D", "Conv2D", "BranchJoin", "Flatten", "Dense"]
    assert [s.offloaded for s in plan] == [isinstance(s.layer, (Conv2D, Dense)) for s in plan]
    # The inner join closes on the outer block's entry; the outer join
    # consumes the outer body's last conv and the 1x1 shortcut.
    assert plan[5].deps == (4, 1) and plan[8].deps == (6, 7)
    assert isinstance(plan[8].layer, BranchJoin)

    x = nprng.normal(size=(8, 2, 8, 8))
    reference = net.predict(x, _backend(seed=83))
    result = PipelineExecutor(net, _backend(seed=83), pipeline_depth=2).run(x)
    assert np.array_equal(result.output, reference)

    # The twin walks the blocks unflattened (the oracle below); its
    # backward is the same in both.
    twin = _nested_residual_net()

    def walk(layer, x, backend, training):
        if not isinstance(layer, ResidualBlock):
            return layer.forward(x, backend, training)
        out, skip = x, x
        for inner in layer.body:
            out = walk(inner, out, backend, training)
        for inner in layer.shortcut:
            skip = walk(inner, skip, backend, training)
        if training:
            layer._pre_relu = out + skip
        return F.relu(out + skip)

    def unflattened(x, backend, training=True):
        for layer in twin.layers:
            x = walk(layer, x, backend, training)
        return x

    twin.forward = unflattened
    y = np.arange(8) % 3
    planned, walked = Trainer(net, PlainBackend()), Trainer(twin, PlainBackend())
    for _ in range(2):
        assert planned.train_step(x, y) == walked.train_step(x, y)


# ----------------------------------------------------------------------
# end_batch idempotency + release on abort
# ----------------------------------------------------------------------
def test_end_batch_is_idempotent(nprng):
    backend = _backend(seed=51)
    x = nprng.normal(size=(4, 8))
    backend.dense_forward(x, nprng.normal(size=(8, 3)), None, key="d")
    assert backend.open_encodings() == 1
    step_before = backend._step
    backend.end_batch()
    assert backend._step == step_before + 1
    backend.end_batch()  # no-op: nothing stored, step must not advance
    backend.end_batch()
    assert backend._step == step_before + 1
    backend.assert_encodings_released()


def test_pipeline_abort_mid_network_releases_all_encodings(nprng):
    """A byzantine GPU killing layer 2 must not leak layer 1's shares."""
    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=6)
    # Honest on conv, tampering on the dense kernel: the pipeline aborts
    # after the first layer's encodings are already resident on devices.
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            0: TargetedTamper(
                RandomTamper(field, probability=1.0, seed=7),
                target_op="dense_forward",
            )
        },
    )
    rng = np.random.default_rng(8)
    net = Sequential(
        [
            Conv2D(1, 2, 3, 1, 1, rng=rng),
            ReLU(),
            Flatten(),
            Dense(2 * 6 * 6, 3, rng=rng),
        ],
        (1, 6, 6),
    )
    for depth in (1, 3):
        backend = DarKnightBackend(cfg, cluster=cluster)
        executor = PipelineExecutor(net, backend, pipeline_depth=depth)
        with pytest.raises(IntegrityError):
            executor.run(nprng.normal(size=(4, 1, 6, 6)))
        # The window's finally already ran end_batch + the release assert;
        # re-check from the outside and confirm idempotency after abort.
        assert backend.open_encodings() == 0
        assert all(not dev.stored_shares for dev in cluster.devices)


def test_a_window_releases_on_every_exit_path(nprng):
    """The executor owns its window: after a completed run, after a run
    through a partition stage range, and after a byzantine GPU raises
    mid-window, no encoding is left open on the backend — nobody calls
    ``end_batch`` for it."""
    net = _mixed_net()
    x = nprng.normal(size=(9, 2, 8, 8))
    for depth in (1, 2):
        backend = _backend(seed=13)
        executor = PipelineExecutor(net, backend, pipeline_depth=depth)
        executor.run(x)
        assert backend.open_encodings() == 0
        executor.run_grouped([WindowItem(x, 0.0)], step_range=(0, 4))
        assert backend.open_encodings() == 0

        cfg = DarKnightConfig(virtual_batch_size=4, integrity=True, seed=13)
        field = PrimeField()
        byzantine = DarKnightBackend(
            cfg,
            cluster=GpuCluster(
                field,
                cfg.n_gpus_required,
                fault_injectors={1: TargetedTamper(RandomTamper(field, seed=3), "dense_forward")},
            ),
        )
        executor = PipelineExecutor(net, byzantine, pipeline_depth=depth)
        with pytest.raises(IntegrityError):
            executor.run(x)
        assert byzantine.open_encodings() == 0
        assert all(not dev.stored_shares for dev in byzantine.cluster.devices)


def test_assert_encodings_released_detects_leaks(nprng):
    backend = _backend(seed=61)
    op = backend.stage_linear("dense", nprng.normal(size=(8, 3)), None, "d")
    (vb,) = iter_virtual_batches(nprng.normal(size=(4, 8)), 4)
    backend.encode(op, [vb], [0])  # never dispatched or decoded
    assert backend.open_encodings() == 1
    with pytest.raises(Exception, match="not released"):
        backend.assert_encodings_released()
    backend.end_batch()  # must release the undispatched ticket's shares
    backend.assert_encodings_released()


def test_enclave_timeline_is_serialized():
    tl = EnclaveTimeline()
    s1, e1 = tl.reserve(0.0, 1.0)
    s2, e2 = tl.reserve(0.5, 1.0)  # wants 0.5, must wait for the lane
    assert (s1, e1) == (0.0, 1.0)
    assert (s2, e2) == (1.0, 2.0)
    assert tl.busy_time == 2.0


def test_each_stage_costs_its_overhead_plus_bytes_over_bandwidth():
    costs = StageCostModel(
        encode_bandwidth=1e3,
        decode_bandwidth=2e3,
        tee_bandwidth=4e3,
        transfer_bandwidth=8e3,
        gpu_mac_throughput=1e6,
        gpu_launch_overhead=0.5,
        stage_overhead=0.25,
    )
    assert costs.encode_time(1000) == 1.25
    assert costs.decode_time(1000) == 0.75
    assert costs.local_time(1000) == 0.5
    assert costs.transfer_time(8000) == 1.25
    assert costs.gpu_time(2_000_000) == 2.5
    assert costs.maskgen_time(10**9) == 0.0  # free unless a bandwidth is set
    priced = StageCostModel(maskgen_bandwidth=1e3, stage_overhead=0.25)
    assert priced.maskgen_time(500) == 0.75


@pytest.mark.parametrize(
    "bad",
    [
        {"encode_bandwidth": 0},
        {"decode_bandwidth": -1.0},
        {"tee_bandwidth": 0},
        {"gpu_mac_throughput": 0},
        {"transfer_bandwidth": 0},
        {"gpu_launch_overhead": -1e-6},
        {"stage_overhead": -1e-6},
        {"maskgen_bandwidth": 0},
    ],
    ids=lambda bad: next(iter(bad)),
)
def test_stage_cost_model_refuses_non_positive_rates(bad):
    with pytest.raises(ConfigurationError):
        StageCostModel(**bad)


# ----------------------------------------------------------------------
# the one rank order: feasible start, deadline, decode first, job index
# ----------------------------------------------------------------------
def test_deadline_ranker_bit_identical_and_reorders_the_schedule(nprng):
    """A group carrying a tight deadline has its stages run first, yet
    decodes the exact same values as the same window without one."""
    net = _conv_heavy_net()
    costs = StageCostModel(gpu_mac_throughput=7e8)
    x1 = nprng.normal(size=(4, 4, 12, 12))
    x2 = nprng.normal(size=(4, 4, 12, 12))

    def run(deadline):
        executor = PipelineExecutor(net, _backend(seed=7), pipeline_depth=4, costs=costs)
        # Group 0 released first but budget-less; group 1 maybe carries a
        # tight deadline.
        return executor.run_grouped(
            [WindowItem(x1, 0.0), WindowItem(x2, 0.0, deadline)]
        )

    default_groups, _ = run(math.inf)
    deadline_groups, _ = run(0.001)
    # Bit-identical decoded outputs, whatever the schedule did.
    for a, b in zip(default_groups, deadline_groups):
        assert np.array_equal(a.output, b.output)
    # The deadline-carrying group finishes no later than without its
    # deadline (here strictly earlier: it runs first).
    assert deadline_groups[1].finish <= default_groups[1].finish
    assert deadline_groups[1].finish < deadline_groups[0].finish
    assert default_groups[0].finish < default_groups[1].finish


def test_default_ranker_without_deadlines_matches_legacy_schedule(nprng):
    """The deadline only orders jobs whose deadlines differ: a window whose
    groups all carry the same finite deadline schedules the same spans as
    the budget-less window."""
    net = _mixed_net()
    x1 = nprng.normal(size=(8, 2, 8, 8))
    x2 = nprng.normal(size=(6, 2, 8, 8))

    def spans(deadline):
        executor = PipelineExecutor(net, _backend(seed=5), pipeline_depth=2)
        items = [WindowItem(x1, 0.0, deadline), WindowItem(x2, 1e-4, deadline)]
        _, stats = executor.run_grouped(items)
        return [(s.job, s.layer, s.stage, s.start, s.end) for s in stats.spans]

    assert spans(0.5) == spans(math.inf)


def test_deadline_ranker_keeps_feasibility_primary():
    """A blocked tight-deadline job must not outrank runnable work — the
    serialized enclave never idles waiting for a premium GPU future."""
    executor = PipelineExecutor(_mixed_net(), _backend())  # free_at = 0
    blocked_premium = SimpleNamespace(
        future=SimpleNamespace(ready_at=5.0), ready_at=0.0, index=0, deadline=0.001
    )
    runnable_bulk = SimpleNamespace(
        future=None, ready_at=0.0, index=1, deadline=math.inf
    )
    runnable_premium = SimpleNamespace(
        future=None, ready_at=0.0, index=2, deadline=0.001
    )
    rank = executor._task_rank
    # Runnable work beats the blocked premium job...
    assert rank(runnable_bulk) < rank(blocked_premium)
    # ...and among equally-runnable tasks the tightest deadline wins.
    assert rank(runnable_premium) < rank(runnable_bulk)
