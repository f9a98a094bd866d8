"""Unit tests for layer-partitioned pipeline groups.

Covers the four pieces the ``partition`` module composes: the
``PartitionSpec`` config grammar, the bottleneck-balancing
``LayerPartitionPlanner`` over the flattened execution plan, the sealed
activation hand-off (AEAD round-trip + tamper rejection), and
``PipelineGroup`` windows — bit-identical to a single whole-model
enclave, mid-window member failure surfacing as a *group*-level
``ShardFailedError`` with a reusable completed prefix, and the
attestation mesh gating every hop.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import LinkModel
from repro.comm.secure_channel import SecureChannel
from repro.errors import (
    AttestationError,
    CommunicationError,
    ConfigurationError,
    ShardFailedError,
)
from repro.models import build_mini_resnet
from repro.nn import Dense, ReLU, Sequential
from repro.pipeline import WindowItem
from repro.runtime import DarKnightConfig
from repro.sharding import (
    AttestationMesh,
    EnclaveShard,
    LayerPartitionPlanner,
    PartitionSpec,
    PipelineGroup,
    open_activations,
    seal_activations,
)

K = 2


def _resnet(seed=0):
    rng = np.random.default_rng(seed)
    return build_mini_resnet(input_shape=(3, 8, 8), n_classes=4, rng=rng, width=4)


def _dense_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _cfg(**kwargs):
    kwargs.setdefault("virtual_batch_size", K)
    kwargs.setdefault("seed", 0)
    return DarKnightConfig(**kwargs)


def _group(net, cfg, n_stages, ranges=None, base_id=0, group_id=100):
    shards = [EnclaveShard.provision(base_id + i, net, cfg) for i in range(n_stages)]
    mesh = AttestationMesh(shards)
    if ranges is None:
        ranges = LayerPartitionPlanner(net).plan(n_stages)
    return PipelineGroup(group_id, shards, ranges, mesh), shards


def _reference(net, cfg, xs, shard_id=9):
    """Masked single-enclave logits — the whole-model baseline."""
    shard = EnclaveShard.provision(shard_id, net, cfg)
    groups, _ = shard.run_window([WindowItem(x, 0.0) for x in xs])
    return [np.asarray(g.output) for g in groups]


# ----------------------------------------------------------------------
# PartitionSpec grammar
# ----------------------------------------------------------------------
def test_partition_spec_parses_and_round_trips():
    rep = PartitionSpec.parse("replicated")
    assert rep.n_stages == 1 and str(rep) == "replicated"
    lay = PartitionSpec.parse("layered:3")
    assert lay.n_stages == 3 and str(lay) == "layered:3"
    # ``replicated`` is ``layered:1`` under another name.
    one = PartitionSpec.parse("layered:1")
    assert one.n_stages == rep.n_stages and str(one) == "layered:1"
    assert PartitionSpec.parse(str(lay)) == lay


@pytest.mark.parametrize(
    "text", ["layered", "layered:", "layered:x", "layered:0", "layered:-2", "mesh", 3]
)
def test_partition_spec_rejects_bad_modes(text):
    with pytest.raises(ConfigurationError):
        PartitionSpec.parse(text)


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
def test_planner_ranges_are_contiguous_and_cover_the_plan():
    net = _resnet()
    planner = LayerPartitionPlanner(net)
    n_steps = len(net.execution_plan())
    assert planner.plan(1) == [(0, n_steps)]
    for n in (2, 3, 4):
        ranges = planner.plan(n)
        assert len(ranges) == n
        assert ranges[0][0] == 0 and ranges[-1][1] == n_steps
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        assert all(hi > lo for lo, hi in ranges)


def test_planner_bottleneck_never_grows_with_more_partitions():
    planner = LayerPartitionPlanner(_resnet())
    costs = planner.step_costs()
    bottlenecks = [
        max(sum(costs[lo:hi]) for lo, hi in planner.plan(n)) for n in (1, 2, 3, 4)
    ]
    assert all(b > 0 for b in bottlenecks)
    for wider, narrower in zip(bottlenecks, bottlenecks[1:]):
        assert narrower <= wider


def test_planner_epc_and_cut_accounting():
    net = _resnet()
    planner = LayerPartitionPlanner(net)
    n_steps = len(net.execution_plan())
    assert len(planner.plan(3)) == 3
    assert len(planner.step_costs()) == n_steps


def test_planner_rejects_degenerate_partition_counts():
    planner = LayerPartitionPlanner(_dense_net())  # 3 plan steps
    with pytest.raises(ConfigurationError):
        planner.plan(0)
    with pytest.raises(ConfigurationError):
        planner.plan(4)


# ----------------------------------------------------------------------
# sealed activation hand-off
# ----------------------------------------------------------------------
def _channel_pair():
    rng = np.random.default_rng(0)
    return SecureChannel.establish_pair("shard0", "shard1", LinkModel(), rng)


def test_sealed_activations_round_trip():
    tx, rx = _channel_pair()
    rng = np.random.default_rng(1)
    values = {4: rng.standard_normal((K, 8)), 0: rng.standard_normal((K, 3, 4, 4))}
    sealed = seal_activations(tx, values)
    assert [step for step, _ in sealed.envelopes] == [0, 4]
    assert sealed.nbytes > 0
    opened = open_activations(rx, sealed)
    assert set(opened) == {0, 4}
    for step in values:
        assert np.array_equal(opened[step], values[step])


def test_tampered_envelope_is_rejected():
    tx, rx = _channel_pair()
    sealed = seal_activations(tx, {0: np.ones((K, 4))})
    step, env = sealed.envelopes[0]
    flipped = bytes([env.ciphertext.data[0] ^ 0x01]) + env.ciphertext.data[1:]
    bad_env = dataclasses.replace(
        env, ciphertext=dataclasses.replace(env.ciphertext, data=flipped)
    )
    bad = dataclasses.replace(sealed, envelopes=((step, bad_env),))
    with pytest.raises(CommunicationError):
        open_activations(rx, bad)


# ----------------------------------------------------------------------
# PipelineGroup construction
# ----------------------------------------------------------------------
def test_group_rejects_bad_member_range_combinations():
    net = _dense_net()
    cfg = _cfg()
    shards = [EnclaveShard.provision(i, net, cfg) for i in range(2)]
    mesh = AttestationMesh(shards)
    with pytest.raises(ConfigurationError):
        PipelineGroup(0, [], [], mesh)
    with pytest.raises(ConfigurationError):
        PipelineGroup(0, shards, [(0, 3)], mesh)
    with pytest.raises(ConfigurationError):
        PipelineGroup(0, shards, [(0, 1), (2, 3)], mesh)


def test_group_refuses_unattested_hops():
    """No verified mesh link between consecutive members → no channel."""
    net = _dense_net()
    cfg = _cfg()
    shards = [EnclaveShard.provision(i, net, cfg) for i in range(2)]
    mesh = AttestationMesh(shards[:1])  # shard 1 never attested
    with pytest.raises(AttestationError):
        PipelineGroup(0, shards, [(0, 1), (1, 3)], mesh)


def test_group_duck_types_the_shard_surface():
    """The group's health and lifecycle are its members', driven as one."""
    group, shards = _group(_dense_net(), _cfg(), 2)
    assert group.shard_id == 100
    assert group.enclave is shards[0].enclave
    assert group.healthy and group.state == "active"
    group.decommission(now=2.5)
    assert group.retired and group.state == "retired" and not group.healthy
    assert [s.retired for s in shards] == [True, True]
    assert [s.retired_at for s in shards] == [2.5, 2.5]

    group, shards = _group(_dense_net(), _cfg(), 2)
    for member in group.members:
        member.healthy = False
    assert not any(s.healthy for s in shards)
    assert not group.healthy and group.state == "failed" and not group.retired
    with pytest.raises(ShardFailedError, match="shard 0 is down") as excinfo:
        group.run_window([WindowItem(np.zeros((K, 16)), 0.0)])
    assert excinfo.value.shard_id == 100


def test_one_member_group_is_the_shard_itself():
    """``N = 1``: no hops, no mesh, and a window identical to the bare
    shard's — values, clock, stage totals, and the failure text."""
    net, cfg = _resnet(), _cfg()
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal((K, 3, 8, 8)) for _ in range(3)]
    whole = LayerPartitionPlanner(net).plan(1)
    assert whole == [(0, len(net.execution_plan()))]

    bare = EnclaveShard.provision(0, net, cfg)
    want, want_stats = bare.run_window([WindowItem(x, 0.0) for x in xs])
    member = EnclaveShard.provision(0, net, cfg)
    group = PipelineGroup(7, [member], whole, mesh=None)
    got, got_stats = group.run_window([WindowItem(x, 0.0) for x in xs])
    for g, w in zip(got, want):
        assert np.array_equal(g.output, w.output)
        assert (g.start, g.finish) == (w.start, w.finish)
    assert got_stats.stage_totals == want_stats.stage_totals
    assert got_stats.enclave_busy == want_stats.enclave_busy
    assert (group.busy_time, group.members[-1].batches_run) == (bare.busy_time, 3)

    bare.fail_after(4)
    member.fail_after(4)
    with pytest.raises(ShardFailedError) as bare_exc:
        bare.run_window([WindowItem(x, 1.0) for x in xs])
    with pytest.raises(ShardFailedError) as group_exc:
        group.run_window([WindowItem(x, 1.0) for x in xs])
    assert str(group_exc.value) == str(bare_exc.value)
    assert group_exc.value.shard_id == 7
    (got, got_stats), (want, want_stats) = group_exc.value.completed, bare_exc.value.completed
    assert len(got) == len(want) == 1
    assert np.array_equal(got[0].output, want[0].output)
    assert got_stats.stage_totals == want_stats.stage_totals


# ----------------------------------------------------------------------
# windows: bit-identity and failover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_stages", [2, 3])
def test_group_window_is_bit_identical_to_single_enclave(n_stages):
    net = _resnet()
    cfg = _cfg()
    rng = np.random.default_rng(2)
    xs = [rng.standard_normal((K, 3, 8, 8)) for _ in range(3)]
    reference = _reference(net, cfg, xs)
    group, _ = _group(net, cfg, n_stages)
    finals, stats = group.run_window([WindowItem(x, 0.0) for x in xs])
    assert len(finals) == 3
    for g, ref in zip(finals, reference):
        assert np.array_equal(np.asarray(g.output), ref)
    assert stats.n_jobs > 0 and stats.finish > stats.start
    assert group.members[-1].batches_run == 3
    assert group.free_at > 0.0


def test_member_failure_mid_window_fails_the_group_with_a_prefix():
    net = _resnet()
    cfg = _cfg()
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((K, 3, 8, 8)) for _ in range(3)]
    reference = _reference(net, cfg, xs)
    group, shards = _group(net, cfg, 2)
    shards[1].fail_after(1)  # second stage dies after one batch
    with pytest.raises(ShardFailedError) as excinfo:
        group.run_window([WindowItem(x, 0.0) for x in xs])
    exc = excinfo.value
    # Group-granular failure: the router sees the unit id, not a member.
    assert exc.shard_id == 100
    # ... under the failing member's own words, not a re-wrapped text.
    assert str(exc) == "shard 1 failed mid-window after 1 batches"
    done_groups, done_stats = exc.completed
    assert len(done_groups) == 1
    assert np.array_equal(np.asarray(done_groups[0].output), reference[0])
    # One account: the entry member's whole window plus the exit member's prefix.
    assert done_stats.n_jobs == 3 + 1
    assert not group.healthy and group.state == "failed"


@settings(max_examples=25, deadline=None)
@given(
    n_stages=st.integers(1, 3),
    data=st.data(),
    fail_after=st.integers(0, 3),
    depth=st.sampled_from([1, 2]),
)
def test_failed_window_account_is_the_healthy_prefix(n_stages, data, fail_after, depth):
    """Whichever member dies and wherever, the error hands back one
    ``(groups, stats)`` for the completed prefix — the healthy window's
    first batches bit for bit — or ``None`` when nothing finished."""
    victim = data.draw(st.integers(0, n_stages - 1), label="victim")
    net, cfg = _dense_net(), _cfg(pipeline_depth=depth)
    rng = np.random.default_rng(6)
    items = [WindowItem(rng.standard_normal((K, 16)), 0.0) for _ in range(3)]
    want, _ = _group(net, cfg, n_stages)[0].run_window(items)

    group, shards = _group(net, cfg, n_stages)
    shards[victim].fail_after(fail_after)
    try:
        got, stats = group.run_window(items)
    except ShardFailedError as exc:
        assert fail_after < len(items)
        assert (exc.completed is None) == (fail_after == 0)
        got, stats = exc.completed or ([], None)
    else:
        assert fail_after == len(items)
    assert len(got) == fail_after
    for g, w in zip(got, want):
        assert np.array_equal(g.output, w.output)
    for shard in shards:
        assert shard.busy_time == shard.timeline.busy_time
    if got:
        # Every member ran, each once: the account is all their timelines booked.
        assert stats.enclave_busy == group.busy_time


def test_sub_outputs_fan_out_per_member():
    net = _dense_net()
    group, shards = _group(net, _cfg(), 2)
    rng = np.random.default_rng(4)
    xs = [rng.standard_normal((K, 16)) for _ in range(2)]
    finals, _ = group.run_window([WindowItem(x, 0.0) for x in xs])
    final_rows = [np.asarray(g.output) for g in finals]
    # The exit member commits the response logits themselves.
    exit_rows = group.sub_outputs(shards[-1].shard_id, final_rows)
    for got, want in zip(exit_rows, final_rows):
        assert np.array_equal(got, want)
    # Interior members commit the flattened live values of their stage.
    entry_rows = group.sub_outputs(shards[0].shard_id, final_rows)
    assert len(entry_rows) == 2
    for row in entry_rows:
        assert row is not None and row.shape[0] == K
