"""Tests for the simulated accelerators: kernels, devices, faults, cluster."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GpuError
from repro.fieldmath import FieldRng, PrimeField, field_matmul, use_backend
from repro.gpu import (
    FaultInjector,
    FieldKernels,
    GpuCluster,
    RandomTamper,
    ShareLaunch,
    SimulatedGpu,
    TargetedTamper,
)
from repro.nn import functional as F
from repro.precompute import scratch


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def test_field_conv_matches_float_conv_on_small_values(field, frng):
    """Field conv on signed-lifted ints equals integer conv."""
    kernels = FieldKernels(field)
    x_int = frng.generator.integers(-5, 6, size=(3, 2, 6, 6))  # 3 shares
    w_int = frng.generator.integers(-3, 4, size=(4, 2, 3, 3))
    out = kernels.conv2d(field.from_signed(x_int), field.from_signed(w_int), 1, 1)
    expected = F.conv2d_via_matmul(
        x_int.astype(np.int64), w_int.astype(np.int64), np.matmul, 1, 1
    )
    assert np.array_equal(field.to_signed(out), expected)


def test_field_dense_and_grad(field, frng):
    kernels = FieldKernels(field)
    x = frng.uniform((2, 8))  # 2 shares
    w = frng.uniform((8, 3))
    y = kernels.dense(x, w)
    delta = frng.uniform((2, 3))
    gw = kernels.dense_grad_w(x, delta)
    for j in range(2):
        assert np.array_equal(y[j], field_matmul(field, x[j].reshape(1, -1), w).ravel())
        assert np.array_equal(
            gw[j], field_matmul(field, x[j].reshape(-1, 1), delta[j].reshape(1, -1))
        )


def test_scale_accumulate(field, frng):
    kernels = FieldKernels(field)
    tensors = frng.uniform((3, 4, 4))
    rows = frng.uniform((2, 3))  # one row of B per share
    out = kernels.scale_accumulate(tensors, rows)
    assert out.shape == (2, 4, 4)
    for j in range(2):
        expected = field.zeros((4, 4))
        for t, s in zip(tensors, rows[j]):
            expected = field.add(expected, field.mul(t, s))
        assert np.array_equal(out[j], expected)


# ----------------------------------------------------------------------
# device
# ----------------------------------------------------------------------
def test_device_share_storage_and_ledger(field, frng):
    gpu = SimulatedGpu(0, field)
    share = frng.uniform((3, 5, 5))
    gpu.receive_share("layer1/vb0", share)
    assert np.array_equal(gpu.stored_share("layer1/vb0"), share)
    assert gpu.ledger.bytes_received == share.nbytes
    gpu.drop_share("layer1/vb0")
    with pytest.raises(GpuError):
        gpu.stored_share("layer1/vb0")


def test_device_conv_forward_records_ops(field, frng):
    """A one-device line-up is the ``S = 1`` case of the launch."""
    cluster = GpuCluster(field, 2)
    gpu = cluster[0]
    gpu.load_weights("w", frng.uniform((4, 3, 3, 3)))
    gpu.receive_share("s", frng.uniform((3, 8, 8)))
    out, macs = cluster.map_shares(
        ShareLaunch("conv2d", "s", weight_name="w", stride=1, pad=1), [0]
    )
    assert out.shape == (1, 4, 8, 8)
    assert gpu.ledger.mac_ops == macs == 4 * 8 * 8 * 27
    assert gpu.ledger.kernel_calls == 1
    assert "conv2d_forward" in gpu.ledger.ops_by_name
    assert cluster[1].ledger.kernel_calls == 0


def test_device_backward_equations(field, frng):
    cluster = GpuCluster(field, 2)
    gpu = cluster[1]
    gpu.receive_share("s", frng.uniform((6,)))
    one_hot = np.array([[1, 0]])  # B row picking δ(0) unchanged
    eq, _ = cluster.map_shares(
        ShareLaunch("dense", "s", deltas=frng.uniform((2, 3)), b_rows=one_hot), [1]
    )
    assert eq.shape == (1, 6, 3)
    gpu.receive_share("c", frng.uniform((2, 5, 5)))
    eq2, _ = cluster.map_shares(
        ShareLaunch(
            "conv2d", "c", deltas=frng.uniform((2, 4, 3, 3)), b_rows=one_hot, kh=3, kw=3
        ),
        [1],
    )
    assert eq2.shape == (1, 4, 2, 3, 3)
    assert gpu.ledger.ops_by_name == {
        "combine_deltas": 2,
        "backward_equation_dense": 1,
        "backward_equation_conv": 1,
    }


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
def test_random_tamper_changes_output(field, frng):
    tamper = RandomTamper(field, probability=1.0, n_entries=2, seed=0)
    clean = frng.uniform((4, 4))
    dirty = tamper.corrupt(clean, 0, "op")
    assert not np.array_equal(clean, dirty)
    assert tamper.tamper_count == 1
    # Exactly 2 entries changed.
    assert int(np.sum(clean != dirty)) == 2


def test_random_tamper_probability_zero_is_honest(field, frng):
    tamper = RandomTamper(field, probability=0.0, seed=0)
    clean = frng.uniform((4,))
    assert np.array_equal(tamper.corrupt(clean, 0, "op"), clean)
    assert tamper.tamper_count == 0


def test_targeted_tamper_only_hits_target_op(field, frng):
    inner = RandomTamper(field, probability=1.0, seed=0)
    tamper = TargetedTamper(inner, target_op="backward_equation_dense")
    clean = frng.uniform((4,))
    assert np.array_equal(tamper.corrupt(clean, 0, "conv2d_forward"), clean)
    assert not np.array_equal(
        tamper.corrupt(clean, 0, "backward_equation_dense"), clean
    )


def test_tamper_validation(field):
    with pytest.raises(ConfigurationError):
        RandomTamper(field, probability=2.0)
    with pytest.raises(ConfigurationError):
        RandomTamper(field, n_entries=0)


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------
def test_cluster_scatter_one_share_per_gpu(field, frng):
    cluster = GpuCluster(field, 4)
    shares = frng.uniform((3, 2, 2))
    cluster.scatter_shares("k", shares)
    for j in range(3):
        assert np.array_equal(cluster[j].stored_share("k"), shares[j])
    with pytest.raises(GpuError):
        cluster[3].stored_share("k")  # device 3 got nothing


def test_cluster_rejects_too_many_shares(field, frng):
    cluster = GpuCluster(field, 2)
    with pytest.raises(GpuError):
        cluster.scatter_shares("k", frng.uniform((3, 2)))


def test_cluster_broadcast_and_map(field, frng):
    cluster = GpuCluster(field, 3)
    w = frng.uniform((6, 4))
    cluster.broadcast_weights("w", w)
    shares = frng.uniform((3, 6))
    cluster.scatter_shares("s", shares)
    outs, macs = cluster.map_shares(ShareLaunch("dense", "s", weight_name="w"), range(3))
    assert macs == 6 * 4
    for j in range(3):
        assert np.array_equal(
            outs[j], field_matmul(field, shares[j].reshape(1, -1), w).ravel()
        )


def test_cluster_combine_deltas_launch(field, frng):
    """Every device combines ``Σ_i B[j, i]·δ(i)`` with its own row of ``B``
    before its ``Eq_j`` — one GEMM for the line-up, one ledger entry each."""
    cluster = GpuCluster(field, 3)
    shares = frng.uniform((3, 5))
    cluster.scatter_shares("s", shares)
    deltas = frng.uniform((2, 4))
    rows = frng.uniform((3, 2))
    outs, macs = cluster.map_shares(
        ShareLaunch("dense", "s", deltas=deltas, b_rows=rows), range(3)
    )
    assert outs.shape == (3, 5, 4)
    assert macs == deltas.size + 5 * 4
    for j in range(3):
        combined = field_matmul(field, rows[j].reshape(1, -1), deltas)
        assert np.array_equal(
            outs[j], field_matmul(field, shares[j].reshape(-1, 1), combined)
        )
        assert cluster[j].ledger.ops_by_name["combine_deltas"] == 1
        assert cluster[j].ledger.mac_ops == macs


def test_cluster_launch_validation(field, frng):
    cluster = GpuCluster(field, 3)
    cluster.scatter_shares("s", frng.uniform((2, 6)))
    cluster.broadcast_weights("w", frng.uniform((6, 4)))
    forward = ShareLaunch("dense", "s", weight_name="w")
    with pytest.raises(GpuError, match="no share"):
        cluster.map_shares(forward, range(3))  # device 2 holds nothing
    with pytest.raises(GpuError, match="device 3"):
        cluster.map_shares(forward, [0, 3])
    with pytest.raises(GpuError, match="at least one"):
        cluster.map_shares(forward, [])
    with pytest.raises(GpuError, match="no weights"):
        cluster.map_shares(ShareLaunch("dense", "s", weight_name="nope"), range(2))
    with pytest.raises(GpuError, match="B rows"):
        cluster.map_shares(
            ShareLaunch("dense", "s", deltas=frng.uniform((2, 4)), b_rows=np.ones((1, 2))),
            range(2),
        )
    with pytest.raises(GpuError):
        ShareLaunch("pool", "s", weight_name="w")
    with pytest.raises(GpuError):
        ShareLaunch("dense", "s")  # neither forward nor backward
    with pytest.raises(GpuError):
        ShareLaunch("dense", "s", weight_name="w", deltas=np.ones((2, 4)), b_rows=np.eye(2))


def test_cluster_refuses_a_lineup_with_mismatched_weights(field, frng):
    """One GEMM uses one ``W``: devices that disagree are refused instead of
    silently computed with device 0's weights."""
    cluster = GpuCluster(field, 3)
    w = frng.uniform((6, 4))
    cluster.broadcast_weights("w", w)
    cluster.scatter_shares("s", frng.uniform((3, 6)))
    stale = w.copy()
    stale[0, 0] = field.add(stale[0, 0], 1)
    cluster[2].load_weights("w", stale)
    launch = ShareLaunch("dense", "s", weight_name="w")
    with pytest.raises(GpuError, match="different weights"):
        cluster.map_shares(launch, range(3))
    cluster.map_shares(launch, range(2))  # the agreeing devices still run
    cluster[2].load_weights("w", w.copy())  # equal values, another array: fine
    cluster.map_shares(launch, range(3))


def test_cluster_validation(field):
    with pytest.raises(ConfigurationError):
        GpuCluster(field, 1)
    with pytest.raises(ConfigurationError):
        GpuCluster(field, 2, fault_injectors={5: None})


def test_cluster_accounting(field, frng):
    cluster = GpuCluster(field, 2)
    cluster.broadcast_weights("w", frng.uniform((6, 4)))
    cluster.scatter_shares("s", frng.uniform((2, 6)))
    cluster.map_shares(ShareLaunch("dense", "s", weight_name="w"), range(2))
    assert cluster.total_mac_ops() == 2 * 6 * 4
    assert cluster.total_bytes_moved() > 0
    cluster.drop_shares("s")
    with pytest.raises(GpuError):
        cluster[0].stored_share("s")


# ----------------------------------------------------------------------
# the stacked launch == a per-device loop (the pre-launch implementation)
# ----------------------------------------------------------------------
_FIELD = PrimeField()


def _oracle_matmul(a, b):
    return field_matmul(_FIELD, a, b, backend="generic")


def _per_device_oracle(cluster, launch, lineup):
    """One single-share kernel per device, in device order: every device
    runs (combine,) kernel, fault injector and ledger on its own share."""
    outs = []
    for position, device_id in enumerate(lineup):
        dev = cluster[device_id]
        x = dev.stored_share(launch.share_key)
        if launch.weight_name is not None:
            w = dev.weights[launch.weight_name]
            if launch.kind == "dense":
                out = _oracle_matmul(x.reshape(1, -1), w).reshape(-1)
                macs = x.size * w.shape[1]
            else:
                out = F.conv2d_via_matmul(
                    x[None], w, _oracle_matmul, launch.stride, launch.pad
                )[0]
                macs = out.size * w.shape[1] * w.shape[2] * w.shape[3]
            outs.append(dev.emit(f"{launch.kind}_forward", out, int(macs)))
            continue
        deltas = launch.deltas
        row = launch.b_rows[position]
        combined = _oracle_matmul(
            row.reshape(1, -1), deltas.reshape(deltas.shape[0], -1)
        ).reshape(deltas.shape[1:])
        combined = dev.emit("combine_deltas", combined, int(deltas.size))
        if launch.kind == "dense":
            out = _oracle_matmul(x.reshape(-1, 1), combined.reshape(1, -1))
            macs = x.size * combined.size
            name = "backward_equation_dense"
        else:
            out = _FIELD.element(
                F.conv2d_grad_w(
                    x[None], combined[None], launch.kh, launch.kw,
                    _oracle_matmul, launch.stride, launch.pad,
                )
            )
            macs = combined.size * launch.kh * launch.kw * x.shape[0]
            name = "backward_equation_conv"
        outs.append(dev.emit(name, out, int(macs)))
    return np.stack(outs)


@st.composite
def _launch_cases(draw):
    kind = draw(st.sampled_from(["dense", "conv2d"]))
    backward = draw(st.booleans())
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    n_shares = k + m + draw(st.integers(0, 1))  # integrity share on/off
    spare = draw(st.integers(0, 2))
    lineup = sorted(
        draw(st.permutations(range(n_shares + spare)))[:n_shares]
    )  # may skip devices
    extreme = draw(st.booleans())
    seed = draw(st.integers(0, 10_000))
    rng = FieldRng(_FIELD, seed)
    sample = (
        (lambda shape: np.full(shape, _FIELD.p - 1, dtype=np.int64))
        if extreme
        else rng.uniform
    )
    geometry = {}
    if kind == "dense":
        n_in, n_out = draw(st.integers(1, 9)), draw(st.integers(1, 5))
        share_shape, w_shape, out_shape = (n_in,), (n_in, n_out), (n_out,)
    else:
        c, f = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
        h, w_in = draw(st.integers(kh, 7)), draw(st.integers(kw, 6))
        share_shape, w_shape = (c, h, w_in), (f, c, kh, kw)
        out_shape = (
            f,
            F.conv_output_size(h, kh, stride, pad),
            F.conv_output_size(w_in, kw, stride, pad),
        )
        geometry = {"stride": stride, "pad": pad}
        if backward:
            geometry.update(kh=kh, kw=kw)
    shares = sample((n_shares,) + share_shape)
    if backward:
        launch = ShareLaunch(
            kind, "s", deltas=sample((k,) + out_shape),
            b_rows=sample((n_shares, k)), **geometry,
        )
        weights = None
    else:
        launch = ShareLaunch(kind, "s", weight_name="w", **geometry)
        weights = sample(w_shape)
    tamper = draw(st.sampled_from(["honest", "random", "targeted"]))
    tamper_op = draw(
        st.sampled_from(
            ["combine_deltas", f"backward_equation_{'dense' if kind == 'dense' else 'conv'}"]
            if backward
            else [f"{kind}_forward"]
        )
    )
    return {
        "launch": launch, "lineup": lineup, "shares": shares, "weights": weights,
        "n_devices": max(2, n_shares + spare), "tamper": tamper,
        "tamper_op": tamper_op, "tamper_position": draw(st.integers(0, n_shares - 1)),
        "tamper_seed": seed + 1,
    }


def _cluster_for(case):
    injectors = {}
    if case["tamper"] != "honest":
        inner = RandomTamper(_FIELD, probability=0.6, n_entries=2, seed=case["tamper_seed"])
        if case["tamper"] == "targeted":
            inner = TargetedTamper(inner, case["tamper_op"])
        injectors[case["lineup"][case["tamper_position"]]] = inner
    cluster = GpuCluster(_FIELD, case["n_devices"], fault_injectors=injectors)
    if case["weights"] is not None:
        cluster.broadcast_weights("w", case["weights"])
    for position, device_id in enumerate(case["lineup"]):
        cluster[device_id].receive_share("s", case["shares"][position])
    return cluster


def _injector_state(cluster):
    """(tamper_count, next rng draw) per device — the adversary's whole state."""
    states = []
    for dev in cluster.devices:
        inner = getattr(dev.faults, "inner", dev.faults)
        rng = getattr(inner, "_rng", None)
        states.append(
            (dev.faults.tamper_count, None if rng is None else copy.deepcopy(rng).random())
        )
    return states


@settings(max_examples=120, deadline=None)
@given(case=_launch_cases(), backend=st.sampled_from(["limb", "generic"]), pooled=st.booleans())
def test_stacked_launch_matches_per_device_loop(case, backend, pooled):
    launch, lineup = case["launch"], case["lineup"]
    reference = _cluster_for(case)
    expected = _per_device_oracle(reference, launch, lineup)

    cluster = _cluster_for(case)
    with use_backend(backend), scratch.scratch_scope(pooled):
        got, macs = cluster.map_shares(launch, lineup)
        pool = scratch.active_scratch()
        if pool is not None:
            # Nothing returned may alias pool memory.
            for buf in pool._buffers.values():
                buf.fill(-7)
    # Same outputs corrupted in the same way, same books, same adversary state.
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert [d.ledger for d in cluster.devices] == [d.ledger for d in reference.devices]
    assert _injector_state(cluster) == _injector_state(reference)
    assert macs == cluster[lineup[0]].ledger.mac_ops


# ----------------------------------------------------------------------
# a tuple of share keys: a layer step's stack of virtual batches, one launch
# ----------------------------------------------------------------------
def _stack_case(case, n_batches, n_rows):
    """``case``'s launch over ``V`` share keys (``R`` ``B`` rows per device):
    the stacked launch, the ``V`` x ``R`` single-key launches it stands for,
    and a builder of identically loaded clusters."""
    single, lineup = case["launch"], case["lineup"]
    rng = FieldRng(_FIELD, case["tamper_seed"])
    keys = tuple(f"s/vb{v}" for v in range(n_batches))

    def cluster_with(injectors):
        cluster = GpuCluster(_FIELD, case["n_devices"], fault_injectors=injectors)
        if case["weights"] is not None:
            cluster.broadcast_weights("w", case["weights"])
        share_rng = FieldRng(_FIELD, case["tamper_seed"] + 1)
        for key in keys:
            for device_id in lineup:
                cluster[device_id].receive_share(key, share_rng.uniform(case["shares"].shape[1:]))
        return cluster

    if single.weight_name is None:
        deltas = rng.uniform((n_batches,) + single.deltas.shape)
        b_rows = rng.uniform((n_batches, len(lineup), n_rows, single.deltas.shape[0]))
        stack = dataclasses.replace(single, share_key=keys, deltas=deltas, b_rows=b_rows)
        singles = [
            [
                dataclasses.replace(single, share_key=key, deltas=deltas[v], b_rows=b_rows[v, :, r])
                for r in range(n_rows)
            ]
            for v, key in enumerate(keys)
        ]
    else:
        stack = dataclasses.replace(single, share_key=keys)
        singles = [[dataclasses.replace(single, share_key=key)] for key in keys]
    return stack, singles, cluster_with


@settings(max_examples=60, deadline=None)
@given(
    case=_launch_cases(),
    n_batches=st.integers(1, 3),
    n_rows=st.integers(1, 2),
    backend=st.sampled_from(["limb", "generic"]),
)
def test_virtual_batch_stack_launch_matches_one_launch_per_batch(
    case, n_batches, n_rows, backend
):
    """``V`` keys (and ``R`` ``B`` rows per device) in one launch produce what
    ``V`` (x ``R``) single-key launches produce, slice for slice, and charge
    every device the same; each slice passes through its own device's
    injector."""
    lineup = case["lineup"]
    backward = case["launch"].weight_name is None
    byzantine = lineup[case["tamper_position"]]
    stack, singles, cluster_with = _stack_case(case, n_batches, n_rows)

    reference, cluster = cluster_with({}), cluster_with({})
    with use_backend(backend):
        expected = np.stack(
            [
                np.stack([reference.map_shares(one, lineup)[0] for one in per_batch], axis=1)
                for per_batch in singles
            ]
        )  # (V, S, R, ...)
        got, macs = cluster.map_shares(stack, lineup)
        if not backward:
            expected = expected[:, :, 0]
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert [d.ledger for d in cluster.devices] == [d.ledger for d in reference.devices]
        assert macs * n_batches * (n_rows if backward else 1) == cluster[lineup[0]].ledger.mac_ops

        # One byzantine device corrupting its last op: exactly its slices change.
        liar = cluster_with({byzantine: TargetedTamper(RandomTamper(_FIELD, seed=3), case["tamper_op"])})
        tampered, _ = liar.map_shares(stack, lineup)
    differs = (tampered != got).reshape(n_batches, len(lineup), -1).any(axis=2)
    if case["tamper_op"] == "combine_deltas":
        # a corrupted δ̄ entry may meet only zero padding (or zero shares) downstream
        assert not np.delete(differs, case["tamper_position"], axis=1).any()
    else:
        assert differs[:, case["tamper_position"]].all()
        assert differs.sum() == n_batches
    assert liar[byzantine].faults.tamper_count == n_batches * (n_rows if backward else 1)


# ----------------------------------------------------------------------
# ledgers by the launch: honest devices book their slices in one entry
# ----------------------------------------------------------------------
class Watching(FaultInjector):
    """Corrupts nothing and keeps every output it is shown — a subclass, so
    its device is walked slice by slice like any adversary's."""

    def __init__(self):
        self.seen = []

    def corrupt(self, tensor, device_id, op_name):
        self.seen.append((op_name, tensor.copy()))
        return tensor


@settings(max_examples=80, deadline=None)
@given(case=_launch_cases(), n_batches=st.integers(1, 4), n_rows=st.integers(1, 2))
def test_ledger_by_the_launch_equals_the_per_slice_walk(case, n_batches, n_rows):
    """Honest devices take a launch's ``V·R`` slices as one ledger entry;
    walking every slice through ``emit`` (any injector, even one that
    corrupts nothing) books the same totals.  An injector on one device
    still sees each of that device's slices exactly once, in order, while
    its neighbours aggregate."""
    lineup, position = case["lineup"], case["tamper_position"]
    stack, _, cluster_with = _stack_case(case, n_batches, n_rows)
    by_the_launch = cluster_with({})
    by_the_slice = cluster_with({device_id: Watching() for device_id in lineup})
    watcher = Watching()
    one_watched = cluster_with({lineup[position]: TargetedTamper(watcher, case["tamper_op"])})
    assert all(dev.honest for dev in by_the_launch.devices)
    assert not any(by_the_slice[device_id].honest for device_id in lineup)

    outputs, macs = by_the_launch.map_shares(stack, lineup)
    for cluster in (by_the_slice, one_watched):
        walked_outputs, walked_macs = cluster.map_shares(stack, lineup)
        assert np.array_equal(walked_outputs, outputs) and walked_macs == macs
        assert [d.ledger for d in cluster.devices] == [d.ledger for d in by_the_launch.devices]

    backward = stack.weight_name is None
    n_slices = n_batches * (n_rows if backward else 1)
    walk = [
        seen for op_name, seen in by_the_slice[lineup[position]].faults.seen
        if op_name == case["tamper_op"]
    ]
    assert len(watcher.seen) == len(walk) == n_slices
    for (op_name, seen), reference in zip(watcher.seen, walk):
        assert op_name == case["tamper_op"] and np.array_equal(seen, reference)
    if case["tamper_op"] != "combine_deltas":  # the op whose slices are the outputs
        own = outputs[:, position].reshape((n_slices,) + outputs.shape[(3 if backward else 2):])
        assert all(np.array_equal(seen, out) for (_, seen), out in zip(watcher.seen, own))


def test_stack_launch_validation(field, frng):
    cluster = GpuCluster(field, 2)
    cluster.scatter_shares("a", frng.uniform((2, 6)))
    cluster.scatter_shares("b", frng.uniform((2, 6)))
    with pytest.raises(GpuError, match="share key"):
        ShareLaunch("dense", (), weight_name="w")
    launch = ShareLaunch(
        "dense", ("a", "b"), deltas=frng.uniform((2, 3, 4)), b_rows=frng.uniform((2, 1, 2, 3))
    )
    assert launch.stacked and not ShareLaunch("dense", "a", weight_name="w").stacked
    with pytest.raises(GpuError, match="B rows"):
        cluster.map_shares(launch, range(2))  # one row set, two devices
    with pytest.raises(GpuError, match="no share"):
        cluster.map_shares(dataclasses.replace(launch, share_key=("a", "c")), [0])
