"""A layer step's virtual batches as one stack == the per-virtual-batch loop.

The synchronous path encodes, launches, verifies and decodes a layer's ``V``
virtual batches as one stacked field GEMM each.  The oracle here is the loop
that replaced: :class:`LoopBackend` walks the virtual batches one at a time
through the public staged ops and single-key launches (forward
``encode -> dispatch -> decode`` per virtual batch; backward one primary and
one alternate-``B`` launch per record), exactly as the backend did before
the stack.  Honest runs must agree in everything decoded or booked —
outputs, gradients, every device ledger, link bytes, the enclave's books —
and a tamper in any one virtual batch must fail closed naming that batch.
Resident shares and the enclave's random stream agree too wherever the two
draw in the same order: a stack of fresh coefficient sets draws by the block
(``A`` for all ``V``, then ``γ``, then the noise), the loop set by set, so
there the shares are the same encodings under different randomness — same
keys, same shapes, same decode.  A golden anchors the loss trajectory to the
pre-stack commit and the shares to the block order.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import LinkModel
from repro.data import cifar_like
from repro.enclave import Enclave
from repro.errors import IntegrityError
from repro.gpu import GpuCluster, RandomTamper, ShareLaunch, TargetedTamper
from repro.gpu.faults import FaultInjector
from repro.masking import BackwardDecoder, IntegrityVerifier, iter_virtual_batches
from repro.models import build_mini_vgg
from repro.nn import functional as F
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer

GOLDEN = Path(__file__).parent / "golden" / "training_stack.json"


# ----------------------------------------------------------------------
# the oracle: one virtual batch at a time
# ----------------------------------------------------------------------
class LoopBackend(DarKnightBackend):
    """The pre-stack synchronous path, kept verbatim as the reference."""

    def _masked_forward(self, x, op):
        outputs = [
            self.decode(self.dispatch(self.encode(op, vb, vb_index)))
            for vb_index, vb in enumerate(
                iter_virtual_batches(x, self.config.virtual_batch_size)
            )
        ]
        return np.concatenate(outputs, axis=0)

    def _masked_grad_w(self, delta, key, kind, **geometry):
        cfg = self.config
        total = None
        records = sorted(self._forward_store[key], key=lambda r: r.vb_index)
        staged = []
        for record in records:
            rows = delta[list(record.indices)]
            if rows.shape[0] < cfg.virtual_batch_size:
                pad_rows = np.zeros(
                    (cfg.virtual_batch_size - rows.shape[0],) + rows.shape[1:],
                    dtype=rows.dtype,
                )
                rows = np.concatenate([rows, pad_rows], axis=0)
            d_scaled, d_norm = self._grad_normalizer.normalize(rows)
            d_q = self.quantizer.quantize(d_scaled)
            self.enclave.record_compute("quantize_deltas", int(d_q.nbytes))
            coeffs = record.coefficients
            for j in range(coeffs.n_shares):
                self.link.transfer("enclave", f"gpu{j}", int(d_q.nbytes))
            launch = ShareLaunch(
                kind, record.share_key, deltas=d_q, b_rows=coeffs.b, **geometry
            )
            equations, _ = self.cluster.map_shares(launch, range(coeffs.n_shares))
            self._gather(equations[None])
            staged.append((record, launch, d_norm, equations))
        for record, launch, d_norm, equations in staged:
            aggregate = BackwardDecoder(record.coefficients).decode(equations)
            self.enclave.record_compute("decode_backward", int(aggregate.nbytes))
            if cfg.integrity:
                self._loop_verify_backward(record.coefficients, aggregate, launch)
            grad = self.quantizer.dequantize_product(aggregate)
            contribution = grad * (record.x_norm.factor * d_norm.factor)
            if self._aggregator is not None:
                self._aggregator.add_update(f"{key}/{record.share_key}", contribution)
            else:
                total = contribution if total is None else total + contribution
        if self._aggregator is not None:
            return self._aggregator.aggregate([f"{key}/{r.share_key}" for r in records])
        return total

    def _loop_verify_backward(self, coeffs, primary_aggregate, launch):
        verifier = IntegrityVerifier(coeffs)
        alt_subset = verifier.verification_plan()[1]
        b_alt, gamma = coeffs.backward_matrices_for_subset(alt_subset)
        equations, _ = self.cluster.map_shares(
            replace(launch, b_rows=b_alt), range(coeffs.n_shares)
        )
        alt_aggregate = BackwardDecoder(coeffs).decode_with_matrices(
            equations, b_alt, gamma
        )
        verifier.verify_backward(
            {coeffs.primary_subset: primary_aggregate, alt_subset: alt_aggregate}
        ).raise_on_failure()
        self.enclave.record_compute("integrity_check_backward", int(launch.deltas.nbytes))


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
@st.composite
def _layer_steps(draw):
    kind = draw(st.sampled_from(["dense", "conv2d"]))
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    # B < K, V = 1 exactly, a ragged tail, whole virtual batches.
    batch = draw(
        st.one_of(
            st.integers(1, k),
            st.integers(k + 1, 3 * k + 2),
            st.sampled_from([2 * k, 3 * k]),
        )
    )
    if kind == "dense":
        geometry = {"n_in": draw(st.integers(1, 9)), "n_out": draw(st.integers(1, 5))}
    else:
        kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        geometry = {
            "c": draw(st.integers(1, 3)), "f": draw(st.integers(1, 3)), "kh": kh, "kw": kw,
            "stride": draw(st.integers(1, 2)), "pad": draw(st.integers(0, 2)),
            "h": draw(st.integers(kh, 7)), "w": draw(st.integers(kw, 6)),
        }
    n_batches = -(-batch // k)
    return {
        "kind": kind, "k": k, "m": m, "batch": batch, "geometry": geometry,
        "integrity": draw(st.booleans()),
        "fresh": draw(st.booleans()),
        "sealed": draw(st.booleans()),
        "normalize": draw(st.booleans()),
        "per_sample": draw(st.booleans()),
        # None: the blocking forward.  A permutation: the staged ops, one
        # virtual batch at a time in that order — a pipelined forward's
        # out-of-order records — before the (stacked) backward.
        "staged_order": draw(st.none() | st.permutations(range(n_batches))),
        "seed": draw(st.integers(0, 10_000)),
    }


def _tensors(case):
    rng = np.random.default_rng(case["seed"])
    g, batch = case["geometry"], case["batch"]
    # Without dynamic normalisation the values themselves must stay in range.
    spread = 1.0 if case["normalize"] else 0.25
    if case["kind"] == "dense":
        x = rng.normal(size=(batch, g["n_in"])) * spread
        w = rng.normal(size=(g["n_in"], g["n_out"])) * spread
        bias = rng.normal(size=g["n_out"])
        delta = rng.normal(size=(batch, g["n_out"])) * 0.1
    else:
        x = rng.normal(size=(batch, g["c"], g["h"], g["w"])) * spread
        w = rng.normal(size=(g["f"], g["c"], g["kh"], g["kw"])) * spread
        bias = rng.normal(size=g["f"])
        oh = F.conv_output_size(g["h"], g["kh"], g["stride"], g["pad"])
        ow = F.conv_output_size(g["w"], g["kw"], g["stride"], g["pad"])
        delta = rng.normal(size=(batch, g["f"], oh, ow)) * 0.1
    if not case["normalize"]:
        x, w = np.clip(x, -1, 1), np.clip(w, -1, 1)
    return x, w, bias, delta


def _backend(cls, case, fault_injectors=None):
    cfg = DarKnightConfig(
        virtual_batch_size=case["k"],
        collusion_tolerance=case["m"],
        integrity=case["integrity"],
        fresh_coefficients=case["fresh"],
        sealed_aggregation=case["sealed"],
        dynamic_normalization=case["normalize"],
        per_sample_normalization=case["per_sample"],
        seed=case["seed"],
    )
    backend = cls(cfg)
    if fault_injectors:
        backend.cluster = GpuCluster(
            backend.field, cfg.n_gpus_required, fault_injectors=fault_injectors
        )
    return backend


def _forward(backend, case, x, w, bias):
    g = case["geometry"]
    if case["staged_order"] is None:
        if case["kind"] == "dense":
            return backend.dense_forward(x, w, bias, "layer")
        return backend.conv2d_forward(x, w, bias, g["stride"], g["pad"], "layer")
    op = backend.stage_linear(
        case["kind"], w, bias, "layer", g.get("stride", 1), g.get("pad", 0)
    )
    vbs = list(iter_virtual_batches(x, case["k"]))
    decoded = {
        i: backend.decode(backend.dispatch(backend.encode(op, vbs[i], i)))
        for i in case["staged_order"]
    }
    return op.apply_bias(np.concatenate([decoded[i] for i in range(len(vbs))], axis=0))


def _grad_w(backend, case, x, delta):
    g = case["geometry"]
    if case["kind"] == "dense":
        return backend.dense_grad_w(x, delta, "layer")
    return backend.conv2d_grad_w(x, delta, g["kh"], g["kw"], g["stride"], g["pad"], "layer")


def _books(backend):
    """Everything the run left behind that anyone could read."""
    ledger = backend.enclave.ledger
    return {
        "devices": [copy.deepcopy(dev.ledger) for dev in backend.cluster.devices],
        "link_bytes": backend.link.total_bytes,
        # The same transfers in another interleaving: a float sum, so approx.
        "link_seconds": pytest.approx(backend.link.total_seconds, rel=1e-12),
        "enclave": copy.deepcopy(
            (ledger.ecalls, ledger.ocalls, ledger.bytes_in, ledger.bytes_out,
             ledger.sealed_bytes, ledger.unsealed_bytes, ledger.op_counts, ledger.op_bytes)
        ),
        "next_draw": copy.deepcopy(backend.enclave.rng.generator).integers(0, 2**62),
    }


def _resident(backend):
    return [
        {key: share.copy() for key, share in dev.stored_shares.items()}
        for dev in backend.cluster.devices
    ]


def _same_shares(a, b, same=np.array_equal):
    return len(a) == len(b) and all(
        mine.keys() == theirs.keys()
        and all(same(mine[key], theirs[key]) for key in mine)
        for mine, theirs in zip(a, b)
    )


def _same_layout(mine, theirs):
    return mine.shape == theirs.shape and mine.dtype == theirs.dtype


# ----------------------------------------------------------------------
# honest runs: the stack is the loop
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(case=_layer_steps())
def test_stacked_layer_step_equals_the_per_virtual_batch_loop(case):
    x, w, bias, delta = _tensors(case)
    runs = []
    for cls in (LoopBackend, DarKnightBackend):
        backend = _backend(cls, case)
        out = _forward(backend, case, x, w, bias)
        shares = _resident(backend)
        # The aggregate decode needs one scalar factor per virtual batch.
        grad = None if case["per_sample"] else _grad_w(backend, case, x, delta)
        books = _books(backend)
        backend.end_batch()
        backend.assert_encodings_released()
        runs.append((out, shares, grad, books))
    (out_l, shares_l, grad_l, books_l), (out_s, shares_s, grad_s, books_s) = runs
    n_batches = -(-case["batch"] // case["k"])
    assert sorted(shares_s[0]) == sorted(f"layer/step0/vb{i}" for i in range(n_batches))
    # One stacked generate draws by the block; everything else — a cached
    # set, a stack of one, the staged ops — draws in the loop's order.
    block_draws = case["fresh"] and n_batches > 1 and case["staged_order"] is None
    if block_draws:
        assert _same_shares(shares_s, shares_l, same=_same_layout)
        del books_s["next_draw"], books_l["next_draw"]
    else:
        assert _same_shares(shares_s, shares_l)
    assert out_s.shape == out_l.shape and np.array_equal(out_s, out_l)
    if grad_l is not None:
        assert grad_s.shape == grad_l.shape and np.array_equal(grad_s, grad_l)
    assert books_s == books_l


# ----------------------------------------------------------------------
# ledgers by the launch == ledgers by the slice
# ----------------------------------------------------------------------
class _Passthrough(FaultInjector):
    """Honest, but a subclass: its device is walked slice by slice."""


class _PerMessageLink(LinkModel):
    def transfer_many(self, count, nbytes):
        for j in range(count):
            self.transfer("enclave", f"gpu{j}", nbytes)


class _PerCallEnclave(Enclave):
    """Books every count form as ``count`` separate calls."""

    def record_compute(self, op_name, nbytes, count=1):
        for _ in range(count):
            super().record_compute(op_name, nbytes)

    def ecall(self, name, nbytes_in=0, count=1):
        for _ in range(count):
            super().ecall(name, nbytes_in)

    def ocall(self, name, nbytes_out=0, count=1):
        for _ in range(count):
            super().ocall(name, nbytes_out)


@settings(max_examples=60, deadline=None)
@given(case=_layer_steps())
def test_ledgers_by_the_launch_equal_ledgers_by_the_slice(case):
    """A layer step books a launch's slices, messages and per-virtual-batch
    enclave ops one entry per launch; booking them one slice, one message,
    one call at a time leaves every ledger the same — the link's float
    seconds bit for bit — and the same shares, outputs and gradients."""
    x, w, bias, delta = _tensors(case)
    by_the_launch = _backend(DarKnightBackend, case)
    n_devices = len(by_the_launch.cluster)
    by_the_slice = DarKnightBackend(
        by_the_launch.config,
        enclave=_PerCallEnclave(seed=case["seed"]),
        cluster=GpuCluster(
            by_the_launch.field, n_devices,
            fault_injectors={j: _Passthrough() for j in range(n_devices)},
        ),
        link=_PerMessageLink(),
    )
    runs = []
    for backend in (by_the_launch, by_the_slice):
        out = _forward(backend, case, x, w, bias)
        shares = _resident(backend)
        grad = None if case["per_sample"] else _grad_w(backend, case, x, delta)
        books = dict(_books(backend), link_seconds=backend.link.total_seconds)  # exact
        backend.end_batch()
        runs.append((out, shares, grad, books))
    (out_l, shares_l, grad_l, books_l), (out_s, shares_s, grad_s, books_s) = runs
    assert _same_shares(shares_l, shares_s) and np.array_equal(out_l, out_s)
    assert grad_l is None or np.array_equal(grad_l, grad_s)
    assert books_l == books_s


def test_training_canary_is_detected_every_step():
    """bench-e2e's training canary: GPU 1 corrupts a backward conv equation
    in every step — its slices still go through its injector one by one
    while its honest neighbours book theirs by the launch — and every one
    of four steps fails closed."""
    seed, batch = 1, 16
    data = cifar_like(n_train=4 * batch, n_test=batch, seed=seed, size=8)
    network = build_mini_vgg(
        input_shape=(3, 8, 8), n_classes=10, rng=np.random.default_rng(seed), width=8
    )
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=4, integrity=True, seed=seed))
    tamper = RandomTamper(backend.field, seed=seed)
    backend.cluster[1].faults = TargetedTamper(tamper, "backward_equation_conv")
    trainer = Trainer(network, backend)
    detected = 0
    for step in range(4):
        rows = slice(step * batch, (step + 1) * batch)
        with pytest.raises(IntegrityError):
            trainer.train_step(data.x_train[rows], data.y_train[rows])
        detected += 1
        backend.assert_encodings_released()
    assert detected == 4 and tamper.tamper_count >= 4
    byzantine, honest = backend.cluster[1].ledger, backend.cluster[2].ledger
    assert byzantine == honest


def test_stack_of_one_backend_shares_cached_coefficients():
    """``fresh_coefficients=False``: every slice of the stack carries the one
    cached set, and reuse is booked per virtual batch as before."""
    case = {
        "kind": "dense", "k": 2, "m": 1, "batch": 7, "integrity": True, "fresh": False,
        "sealed": False, "normalize": True, "per_sample": False, "staged_order": None,
        "geometry": {"n_in": 6, "n_out": 3}, "seed": 5,
    }
    x, w, bias, delta = _tensors(case)
    backend = _backend(DarKnightBackend, case)
    _forward(backend, case, x, w, bias)
    records = backend._forward_store["layer"]
    assert len(records) == 4 and len({id(r.coefficients) for r in records}) == 1
    counts = backend.enclave.ledger.op_counts
    assert (counts["generate_coefficients"], counts["reuse_coefficients"]) == (1, 3)
    _grad_w(backend, case, x, delta)
    backend.end_batch()


# ----------------------------------------------------------------------
# a tamper in one virtual batch of the stack
# ----------------------------------------------------------------------
class NthCall(FaultInjector):
    """Lets the ``n``-th matching output through to ``inner``, nothing else.

    A device sees a stacked launch's slices virtual batch by virtual batch
    (its alternate-``B`` slice right after its primary one), so ``n``
    selects the virtual batch.
    """

    def __init__(self, inner: FaultInjector, op_name: str, n: int) -> None:
        self.inner, self.op_name, self.n = inner, op_name, n
        self.seen = 0

    def corrupt(self, tensor, device_id, op_name):
        if op_name != self.op_name:
            return tensor
        self.seen += 1
        if self.seen - 1 != self.n:
            return tensor
        return self.inner.corrupt(tensor, device_id, op_name)

    @property
    def tamper_count(self) -> int:
        return self.inner.tamper_count


@settings(max_examples=80, deadline=None)
@given(case=_layer_steps(), data=st.data())
def test_tamper_in_one_virtual_batch_names_it_and_leaks_nothing(case, data):
    case = dict(case, integrity=True, per_sample=False)
    x, w, bias, delta = _tensors(case)
    n_batches = -(-case["batch"] // case["k"])
    n_shares = case["k"] + case["m"] + 1
    device = data.draw(st.integers(0, n_shares - 1), label="device")
    victim = data.draw(st.integers(0, n_batches - 1), label="virtual batch")
    suffix = "dense" if case["kind"] == "dense" else "conv"
    op_name = data.draw(
        st.sampled_from(
            [f"{case['kind']}_forward", "combine_deltas", f"backward_equation_{suffix}"]
        ),
        label="op",
    )
    forward_op = op_name.endswith("_forward")
    if forward_op and case["staged_order"] is not None:
        nth = list(case["staged_order"]).index(victim)  # staged: in dispatch order
    elif forward_op:
        nth = victim
    else:  # primary or alternate equation of the victim
        nth = 2 * victim + data.draw(st.integers(0, 1), label="B")
    tamper = RandomTamper(
        DarKnightBackend(DarKnightConfig()).field, n_entries=2, seed=case["seed"]
    )
    backend = _backend(
        DarKnightBackend, case,
        fault_injectors={device: NthCall(TargetedTamper(tamper, op_name), op_name, nth)},
    )
    try:
        _forward(backend, case, x, w, bias)
        assert not forward_op, "a tampered forward output decoded clean"
        grad = _grad_w(backend, case, x, delta)
    except IntegrityError as err:
        assert f"'layer', virtual batch {victim}:" in str(err)
    else:
        # The one tamper nobody notices is the one that changes nothing: a
        # combined-δ entry that only ever meets the share's zero padding.
        assert op_name == "combine_deltas" and case["geometry"]["pad"] > 0
        honest = _backend(DarKnightBackend, case)
        _forward(honest, case, x, w, bias)
        assert np.array_equal(grad, _grad_w(honest, case, x, delta))
    assert tamper.tamper_count == 1
    backend.end_batch()
    backend.assert_encodings_released()


# ----------------------------------------------------------------------
# a failed training step releases what it encoded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("victim", ["first", "last"])
@pytest.mark.parametrize("op_name", ["conv2d_forward", "backward_equation_conv"])
def test_failed_train_step_releases_encodings_and_gradients(victim, op_name):
    """A byzantine GPU fails the step with ``IntegrityError``; the step's
    forward records, resident shares and partial gradients are all gone
    afterwards, and the weights did not move."""
    seed, k, batch = 4, 4, 16
    n_batches = batch // k
    data = cifar_like(n_train=batch, n_test=batch, seed=seed, size=8)
    network = build_mini_vgg(
        input_shape=(3, 8, 8), n_classes=10, rng=np.random.default_rng(seed), width=8
    )
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=k, integrity=True, seed=seed))
    tamper = RandomTamper(backend.field, seed=seed)
    nth = 0 if victim == "first" else n_batches - 1
    if op_name.startswith("backward"):
        nth *= 2  # the primary-B equation of that virtual batch
    backend.cluster[1].faults = NthCall(tamper, op_name, nth)
    trainer = Trainer(network, backend)
    before = [p.copy() for layer in network.layers for p in layer.params.values()]
    with pytest.raises(IntegrityError) as failure:
        trainer.train_step(data.x_train, data.y_train)
    assert tamper.tamper_count == 1
    backend.assert_encodings_released()
    assert backend.open_encodings() == 0
    assert f"virtual batch {0 if victim == 'first' else n_batches - 1}:" in str(failure.value)
    assert all(not layer.grads for layer in network.layers)
    after = [p for layer in network.layers for p in layer.params.values()]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    # The next (honest) step runs clean on the same trainer.
    backend.cluster[1].faults = FaultInjector()
    assert np.isfinite(trainer.train_step(data.x_train, data.y_train))
    backend.assert_encodings_released()


# ----------------------------------------------------------------------
# golden: the pre-stack commit's losses, the block-draw order's shares
# ----------------------------------------------------------------------
def _observe(seed: int) -> dict:
    def build():
        data = cifar_like(n_train=48, n_test=16, seed=seed, size=8)
        network = build_mini_vgg(
            input_shape=(3, 8, 8), n_classes=10, rng=np.random.default_rng(seed), width=8
        )
        backend = DarKnightBackend(
            DarKnightConfig(virtual_batch_size=4, integrity=True, seed=seed)
        )
        return data, network, backend

    data, network, backend = build()
    network.forward(data.x_train[:16], backend, training=True)
    # Layer names are auto-numbered per process: hash in (layer, vb) order.
    offloaded = [layer.name for layer in network.layers if "w" in layer.params]
    digests = []
    for dev in backend.cluster.devices:
        h = hashlib.sha256()
        for position, name in enumerate(offloaded):
            for vb in range(4):
                h.update(b"layer %d vb %d" % (position, vb))
                share = dev.stored_shares[f"{name}/step0/vb{vb}"]
                h.update(np.ascontiguousarray(share).tobytes())
        digests.append(h.hexdigest())
    backend.end_batch()
    data, network, backend = build()
    trainer = Trainer(network, backend)
    losses = [
        float(
            trainer.train_step(
                data.x_train[s * 16 : (s + 1) * 16], data.y_train[s * 16 : (s + 1) * 16]
            )
        ).hex()
        for s in range(3)
    ]
    return {"share_digests": digests, "losses": losses}


@pytest.mark.parametrize("seed", [3, 17, 2026])
def test_shares_and_losses_match_the_pre_stack_golden(seed):
    """A 3-step loss trajectory recorded at the commit before the
    virtual-batch axis became a stack axis, and per-device digests of every
    share resident after one mini-vgg forward (5 layers x 4 virtual batches),
    re-recorded when a stack's coefficients began to be drawn by the block
    (the losses did not move: decoding is exact whatever the randomness)."""
    golden = json.loads(GOLDEN.read_text())
    assert _observe(seed) == golden[str(seed)]
