"""Tests for the DarKnight TEE+GPU backend (the paper's Section 3.1 flow)."""

import numpy as np
import pytest

from field_oracle import to_signed
from repro.errors import ConfigurationError, DecodingError, IntegrityError
from repro.gpu import GpuCluster, RandomTamper
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, PlainBackend, ReLU, Sequential
from repro.pipeline.stages import PreparedStep
from repro.runtime import DarKnightBackend, DarKnightConfig


@pytest.fixture()
def net(nprng):
    return Sequential(
        [
            Conv2D(1, 3, 3, 1, 1, rng=nprng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(3 * 3 * 3, 4, rng=nprng),
        ],
        input_shape=(1, 6, 6),
    )


def _backend(k=2, serving=False, **kwargs):
    cfg = DarKnightConfig(virtual_batch_size=k, seed=11, **kwargs)
    return DarKnightBackend(cfg, serving=serving)


def test_forward_matches_float_within_quantization(net, nprng):
    backend = _backend(validate_decode=True)
    x = nprng.normal(size=(4, 1, 6, 6))
    out_dk = net.forward(x, backend)
    out_plain = net.forward(x, PlainBackend())
    assert np.max(np.abs(out_dk - out_plain)) < 0.1
    backend.end_batch()


def test_masked_decode_is_exact_vs_quantized_reference(nprng):
    """The masked path must equal quantize->float-compute->dequantize exactly."""
    backend = _backend()
    q = backend.quantizer
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    out = backend.dense_forward(x, w, None, key="dense_test")
    xs, xn = backend._normalize(x)
    ws, wn = backend._normalize(w)
    xq = to_signed(q.field, q.quantize(xs)).astype(np.float64)
    wq = to_signed(q.field, q.quantize(ws)).astype(np.float64)
    ref = np.floor(xq @ wq / q.scale + 0.5) / q.scale * (xn.factor * wn.factor)
    assert np.allclose(out, ref, atol=1e-12)
    backend.end_batch()


def test_ragged_batch_padding(net, nprng):
    """Batch size not divisible by K: padded rows are dropped exactly."""
    backend = _backend(k=4)
    x = nprng.normal(size=(5, 1, 6, 6))
    out = net.forward(x, backend)
    assert out.shape[0] == 5
    out_ref = net.forward(x, PlainBackend())
    assert np.max(np.abs(out - out_ref)) < 0.1
    backend.end_batch()


def test_backward_grad_w_matches_plain(net, nprng):
    x = nprng.normal(size=(4, 1, 6, 6))
    grad_out = nprng.normal(size=(4, 4)) * 0.1

    backend = _backend(validate_decode=True)
    net.forward(x, backend)
    net.backward(grad_out, backend)
    dk_grads = {
        f"{layer.name}/{n}": g.copy()
        for layer, _, _ in net.parameters()
        for n, g in layer.grads.items()
    }
    backend.end_batch()

    net.forward(x, PlainBackend())
    net.backward(grad_out, PlainBackend())
    for layer, _, _ in net.parameters():
        for n, g in layer.grads.items():
            got = dk_grads[f"{layer.name}/{n}"]
            scale = np.max(np.abs(g)) + 1e-3
            assert np.max(np.abs(got - g)) < 0.05 * scale + 0.02, (layer.name, n)


def test_grad_w_without_forward_raises(nprng):
    backend = _backend()
    with pytest.raises(DecodingError):
        backend.dense_grad_w(
            nprng.normal(size=(2, 4)), nprng.normal(size=(2, 3)), key="never-ran"
        )


def test_end_batch_clears_gpu_shares(net, nprng):
    backend = _backend()
    x = nprng.normal(size=(2, 1, 6, 6))
    net.forward(x, backend)
    assert any(dev.stored_shares for dev in backend.cluster.devices)
    backend.end_batch()
    assert all(not dev.stored_shares for dev in backend.cluster.devices)
    assert backend._forward_store == {}


def test_integrity_passes_with_honest_gpus(net, nprng):
    backend = _backend(integrity=True)
    x = nprng.normal(size=(2, 1, 6, 6))
    out = net.forward(x, backend)
    net.backward(nprng.normal(size=(2, 4)) * 0.1, backend)
    assert out.shape == (2, 4)
    backend.end_batch()


def test_integrity_detects_malicious_gpu(nprng):
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=3)
    from repro.fieldmath import PrimeField

    field = PrimeField()
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={1: RandomTamper(field, probability=1.0, seed=0)},
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    with pytest.raises(IntegrityError):
        backend.dense_forward(x, w, None, key="d")


def test_without_integrity_tamper_corrupts_silently(nprng):
    """Control: no integrity share -> sabotage goes undetected (and wrong)."""
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=False, seed=3)
    from repro.fieldmath import PrimeField

    field = PrimeField()
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={0: RandomTamper(field, probability=1.0, seed=0)},
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    out = backend.dense_forward(x, w, None, key="d")
    assert not np.allclose(out, x @ w, atol=0.1)


def test_collusion_tolerance_raises_gpu_count(nprng):
    cfg = DarKnightConfig(virtual_batch_size=2, collusion_tolerance=2, seed=5)
    assert cfg.n_gpus_required == 4
    backend = DarKnightBackend(cfg)
    x = nprng.normal(size=(2, 6))
    w = nprng.normal(size=(6, 2))
    out = backend.dense_forward(x, w, None, key="d")
    assert np.max(np.abs(out - x @ w)) < 0.1


def test_each_gpu_sees_one_uniformish_share(net, nprng):
    backend = _backend()
    x = nprng.normal(size=(2, 1, 6, 6))
    net.forward(x, backend)
    # Every device that received data holds exactly one share per layer key.
    for dev in backend.cluster.devices:
        for key, share in dev.stored_shares.items():
            assert share.shape in {(1, 6, 6), (27,)}  # conv input or flat dense input
    backend.end_batch()


def test_link_and_ledger_accounting(net, nprng):
    backend = _backend()
    x = nprng.normal(size=(2, 1, 6, 6))
    net.forward(x, backend)
    net.backward(nprng.normal(size=(2, 4)) * 0.1, backend)
    assert backend.link.total_bytes > 0
    assert backend.cluster.total_mac_ops() > 0
    assert backend.enclave.ledger.op_counts["encode_forward"] > 0
    assert backend.enclave.ledger.op_counts["decode_forward"] > 0
    assert backend.enclave.ledger.op_counts["decode_backward"] > 0
    backend.end_batch()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DarKnightConfig(virtual_batch_size=0)
    with pytest.raises(ConfigurationError):
        DarKnightConfig(collusion_tolerance=0)
    with pytest.raises(ConfigurationError):
        DarKnightConfig(fractional_bits=0)


def test_config_share_accounting():
    cfg = DarKnightConfig(virtual_batch_size=4, collusion_tolerance=1, integrity=True)
    assert cfg.extra_shares == 1
    assert cfg.n_shares == 6
    assert cfg.n_gpus_required == 6


def test_coefficient_cache_skips_regeneration(nprng):
    """In the serving mode, same-shape batches reuse one set."""
    backend = _backend(k=2, serving=True)
    x = nprng.normal(size=(4, 8))
    w = nprng.normal(size=(8, 3))
    for step in range(3):
        backend.dense_forward(x, w, None, key="d")
        backend.end_batch()
    counts = backend.enclave.ledger.op_counts
    assert counts.get("generate_coefficients") == 1
    # 3 steps x 2 virtual batches = 6 encodes, 5 of them from the cache.
    assert counts.get("reuse_coefficients") == 5


def test_coefficient_cache_preserves_correctness(nprng):
    """Cached coefficients decode exactly like fresh ones."""
    x = nprng.normal(size=(4, 8))
    w = nprng.normal(size=(8, 3))
    cached = _backend(k=2, serving=True, validate_decode=True)
    for _ in range(2):
        out = cached.dense_forward(x, w, None, key="d")
        cached.end_batch()
    plain = x @ w
    assert np.max(np.abs(out - plain)) < 0.05


def test_fresh_coefficients_default_regenerates_every_batch(nprng):
    backend = _backend(k=2)
    x = nprng.normal(size=(4, 8))
    w = nprng.normal(size=(8, 3))
    for _ in range(2):
        backend.dense_forward(x, w, None, key="d")
        backend.end_batch()
    counts = backend.enclave.ledger.op_counts
    assert counts.get("generate_coefficients") == 4
    assert "reuse_coefficients" not in counts


def test_the_serving_mode_belongs_to_the_shard(net, nprng):
    """A provisioned shard's backend reuses one coefficient set and
    normalises each slot by its own max-abs (a loud neighbour changes no
    bit of a sample's output) and refuses backward; a Trainer's backend,
    built on the same config, draws fresh coefficients every virtual batch."""
    from repro.runtime import Trainer
    from repro.sharding import EnclaveShard

    cfg = DarKnightConfig(virtual_batch_size=2, seed=11)
    served = EnclaveShard.provision(0, net, cfg).backend
    assert served.serving and not served.precompute
    x = nprng.normal(size=(4, 1, 6, 6))
    loud = x.copy()
    loud[1] *= 100.0
    quiet_out, loud_out = (net.forward(rows, served, training=False) for rows in (x, loud))
    served.end_batch()
    assert np.array_equal(quiet_out[[0, 2, 3]], loud_out[[0, 2, 3]])
    counts = served.enclave.ledger.op_counts
    # Two masked layers x two virtual batches x two forwards, one generation.
    assert (counts["generate_coefficients"], counts["reuse_coefficients"]) == (1, 7)
    conv = net.layers[0]
    served.conv2d_forward(x, conv.params["w"], None, 1, 1, "c")
    with pytest.raises(ConfigurationError, match="inference-only"):
        served.conv2d_grad_w(x, nprng.normal(size=(4, 3, 6, 6)), 3, 3, 1, 1, "c")
    served.end_batch()

    trained = DarKnightBackend(cfg)
    assert not trained.serving
    Trainer(net, trained).train_step(x, np.array([0, 1, 2, 3]))
    counts = trained.enclave.ledger.op_counts
    assert counts["generate_coefficients"] == 4 and "reuse_coefficients" not in counts


def test_cached_coefficients_keep_noise_fresh(nprng):
    """Reusing A/B/Gamma must not reuse the per-encode noise vectors."""
    backend = _backend(k=2, serving=True)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    backend.dense_forward(x, w, None, key="d")
    share_a = backend.cluster[0].stored_shares["d/step0/vb0"].copy()
    backend.end_batch()
    backend.dense_forward(x, w, None, key="d")
    share_b = backend.cluster[0].stored_shares["d/step1/vb0"].copy()
    backend.end_batch()
    assert not np.array_equal(share_a, share_b)


# ----------------------------------------------------------------------
# integrity at the paper's price: eliminations and decodes are counted
# ----------------------------------------------------------------------
@pytest.fixture()
def counts(monkeypatch):
    """Live counters of Gauss–Jordan eliminations and forward decodes."""
    from repro.fieldmath import linalg
    from repro.masking import ForwardDecoder

    tally = {"eliminations": 0, "decodes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Every elimination in linalg: the stacked inverse kernel and rank's own.
    for kernel in ("_invert_stack", "rank"):
        monkeypatch.setattr(linalg, kernel, counted("eliminations", getattr(linalg, kernel)))
    monkeypatch.setattr(ForwardDecoder, "decode", counted("decodes", ForwardDecoder.decode))
    return tally


@pytest.mark.parametrize("integrity, decodes_per_call", [(True, 2), (False, 1)])
def test_reused_coefficients_decode_without_eliminating(
    nprng, counts, integrity, decodes_per_call
):
    backend = _backend(k=2, integrity=integrity, serving=True)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    backend.dense_forward(x, w, None, key="d")  # generates, inverts, plans
    backend.end_batch()
    counts.update(eliminations=0, decodes=0)
    n_calls = 5
    for _ in range(n_calls):
        backend.dense_forward(x, w, None, key="d")  # one backend.decode each
        backend.end_batch()
    assert counts == {"eliminations": 0, "decodes": decodes_per_call * n_calls}


def test_fresh_coefficients_eliminate_exactly_once_per_layer_step(net, nprng, counts):
    """A layer step's sets are generated by one call that inverts every
    primary and alternate in one stacked elimination; forward verify, the
    plan and backward verify add none."""
    backend = _backend(k=2, integrity=True)
    x = nprng.normal(size=(4, 1, 6, 6))
    ledger = backend.enclave.ledger.op_counts
    net.forward(x, backend)
    n_sets, n_layer_steps = 4, 2  # two masked layers, two virtual batches each
    assert ledger["generate_coefficients"] == n_sets
    assert counts["eliminations"] == n_layer_steps
    net.backward(nprng.normal(size=(4, 4)) * 0.1, backend)
    backend.end_batch()
    assert ledger["generate_coefficients"] == n_sets
    assert ledger["integrity_check_backward"] == 4
    assert counts["eliminations"] == n_layer_steps


@pytest.mark.parametrize("victim", [0, -1])  # a primary share, the redundant share
def test_tamper_still_detected_on_the_scratch_pool(nprng, victim):
    """The two compared decodes are held side by side; were either one a
    view of pooled memory the second would overwrite the first and the
    comparison would pass."""
    from repro.fieldmath import PrimeField
    from repro.precompute import scratch_scope

    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=3)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    honest = DarKnightBackend(cfg).dense_forward(x, w, None, key="d")
    gpu = victim % cfg.n_gpus_required
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={gpu: RandomTamper(field, probability=1.0, seed=0)},
    )
    with scratch_scope(True):
        pooled = DarKnightBackend(cfg).dense_forward(x, w, None, key="d")
        with pytest.raises(IntegrityError):
            DarKnightBackend(cfg, cluster=cluster).dense_forward(x, w, None, key="d")
    assert np.array_equal(pooled, honest)


def test_backward_verification_fails_closed_without_an_alternate(nprng):
    """All alternates singular: the backward check must refuse, not skip."""
    import dataclasses

    backend = _backend(k=2, integrity=True)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    backend.dense_forward(x, w, None, key="d")
    (record,) = backend._forward_store["d"]
    a = record.prepared.sets[record.slot].a.copy()
    a[:, record.prepared.sets[record.slot].n_sources :] = 0  # the redundant share decodes nothing
    record.prepared = PreparedStep.build(
        [dataclasses.replace(record.prepared.sets[record.slot], a=a)], backend.enclave.rng, True
    )
    with pytest.raises(IntegrityError, match="fewer than two"):
        backend.dense_grad_w(x, nprng.normal(size=(2, 3)) * 0.1, key="d")
