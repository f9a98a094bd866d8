"""Failure-injection tests for the DarKnight backend's guard rails."""

import numpy as np
import pytest

from repro.errors import DecodingError, QuantizationError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper
from repro.runtime import DarKnightBackend, DarKnightConfig


def test_validate_decode_catches_silent_corruption(nprng):
    """Without the integrity share, validate_decode is the debug net that
    still catches a tampering GPU (by disagreeing with the float reference)."""
    field = PrimeField()
    cfg = DarKnightConfig(
        virtual_batch_size=2, integrity=False, validate_decode=True, seed=0
    )
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            0: RandomTamper(field, probability=1.0, n_entries=8, seed=1)
        },
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    x = nprng.normal(size=(2, 16))
    w = nprng.normal(size=(16, 4))
    with pytest.raises(DecodingError, match="deviates from float reference"):
        backend.dense_forward(x, w, None, key="d")


def test_quantization_overflow_raises_without_normalization(nprng):
    """With dynamic normalisation off, out-of-range values fail loudly
    instead of silently wrapping mod p (the paper's VGG failure mode)."""
    cfg = DarKnightConfig(
        virtual_batch_size=2, dynamic_normalization=False, seed=0
    )
    backend = DarKnightBackend(cfg)
    x = nprng.normal(size=(2, 8)) * 1e6  # far beyond the signed field range
    w = nprng.normal(size=(8, 3))
    with pytest.raises(QuantizationError):
        backend.dense_forward(x, w, None, key="d")


def test_dynamic_normalization_rescues_the_same_input(nprng):
    """The paper's VGG fix, demonstrated: identical out-of-range input works
    once max-abs normalisation is enabled."""
    cfg = DarKnightConfig(virtual_batch_size=2, dynamic_normalization=True, seed=0)
    backend = DarKnightBackend(cfg)
    x = nprng.normal(size=(2, 8)) * 1e6
    w = nprng.normal(size=(8, 3))
    out = backend.dense_forward(x, w, None, key="d")
    reference = x @ w
    rel_err = np.max(np.abs(out - reference)) / np.max(np.abs(reference))
    assert rel_err < 0.05


def test_mismatched_prime_rejected():
    from repro.enclave import Enclave

    cfg = DarKnightConfig(virtual_batch_size=2, prime=2**25 - 39)
    wrong_field_enclave = Enclave(field=PrimeField(p=10007), seed=0)
    with pytest.raises(DecodingError, match="prime"):
        DarKnightBackend(cfg, enclave=wrong_field_enclave)


def test_backward_integrity_catches_eq_only_tamper(nprng):
    """A device that lies only on the backward Eq op (honest forward) is
    caught by the alternate-B redundant decode."""
    from repro.errors import IntegrityError
    from repro.gpu import TargetedTamper

    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=0)
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            1: TargetedTamper(
                RandomTamper(field, probability=1.0, seed=2),
                target_op="backward_equation_dense",
            )
        },
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    backend.dense_forward(x, w, None, key="d")  # forward is honest -> passes
    with pytest.raises(IntegrityError):
        backend.dense_grad_w(x, nprng.normal(size=(2, 3)) * 0.1, key="d")


@pytest.mark.parametrize("kind", ["dense", "conv2d"])
@pytest.mark.parametrize("stage", ["forward", "backward_equation", "combine_deltas"])
def test_one_launch_per_op_still_catches_a_byzantine_device(kind, stage, nprng):
    """All shares of an op run as one stacked GEMM, yet a device lying on
    exactly one op — forward only, ``Eq_j`` only, or the ``Σβ·δ`` combine
    only — is caught where that op is verified, and nowhere earlier."""
    from repro.errors import IntegrityError
    from repro.gpu import TargetedTamper

    target_op = {
        "forward": f"{kind}_forward",
        "backward_equation": "backward_equation_" + ("dense" if kind == "dense" else "conv"),
        "combine_deltas": "combine_deltas",
    }[stage]
    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=0)
    tamper = TargetedTamper(RandomTamper(field, probability=1.0, seed=2), target_op)
    cluster = GpuCluster(field, cfg.n_gpus_required, fault_injectors={1: tamper})
    backend = DarKnightBackend(cfg, cluster=cluster)
    if kind == "dense":
        x, w = nprng.normal(size=(2, 8)), nprng.normal(size=(8, 3))
        delta = nprng.normal(size=(2, 3)) * 0.1
        forward = lambda: backend.dense_forward(x, w, None, key="layer")
        backward = lambda: backend.dense_grad_w(x, delta, key="layer")
    else:
        x, w = nprng.normal(size=(2, 2, 5, 5)), nprng.normal(size=(3, 2, 3, 3))
        delta = nprng.normal(size=(2, 3, 5, 5)) * 0.1
        forward = lambda: backend.conv2d_forward(x, w, None, 1, 1, key="layer")
        backward = lambda: backend.conv2d_grad_w(x, delta, 3, 3, 1, 1, key="layer")
    if stage == "forward":
        with pytest.raises(IntegrityError):
            forward()
        return
    forward()  # honest on this op: verification passes
    assert tamper.tamper_count == 0
    with pytest.raises(IntegrityError):
        backward()
    assert tamper.tamper_count >= 1


@pytest.mark.parametrize("kind", ["dense", "conv2d"])
@pytest.mark.parametrize("delta_rows", [9, 5])  # more rows than the forward, fewer
def test_grad_w_refuses_a_delta_that_does_not_match_its_forward(nprng, kind, delta_rows):
    """A 9-row delta used to be accepted with rows 6-8 silently dropped, a
    5-row one died in a bare IndexError; both are refused up front, naming
    the layer and the two row counts, with nothing quantized or launched."""
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=4, integrity=True, seed=0))
    if kind == "dense":
        x, w = nprng.normal(size=(6, 8)), nprng.normal(size=(8, 3))
        backend.dense_forward(x, w, None, key="layer")
        grad_w = lambda rows: backend.dense_grad_w(
            x, nprng.normal(size=(rows, 3)) * 0.1, key="layer"
        )
    else:
        x, w = nprng.normal(size=(6, 2, 5, 5)), nprng.normal(size=(3, 2, 3, 3))
        backend.conv2d_forward(x, w, None, 1, 1, key="layer")
        grad_w = lambda rows: backend.conv2d_grad_w(
            x, nprng.normal(size=(rows, 3, 5, 5)) * 0.1, 3, 3, 1, 1, key="layer"
        )
    ledger = dict(backend.enclave.ledger.op_counts)
    kernel_calls = [dev.ledger.kernel_calls for dev in backend.cluster.devices]
    with pytest.raises(
        DecodingError, match=rf"'layer'.*forward has 6 rows.*delta has {delta_rows}"
    ):
        grad_w(delta_rows)
    assert backend.enclave.ledger.op_counts == ledger
    assert [dev.ledger.kernel_calls for dev in backend.cluster.devices] == kernel_calls
    assert grad_w(6).shape == w.shape  # the forward is still there for the right delta
    backend.end_batch()
    backend.assert_encodings_released()
