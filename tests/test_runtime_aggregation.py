"""Tests for Algorithm 2 (large-batch sealed aggregation)."""

import numpy as np
import pytest

from repro.enclave import Enclave
from repro.errors import ConfigurationError
from repro.runtime import LargeBatchAggregator


@pytest.fixture()
def enclave():
    return Enclave(seed=1)


def test_aggregate_equals_direct_sum(enclave, nprng):
    agg = LargeBatchAggregator(enclave)
    updates = [nprng.normal(size=(6, 4)) for _ in range(5)]
    for i, u in enumerate(updates):
        agg.add_update(f"vb{i}", u)
    total = agg.aggregate([f"vb{i}" for i in range(5)])
    assert np.allclose(total, np.sum(updates, axis=0))


@pytest.mark.parametrize("n_shards", [1, 3, 8])
def test_sharding_preserves_result(enclave, nprng, n_shards):
    agg = LargeBatchAggregator(enclave, n_shards=n_shards)
    updates = [nprng.normal(size=(37,)) for _ in range(3)]
    for i, u in enumerate(updates):
        agg.add_update(f"vb{i}", u)
    total = agg.aggregate([f"vb{i}" for i in range(3)])
    assert np.allclose(total, np.sum(updates, axis=0))


def test_eviction_goes_through_untrusted_store(enclave, nprng):
    agg = LargeBatchAggregator(enclave, n_shards=2)
    agg.add_update("vb0", nprng.normal(size=(16,)))
    assert len(enclave.untrusted_store.keys()) == 2
    assert enclave.ledger.op_bytes["seal"] > 0
    agg.aggregate(["vb0"])
    assert enclave.untrusted_store.keys() == []
    assert enclave.ledger.op_bytes["unseal"] > 0


def test_pending_keys(enclave, nprng):
    agg = LargeBatchAggregator(enclave)
    agg.add_update("a", nprng.normal(size=(4,)))
    assert agg.pending_keys() == ["a"]
    agg.aggregate(["a"])
    assert agg.pending_keys() == []


def test_duplicate_key_rejected(enclave, nprng):
    agg = LargeBatchAggregator(enclave)
    agg.add_update("a", nprng.normal(size=(4,)))
    with pytest.raises(ConfigurationError):
        agg.add_update("a", nprng.normal(size=(4,)))


def test_unknown_key_rejected(enclave):
    agg = LargeBatchAggregator(enclave)
    with pytest.raises(ConfigurationError):
        agg.aggregate(["missing"])
    with pytest.raises(ConfigurationError):
        agg.aggregate([])


def test_shape_mismatch_rejected(enclave, nprng):
    agg = LargeBatchAggregator(enclave)
    agg.add_update("a", nprng.normal(size=(4,)))
    agg.add_update("b", nprng.normal(size=(5,)))
    with pytest.raises(ConfigurationError):
        agg.aggregate(["a", "b"])


def test_invalid_shards():
    with pytest.raises(ConfigurationError):
        LargeBatchAggregator(Enclave(seed=0), n_shards=0)


def test_tampered_evicted_update_detected(enclave, nprng):
    """An adversary flipping bits in an evicted ▽W_v is caught on reload."""
    from repro.errors import SealingError

    agg = LargeBatchAggregator(enclave)
    agg.add_update("vb0", nprng.normal(size=(8,)))
    enclave.untrusted_store.tamper("vb0/shard0")
    with pytest.raises(SealingError):
        agg.aggregate(["vb0"])
