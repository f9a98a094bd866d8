"""Tests for the cross-enclave local-attestation mesh and shard lifecycle."""

import numpy as np
import pytest

from repro.errors import AttestationError, ShardFailedError
from repro.nn import Dense, Sequential
from repro.pipeline import WindowItem
from repro.runtime.config import DarKnightConfig
from repro.sharding import AttestationMesh, EnclaveShard


def _net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(8, 4, rng=rng)], (8,))


def _shards(n, code_identity="darknight-enclave-v1"):
    net = _net()
    dk = DarKnightConfig(virtual_batch_size=2, seed=0)
    return [
        EnclaveShard.provision(i, net, dk, code_identity=code_identity)
        for i in range(n)
    ]


def test_mesh_establishes_all_pairwise_links():
    shards = _shards(3)
    mesh = AttestationMesh(shards)
    assert mesh.handshakes == 3 * 2
    assert len(mesh._links) == 6
    for a in range(3):
        for b in range(3):
            assert mesh.verified(a, b)


def test_mesh_refuses_an_impostor_shard():
    shards = _shards(2)
    rogue = EnclaveShard.provision(
        2, _net(), DarKnightConfig(virtual_batch_size=2, seed=0),
        code_identity="trojaned-enclave",
    )
    with pytest.raises(AttestationError):
        AttestationMesh(shards + [rogue])


def test_unverified_link_blocks_migration():
    shards = _shards(2)
    mesh = AttestationMesh(shards[:1])  # shard 1 never attested
    assert not mesh.verified(0, 1)
    with pytest.raises(AttestationError):
        mesh.assert_verified(0, 1)
    # Same-shard hand-offs are trivially fine.
    mesh.assert_verified(1, 1)


def test_shard_seeds_derive_from_config_and_shard_id():
    shards = _shards(2)
    # Distinct enclaves, same measurement, independent masking randomness.
    assert shards[0].enclave is not shards[1].enclave
    assert shards[0].enclave.measurement == shards[1].enclave.measurement
    assert shards[0].backend.config.seed == 0
    assert shards[1].backend.config.seed == 1


def test_dead_shard_refuses_dispatch():
    shard = _shards(1)[0]
    shard.healthy = False
    with pytest.raises(ShardFailedError):
        shard.run_window([WindowItem(np.zeros((2, 8)), 0.0)])


def test_fail_after_dies_mid_window_with_completed_prefix():
    shard = _shards(1)[0]
    shard.fail_after(2)
    x = np.random.default_rng(0).normal(size=(2, 8))
    items = [WindowItem(x, 0.0)] * 3
    with pytest.raises(ShardFailedError) as excinfo:
        shard.run_window(items)
    err = excinfo.value
    assert err.shard_id == 0
    # The completed prefix is one window's account carrying real results:
    # nothing is dropped.
    groups, stats = err.completed
    assert len(groups) == 2
    for group in groups:
        assert group.output.shape == (2, 4)
    assert stats.n_jobs == 2
    assert not shard.healthy
    assert shard.batches_run == 2
