"""Tests for the detect-quarantine-retry integrity recovery extension."""

import numpy as np
import pytest

from repro.errors import GpuError, IntegrityError
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.gpu import FaultInjector, GpuCluster, RandomTamper, ShareLaunch
from repro.runtime import RecoveringExecutor

K, M = 2, 1
N_SHARES = K + M + 1  # one redundant share for detection


def _launch(cluster, w):
    """Dense forward launch over broadcast weights (fault injectors apply)."""
    cluster.broadcast_weights("w", w)
    return ShareLaunch("dense", "recovery", weight_name="w")


@pytest.fixture()
def field():
    return PrimeField()


@pytest.fixture()
def rng(field):
    return FieldRng(field, seed=0)


@pytest.fixture()
def inputs(rng):
    return rng.uniform((K, 6))


@pytest.fixture()
def weights(rng):
    return rng.uniform((6, 3))


def _expected(field, inputs, weights):
    return np.stack(
        [field_matmul(field, x.reshape(1, -1), weights).ravel() for x in inputs]
    )


def test_honest_cluster_needs_one_attempt(field, rng, inputs, weights):
    cluster = GpuCluster(field, N_SHARES)
    executor = RecoveringExecutor(cluster, rng)
    result, report = executor.execute_forward(inputs, K, M, _launch(cluster, weights))
    assert np.array_equal(result, _expected(field, inputs, weights))
    assert report.attempts == 1
    assert not report.was_attacked
    assert report.recovered


def test_byzantine_device_is_benched_and_computation_recovers(field, rng, inputs, weights):
    """One persistent liar + one spare device: recovery succeeds."""
    cluster = GpuCluster(
        field,
        N_SHARES + 1,
        fault_injectors={1: RandomTamper(field, probability=1.0, seed=3)},
    )
    executor = RecoveringExecutor(cluster, rng)
    result, report = executor.execute_forward(inputs, K, M, _launch(cluster, weights))
    assert np.array_equal(result, _expected(field, inputs, weights))
    assert report.was_attacked
    assert 1 in executor.quarantined_devices
    assert report.recovered


def test_no_spare_capacity_raises(field, rng, inputs, weights):
    cluster = GpuCluster(
        field,
        N_SHARES,  # no spare: quarantining anyone drops below the share count
        fault_injectors={0: RandomTamper(field, probability=1.0, seed=3)},
    )
    executor = RecoveringExecutor(cluster, rng)
    with pytest.raises(IntegrityError):
        executor.execute_forward(inputs, K, M, _launch(cluster, weights))


def test_fully_byzantine_pool_exhausts_retries(field, rng, inputs, weights):
    cluster = GpuCluster(
        field,
        N_SHARES + 3,
        fault_injectors={
            i: RandomTamper(field, probability=1.0, seed=i) for i in range(N_SHARES + 3)
        },
    )
    executor = RecoveringExecutor(cluster, rng, max_retries=3)
    with pytest.raises(IntegrityError):
        executor.execute_forward(inputs, K, M, _launch(cluster, weights))


def test_pardon_returns_device_to_pool(field, rng, inputs, weights):
    cluster = GpuCluster(
        field,
        N_SHARES + 1,
        fault_injectors={0: RandomTamper(field, probability=1.0, seed=2)},
    )
    executor = RecoveringExecutor(cluster, rng)
    executor.execute_forward(inputs, K, M, _launch(cluster, weights))
    benched = executor.quarantined_devices
    assert benched
    executor.pardon(benched[0])
    assert benched[0] not in executor.quarantined_devices


def test_invalid_retry_budget(field, rng):
    with pytest.raises(IntegrityError):
        RecoveringExecutor(GpuCluster(field, 4), rng, max_retries=0)


def test_intermittent_attacker_eventually_benched(field, rng, inputs, weights):
    """A liar that only sometimes tampers still gets caught and benched."""
    cluster = GpuCluster(
        field,
        N_SHARES + 1,
        fault_injectors={2: RandomTamper(field, probability=0.7, seed=9)},
    )
    executor = RecoveringExecutor(cluster, rng, max_retries=8)
    for _ in range(4):
        result, _ = executor.execute_forward(inputs, K, M, _launch(cluster, weights))
        assert np.array_equal(result, _expected(field, inputs, weights))


class _DeadKernel(FaultInjector):
    """A device whose kernel dies (driver fault) instead of lying."""

    def corrupt(self, tensor, device_id, op_name):
        raise GpuError(f"GPU {device_id} fell off the bus during {op_name}")


def test_shares_are_released_when_a_kernel_raises(field, rng, inputs, weights):
    """Regression: a kernel raising on the 2nd line-up device used to leave
    the attempt's shares resident on every device."""
    cluster = GpuCluster(field, N_SHARES + 1, fault_injectors={1: _DeadKernel()})
    executor = RecoveringExecutor(cluster, rng)
    with pytest.raises(GpuError, match="fell off the bus"):
        executor.execute_forward(inputs, K, M, _launch(cluster, weights))
    assert all(not device.stored_shares for device in cluster.devices)
