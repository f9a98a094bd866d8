"""Tests for dynamic virtual-batch coalescing (flush on size-or-timeout)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import PendingRequest, RequestQueue, SloPolicy, VirtualBatchScheduler


def _push(queue, request_id, tenant="t0", t=0.0):
    queue.push(
        PendingRequest(
            request_id=request_id,
            tenant=tenant,
            x=np.zeros(4),
            arrival_time=t,
        )
    )


@pytest.fixture()
def queue():
    return RequestQueue(SloPolicy())


def test_size_triggered_flush_fills_batches(queue):
    sched = VirtualBatchScheduler(queue, batch_size=4, max_wait=0.01)
    for i in range(9):
        _push(queue, i)
    batches = sched.collect_ready(now=0.0)
    assert [b.n_requests for b in batches] == [4, 4]
    assert all(b.trigger == "size" for b in batches)
    assert all(b.fill_ratio == 1.0 for b in batches)
    assert queue.depth == 1  # the ragged tail waits for its deadline


def test_partial_batch_never_flushes_on_size(queue):
    sched = VirtualBatchScheduler(queue, batch_size=4, max_wait=0.01)
    for i in range(3):
        _push(queue, i)
    assert sched.collect_ready(now=0.0) == []
    assert queue.depth == 3


def test_deadline_flushes_partial_batch_at_the_deadline(queue):
    sched = VirtualBatchScheduler(queue, batch_size=4, max_wait=0.01)
    _push(queue, 0, t=0.0)
    _push(queue, 1, t=0.002)
    # Before the oldest request's deadline: nothing fires.
    assert sched.collect_expired(now=0.009) == []
    batches = sched.collect_expired(now=0.05)
    assert len(batches) == 1
    (batch,) = batches
    assert batch.trigger == "deadline"
    assert batch.n_requests == 2
    assert batch.fill_ratio == 0.5  # padded up to K inside the backend
    assert batch.flush_time == pytest.approx(0.01)  # oldest enqueue + max_wait
    assert queue.depth == 0


def test_drain_with_infinite_horizon_flushes_everything(queue):
    sched = VirtualBatchScheduler(queue, batch_size=4, max_wait=0.01)
    for i in range(6):
        _push(queue, i, t=0.001 * i)
    batches = sched.collect_expired(now=math.inf)
    assert [b.n_requests for b in batches] == [4, 2]
    assert queue.depth == 0
    assert all(math.isfinite(b.flush_time) for b in batches)


def test_fairness_under_saturating_tenant(queue):
    """A flooding tenant cannot push the quiet tenant out of early batches."""
    sched = VirtualBatchScheduler(queue, batch_size=4, max_wait=0.01)
    for i in range(12):
        _push(queue, i, tenant="hog")
    for i in range(3):
        _push(queue, 100 + i, tenant="mouse")
    batches = sched.collect_ready(now=0.0)
    assert len(batches) == 3
    # Round-robin draining spreads the mouse across the first batches
    # instead of leaving it behind 12 hog requests.
    for batch in batches[:2]:
        tenants = [r.tenant for r in batch.requests]
        assert "mouse" in tenants, tenants


def test_per_request_mode_keeps_enclave_slot_accounting(queue):
    """batch_size=1 dispatches alone, but each batch still occupies K slots."""
    sched = VirtualBatchScheduler(queue, batch_size=1, max_wait=0.01, slots=4)
    for i in range(3):
        _push(queue, i)
    batches = sched.collect_ready(now=0.0)
    assert [b.n_requests for b in batches] == [1, 1, 1]
    assert all(b.slots == 4 for b in batches)
    assert all(b.fill_ratio == 0.25 for b in batches)


def test_batch_ids_are_monotonic(queue):
    sched = VirtualBatchScheduler(queue, batch_size=2, max_wait=0.01)
    for i in range(6):
        _push(queue, i)
    batches = sched.collect_ready(now=0.0)
    assert [b.batch_id for b in batches] == [0, 1, 2]
    assert [b.n_requests for b in batches] == [2, 2, 2]


def test_invalid_parameters_rejected(queue):
    with pytest.raises(ConfigurationError):
        VirtualBatchScheduler(queue, batch_size=0)
    with pytest.raises(ConfigurationError):
        VirtualBatchScheduler(queue, batch_size=2, max_wait=0.0)
