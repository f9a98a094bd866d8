"""Tests for virtual-batch partitioning."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.masking import iter_virtual_batches


def test_even_split():
    batch = np.arange(12).reshape(6, 2)
    vbs = list(iter_virtual_batches(batch, 2))
    assert len(vbs) == 3
    for vb in vbs:
        assert vb.n_real == 2
        assert vb.n_real == vb.data.shape[0]
    assert np.array_equal(np.concatenate([vb.data for vb in vbs]), batch)


def test_ragged_tail_padded_with_zeros():
    batch = np.ones((5, 3))
    vbs = list(iter_virtual_batches(batch, 2))
    assert len(vbs) == 3
    tail = vbs[-1]
    assert tail.n_real == 1
    assert tail.n_real < tail.data.shape[0]
    assert np.all(tail.data[1:] == 0)
    assert tail.indices == (4,)


def test_indices_track_parent_positions():
    batch = np.arange(7)
    vbs = list(iter_virtual_batches(batch, 3))
    assert [vb.indices for vb in vbs] == [(0, 1, 2), (3, 4, 5), (6,)]


def test_k_one_degenerates_to_per_sample():
    vbs = list(iter_virtual_batches(np.arange(3), 1))
    assert len(vbs) == 3
    assert all(vb.n_real == vb.data.shape[0] for vb in vbs)


def test_validation():
    with pytest.raises(ConfigurationError):
        list(iter_virtual_batches(np.arange(4), 0))
    with pytest.raises(ConfigurationError):
        list(iter_virtual_batches(np.empty((0, 2)), 2))


def test_virtual_batch_count_is_the_ceiling():
    for batch_size, k, count in [(128, 4, 32), (5, 2, 3), (1, 8, 1)]:
        assert len(list(iter_virtual_batches(np.zeros((batch_size, 1)), k))) == count
