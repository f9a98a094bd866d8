"""Tests for the EPC occupancy/paging model."""

import pytest

from repro.enclave import EPC_TOTAL_BYTES, EPC_USABLE_BYTES, EpcModel
from repro.errors import EnclaveError

MB = 1024 * 1024


def test_constants_match_sgx_generation():
    assert EPC_TOTAL_BYTES == 128 * MB
    assert EPC_USABLE_BYTES == 93 * MB


def test_allocation_tracking():
    epc = EpcModel(usable_bytes=10 * MB)
    epc.allocate("a", 4 * MB)
    epc.allocate("b", 3 * MB)
    assert epc.resident_bytes == 7 * MB
    assert epc.peak_bytes == 7 * MB
    assert not epc.is_overflowing
    epc.free("a")
    assert epc.resident_bytes == 3 * MB
    assert epc.peak_bytes == 7 * MB  # peak persists


def test_overflow_counts_paged_bytes():
    epc = EpcModel(usable_bytes=10 * MB)
    epc.allocate("big", 14 * MB)
    assert epc.is_overflowing
    assert epc.overflow_bytes == 4 * MB
    assert epc.stats.paged_out_bytes == 4 * MB
    assert epc.stats.page_faults == 1


def test_touch_charges_proportional_paging():
    epc = EpcModel(usable_bytes=10 * MB)
    epc.allocate("a", 8 * MB)
    epc.touch("a")  # fits: no paging
    assert epc.stats.total_paged_bytes == 0
    epc.allocate("b", 8 * MB)  # now 16 MB resident, 6 over
    before = epc.stats.total_paged_bytes
    epc.touch("a")
    assert epc.stats.total_paged_bytes > before


def test_validation_errors():
    epc = EpcModel(usable_bytes=MB)
    with pytest.raises(EnclaveError):
        EpcModel(usable_bytes=0)
    with pytest.raises(EnclaveError):
        epc.allocate("x", -1)
    epc.allocate("x", 10)
    with pytest.raises(EnclaveError):
        epc.allocate("x", 10)  # duplicate tag
    with pytest.raises(EnclaveError):
        epc.free("nope")
    with pytest.raises(EnclaveError):
        epc.touch("nope")


def test_reset_stats():
    epc = EpcModel(usable_bytes=MB)
    epc.allocate("big", 2 * MB)
    assert epc.stats.total_paged_bytes > 0
    epc.reset_stats()
    assert epc.stats.total_paged_bytes == 0
    assert epc.resident_bytes == 2 * MB  # allocations survive
