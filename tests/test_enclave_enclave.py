"""Tests for the Enclave runtime object."""

import numpy as np
import pytest

from repro.enclave import Enclave, EpcModel, measure_enclave
from repro.errors import EnclaveError

MB = 1024 * 1024


@pytest.fixture()
def enclave():
    return Enclave(code_identity="test-enclave", seed=5)


def test_measurement_and_quote(enclave):
    quote = enclave.quote(report_data=b"hello")
    assert quote.measurement == measure_enclave("test-enclave")
    assert enclave.verify_peer_quote(quote, measure_enclave("test-enclave"))


def test_ledger_tracks_boundary_crossings(enclave):
    enclave.ecall("provision", nbytes_in=100)
    enclave.ocall("result", nbytes_out=50)
    assert enclave.ledger.ecalls == 1
    assert enclave.ledger.ocalls == 1
    assert enclave.ledger.bytes_in == 100
    assert enclave.ledger.bytes_out == 50
    assert enclave.ledger.op_counts["ecall:provision"] == 1


def test_record_compute(enclave):
    enclave.record_compute("encode", 1000)
    enclave.record_compute("encode", 500)
    assert enclave.ledger.op_counts["encode"] == 2
    assert enclave.ledger.op_bytes["encode"] == 1500


def test_count_forms_book_what_repeated_calls_book(enclave):
    """A layer step's virtual batches in one entry: ``count`` calls' worth."""
    looped = Enclave(code_identity="test-enclave", seed=1)
    enclave.record_compute("encode", 1000, 3)
    enclave.ecall("gather_outputs", 64, count=4)
    enclave.ocall("scatter_shares", 32, count=2)
    for _ in range(3):
        looped.record_compute("encode", 1000)
    for _ in range(4):
        looped.ecall("gather_outputs", 64)
    for _ in range(2):
        looped.ocall("scatter_shares", 32)
    assert enclave.ledger == looped.ledger
    assert (enclave.ledger.ecalls, enclave.ledger.bytes_out) == (4, 64)


def test_allocated_context_manager(enclave):
    with enclave.allocated("buf", 2 * MB):
        assert enclave.epc.resident_bytes == 2 * MB
    assert enclave.epc.resident_bytes == 0


def test_track_and_release_array(enclave):
    arr = np.zeros(1024, dtype=np.float64)
    enclave.track_array("acts", arr)
    assert enclave.epc.resident_bytes == arr.nbytes
    enclave.release("acts")
    assert enclave.epc.resident_bytes == 0


def test_seal_evict_reload_roundtrip(enclave, nprng):
    grads = nprng.normal(size=(64,))
    enclave.seal_and_evict("vb0", grads, label=b"grad")
    assert enclave.ledger.sealed_bytes > 0
    assert enclave.ledger.ocalls == 1
    back = enclave.reload_and_unseal("vb0")
    assert np.array_equal(back, grads)
    assert enclave.ledger.unsealed_bytes > 0
    enclave.drop_evicted("vb0")
    assert enclave.untrusted_store.keys() == []


def test_require_fits(enclave):
    enclave.require_fits(1 * MB, "small buffer")  # fine
    with pytest.raises(EnclaveError, match="virtual batch"):
        enclave.require_fits(200 * MB, "huge buffer")


def test_custom_epc(nprng):
    enclave = Enclave(epc=EpcModel(usable_bytes=MB), seed=1)
    with pytest.raises(EnclaveError):
        enclave.require_fits(2 * MB, "buffer")


def test_rng_is_seeded():
    a = Enclave(seed=7).rng.uniform((8,))
    b = Enclave(seed=7).rng.uniform((8,))
    assert np.array_equal(a, b)
