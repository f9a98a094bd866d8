"""Tests for the Enclave runtime object."""

import numpy as np
import pytest

from repro.enclave import Enclave, measure_enclave
from repro.errors import SealingError


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
    assert enclave.ledger.op_counts == {"ecall:provision": 1, "ocall:result": 1}
    assert enclave.ledger.op_bytes == {"ecall:provision": 100, "ocall:result": 50}


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
    assert enclave.ledger.op_counts["ecall:gather_outputs"] == 4
    assert enclave.ledger.op_bytes["ocall:scatter_shares"] == 64


def test_seal_evict_reload_roundtrip(enclave, nprng):
    grads = nprng.normal(size=(64,))
    enclave.seal_and_evict("vb0", grads, label=b"grad")
    assert enclave.ledger.op_bytes["seal"] > 0
    assert enclave.ledger.op_counts["ocall:evict"] == 1
    back = enclave.reload_and_unseal("vb0")
    assert np.array_equal(back, grads)
    assert enclave.ledger.op_bytes["unseal"] == enclave.ledger.op_bytes["seal"]
    enclave.drop_evicted("vb0")
    with pytest.raises(SealingError):
        enclave.reload_and_unseal("vb0")


def test_rng_is_seeded():
    a = Enclave(seed=7).rng.uniform((8,))
    b = Enclave(seed=7).rng.uniform((8,))
    assert np.array_equal(a, b)
