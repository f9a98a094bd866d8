"""Tests for per-tenant attested session caching."""

import numpy as np
import pytest

from repro.comm import LinkModel
from repro.enclave import Enclave
from repro.errors import AttestationError, CommunicationError
from repro.serving import SessionManager


@pytest.fixture()
def enclave():
    return Enclave(code_identity="darknight-enclave-v1", seed=7)


def test_handshake_runs_once_per_tenant(enclave):
    link = LinkModel()
    manager = SessionManager(enclave, link=link, rng=np.random.default_rng(0))
    first = manager.connect("alice")
    bytes_after_handshake = link.total_bytes
    again = manager.connect("alice")
    assert again is first
    assert manager.handshakes_performed == 1
    # A cached connect moves zero bytes: no re-quote, no key exchange.
    assert link.total_bytes == bytes_after_handshake


def test_each_tenant_gets_its_own_keyed_channel(enclave):
    manager = SessionManager(enclave, rng=np.random.default_rng(1))
    alice = manager.connect("alice")
    bob = manager.connect("bob")
    assert manager.handshakes_performed == 2
    assert sorted(manager.active_tenants) == ["alice", "bob"]
    envelope = alice.encrypt_request(np.arange(6.0))
    # Bob's enclave endpoint holds a different session key: the AEAD tag
    # cannot verify, so cross-tenant envelopes are rejected.
    with pytest.raises(CommunicationError):
        bob.decrypt_request(envelope)


def test_request_and_response_roundtrip(enclave):
    manager = SessionManager(enclave, rng=np.random.default_rng(2))
    session = manager.connect("alice")
    x = np.random.default_rng(3).normal(size=(16,))
    recovered = session.decrypt_request(session.encrypt_request(x))
    assert np.array_equal(recovered, x)
    assert enclave.ledger.op_counts["ecall:serve_request"] == 1
    logits = np.array([0.1, 2.5, -1.0])
    assert np.array_equal(
        session.decrypt_response(session.encrypt_response(logits)), logits
    )


def test_wrong_enclave_identity_is_refused():
    rogue = Enclave(code_identity="trojaned-enclave", seed=0)
    manager = SessionManager(
        rogue, expected_code_identity="darknight-enclave-v1"
    )
    with pytest.raises(AttestationError):
        manager.connect("alice")
    assert manager.handshakes_performed == 0
    assert manager.active_tenants == []
