"""Tests for the data holder's side of Fig. 1: attest the enclave, then
upload encrypted samples and labels through :class:`SessionManager`."""

import numpy as np
import pytest

from repro.comm import Envelope, LinkModel
from repro.enclave import Enclave
from repro.errors import AttestationError, CommunicationError, ConfigurationError
from repro.nn import Dense, Sequential
from repro.runtime import Trainer
from repro.serving import SessionManager


@pytest.fixture()
def enclave():
    return Enclave(seed=0)


def _connect(enclave, rng, link=None):
    return SessionManager(enclave, link=link, rng=rng).connect("client")


def _upload(session, values):
    return session.decrypt_request(session.encrypt_request(values))


def test_connect_and_provision_roundtrip(enclave, nprng):
    link = LinkModel()
    session = _connect(enclave, nprng, link)
    x = nprng.normal(size=(4, 3, 8, 8))
    y = nprng.integers(0, 10, 4)
    assert np.array_equal(_upload(session, x), x)
    assert np.array_equal(_upload(session, y), y)
    # The upload crossed the (modeled) wire and was accounted by the enclave.
    assert link.total_bytes > x.nbytes
    assert enclave.ledger.op_counts["ecall:serve_request"] == 2


def test_client_refuses_wrong_enclave(nprng):
    evil = Enclave(code_identity="evil-enclave", seed=0)
    with pytest.raises(AttestationError):
        _connect(evil, nprng)


def test_wire_carries_only_ciphertext(enclave, nprng):
    session = _connect(enclave, nprng)
    x = nprng.normal(size=(2, 4))
    envelope = session.encrypt_request(x)
    assert x.tobytes() not in envelope.ciphertext.data


def test_tampered_upload_rejected(enclave, nprng):
    session = _connect(enclave, nprng)
    envelope = session.encrypt_request(nprng.normal(size=(2, 4)))
    ct = envelope.ciphertext
    forged = Envelope(
        ciphertext=type(ct)(nonce=ct.nonce, data=b"\xff" + ct.data[1:], tag=ct.tag, aad=ct.aad),
        dtype=envelope.dtype,
        shape=envelope.shape,
    )
    with pytest.raises(CommunicationError):
        session.decrypt_request(forged)


def test_batch_shape_validation(enclave, nprng):
    """Samples and labels travel as separate requests; a row-count mismatch
    between them is refused when the enclave-side trainer is handed them."""
    session = _connect(enclave, nprng)
    x = _upload(session, nprng.normal(size=(3, 4)))
    y = _upload(session, np.array([0, 1]))
    trainer = Trainer(Sequential([Dense(4, 2, rng=nprng)], input_shape=(4,)))
    with pytest.raises(ConfigurationError, match="disagree on sample count"):
        trainer.fit(x, y, epochs=1, batch_size=2)


def test_custom_link_is_used(enclave, nprng):
    link = LinkModel()
    session = _connect(enclave, nprng, link)
    before = link.total_bytes  # the handshake crossed it
    session.encrypt_request(nprng.normal(size=(2, 4)))
    assert before > 0 and link.total_bytes > before


def test_multiple_batches(enclave, nprng):
    session = _connect(enclave, nprng)
    for _ in range(3):
        x = nprng.normal(size=(2, 4))
        assert np.array_equal(_upload(session, x), x)
        assert np.array_equal(_upload(session, np.array([0, 1])), np.array([0, 1]))
    assert enclave.ledger.op_counts["ecall:serve_request"] == 6
