"""Tests for client attestation + encrypted data provisioning (Fig. 1)."""

import numpy as np
import pytest

from repro.comm import Envelope, LinkModel
from repro.enclave import Enclave
from repro.errors import AttestationError, CommunicationError
from repro.runtime import ClientSession


@pytest.fixture()
def enclave():
    return Enclave(code_identity="darknight-enclave-v1", seed=0)


def test_connect_and_provision_roundtrip(enclave, nprng):
    session = ClientSession.connect(enclave, rng=nprng)
    x = nprng.normal(size=(4, 3, 8, 8))
    y = nprng.integers(0, 10, 4)
    got_x, got_y = session.provision(x, y)
    assert np.array_equal(got_x, x)
    assert np.array_equal(got_y, y)
    # The upload crossed the (modeled) wire and was accounted by the enclave.
    assert session.link.total_bytes > x.nbytes
    assert enclave.ledger.op_counts["ecall:client_upload"] == 1
    assert enclave.ledger.op_counts["decrypt_client_batch"] == 1


def test_client_refuses_wrong_enclave(nprng):
    evil = Enclave(code_identity="evil-enclave", seed=0)
    with pytest.raises(AttestationError):
        ClientSession.connect(evil, expected_code_identity="darknight-enclave-v1", rng=nprng)


def test_wire_carries_only_ciphertext(enclave, nprng):
    session = ClientSession.connect(enclave, rng=nprng)
    x = nprng.normal(size=(2, 4))
    batch = session.upload_batch(x, np.array([0, 1]))
    assert x.tobytes() not in batch.data.ciphertext.data


def test_tampered_upload_rejected(enclave, nprng):
    session = ClientSession.connect(enclave, rng=nprng)
    batch = session.upload_batch(nprng.normal(size=(2, 4)), np.array([0, 1]))
    ct = batch.data.ciphertext
    forged = type(batch)(
        data=Envelope(
            ciphertext=type(ct)(
                nonce=ct.nonce, data=b"\xff" + ct.data[1:], tag=ct.tag, aad=ct.aad
            ),
            dtype=batch.data.dtype,
            shape=batch.data.shape,
        ),
        labels=batch.labels,
    )
    with pytest.raises(CommunicationError):
        session.receiver.receive_batch(forged)


def test_batch_shape_validation(enclave, nprng):
    session = ClientSession.connect(enclave, rng=nprng)
    with pytest.raises(CommunicationError):
        session.upload_batch(nprng.normal(size=(3, 4)), np.array([0, 1]))


def test_custom_link_is_used(enclave, nprng):
    link = LinkModel()
    session = ClientSession.connect(enclave, link=link, rng=nprng)
    before = link.total_bytes  # the handshake crossed it
    session.upload_batch(nprng.normal(size=(2, 4)), np.array([0, 1]))
    assert before > 0 and link.total_bytes > before


def test_multiple_batches(enclave, nprng):
    session = ClientSession.connect(enclave, rng=nprng)
    for i in range(3):
        x = nprng.normal(size=(2, 4))
        got_x, _ = session.provision(x, np.array([0, 1]))
        assert np.array_equal(got_x, x)
    assert enclave.ledger.op_counts["ecall:client_upload"] == 3
