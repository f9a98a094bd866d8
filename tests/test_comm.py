"""Tests for the link model and secure channels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Envelope, LinkModel, SecureChannel
from repro.errors import CommunicationError, ConfigurationError
from repro.perf.devices import LinkProfile


def test_default_link_is_40gbps():
    """The paper's 40 Gbps link is priced in one place: the analytical
    model's profile (the link model only counts bytes)."""
    assert LinkProfile().bytes_per_s == 5e9
    assert [f.name for f in dataclasses.fields(LinkModel)] == ["total_bytes"]


def test_transfer_logging_and_totals():
    link = LinkModel()
    link.transfer("enclave", "gpu0", 1000)
    link.transfer("gpu0", "enclave", 500)
    assert link.total_bytes == 1500
    assert not hasattr(link, "records")  # a running total, no per-transfer log


@settings(max_examples=50, deadline=None)
@given(
    warm_up=st.lists(st.integers(0, 10**7), max_size=3),
    count=st.integers(0, 40),
    nbytes=st.integers(0, 10**8),
)
def test_transfer_many_is_count_transfers_bit_for_bit(warm_up, count, nbytes):
    many, one_by_one = LinkModel(), LinkModel()
    for link in (many, one_by_one):
        for n in warm_up:
            link.transfer("enclave", "gpu0", n)
    many.transfer_many(count, nbytes)
    for j in range(count):
        one_by_one.transfer("enclave", f"gpu{j}", nbytes)
    assert many == one_by_one
    with pytest.raises(ConfigurationError):
        many.transfer_many(2, -1)


def test_link_validation():
    with pytest.raises(ConfigurationError):
        LinkModel().transfer("enclave", "gpu0", -5)


def test_secure_channel_roundtrip(nprng):
    link = LinkModel()
    tee, gpu = SecureChannel.establish_pair("enclave", "gpu0", link, nprng)
    payload = nprng.normal(size=(4, 4))
    env = tee.send_array(payload)
    assert np.array_equal(gpu.recv_array(env), payload)
    # Handshake (2x32B) + the envelope crossed the link.
    assert link.total_bytes >= 64 + env.nbytes


def test_secure_channel_detects_tamper(nprng):
    link = LinkModel()
    tee, gpu = SecureChannel.establish_pair("enclave", "gpu0", link, nprng)
    env = tee.send_array(np.ones(8))
    ct = env.ciphertext
    bad = Envelope(
        ciphertext=type(ct)(
            nonce=ct.nonce, data=b"\x00" + ct.data[1:], tag=ct.tag, aad=ct.aad
        ),
        dtype=env.dtype,
        shape=env.shape,
    )
    with pytest.raises(CommunicationError):
        gpu.recv_array(bad)


def test_third_party_cannot_read(nprng):
    link = LinkModel()
    tee, _gpu = SecureChannel.establish_pair("enclave", "gpu0", link, nprng)
    _, eve = SecureChannel.establish_pair("enclave", "eve", link, nprng)
    env = tee.send_array(np.ones(4))
    with pytest.raises(CommunicationError):
        eve.recv_array(env)
