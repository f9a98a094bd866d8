"""Tests for the toy AEAD, key exchange and serialisation helpers."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave import (
    ByteStream,
    DiffieHellman,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
    derive_key,
)
from repro.enclave.crypto import _XOR_BIGINT_MAX, _xor
from repro.errors import CommunicationError


def test_derive_key_deterministic_and_distinct():
    k1 = derive_key(b"a", b"b")
    k2 = derive_key(b"a", b"b")
    k3 = derive_key(b"ab", b"")  # length-prefixing prevents concat collisions
    assert k1 == k2
    assert k1 != k3
    assert len(k1) == 32


def test_aead_roundtrip(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    plaintext = b"the quick brown fox" * 10
    ct = aead.encrypt(plaintext, aad=b"header")
    assert ct.data != plaintext
    assert aead.decrypt(ct) == plaintext


def test_aead_detects_ciphertext_tamper(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    ct = aead.encrypt(b"hello world")
    bad = type(ct)(nonce=ct.nonce, data=b"X" + ct.data[1:], tag=ct.tag, aad=ct.aad)
    with pytest.raises(CommunicationError):
        aead.decrypt(bad)


def test_aead_detects_aad_tamper(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    ct = aead.encrypt(b"hello", aad=b"v1")
    bad = type(ct)(nonce=ct.nonce, data=ct.data, tag=ct.tag, aad=b"v2")
    with pytest.raises(CommunicationError):
        aead.decrypt(bad)


#: length -> (nonce, data or sha256(data) for the long ones, tag), recorded
#: from the one-call SHAKE256 keystream: key ``bytes(range(32))``, rng seed
#: 20260930, messages encrypted in this order on one ``StreamAead``.  The
#: nonces are the ones the per-block BLAKE2b keystream's vectors had (the
#: nonce stream did not move); 63/64/65 were that keystream's block edges.
_GOLDEN = {
    0: ("af1a699519a7d86a5ff75677", "", "a3e697e0cc452072a8b065d56bb80438"),
    1: ("e51cd95d0b3ce0c1c4ed914d", "aa", "4eea71f7d2de6b55cb4a5a59b720440b"),
    63: (
        "6e891bcbdb286454d793015f",
        "120d3ab506debffacd31c385dd4e65ae2772956777aba901cc5c126aa5aad94d"
        "1e632ee320b1afeefc0275a59d9fd57879590e2f42cd9743c67f07d0d238a7",
        "fa4e9ecf11d74435770b672928d180e4",
    ),
    64: (
        "732b4228f334267903f22f63",
        "d56900f02e86e7b81afff676f02c5e779360ca2f8336afe91b4cb9ec0c030d50"
        "5bd23a99ec888144d5e902d1ac2c40b5b2a8bf820e45644fcd4330fde687d7ef",
        "5cadfe6fe1847714760f3e037204c79d",
    ),
    65: (
        "7b02fb8b710d2ab16edcdbb2",
        "bdd640515c5e48b55d70fbe7ffe4a72c536756d8a7a4badf91912471402b6591"
        "7ed4f9538014a753b02887d4fe5c33e5dff6bc5234c2b7103ade21d7e17fb04a"
        "8e",
        "ba24752c58b6fe193dceee1a5e3d606d",
    ),
    1000: (
        "7d545ebf88e5cfbd8d3125d0",
        "sha256:d46933cbfa15c5a3cc15ccea26098a9bd3c3ec3ecf98b1f59da41a7544fa7d16",
        "5555cfac245bd83039e057008a17ba70",
    ),
    6144: (
        "3f04c4aae264cb97a857b5af",
        "sha256:384bc0e98397bf6cb70557025d200435f036650a5522065a9bf9fd95df59f3a1",
        "580f6c1ab693ff12142bbe17777fcdb2",
    ),
}


def test_aead_golden_vectors_roundtrip_and_tamper():
    """Every ciphertext byte and tag is the recorded one (the keystream is
    one SHAKE256 output, XORed over the whole buffer), and the tag check
    still guards data, tag and aad."""
    aead = StreamAead(bytes(range(32)), np.random.default_rng(20260930))
    for length, (nonce, data, tag) in _GOLDEN.items():
        plaintext = bytes((7 * i + 3) % 256 for i in range(length))
        ct = aead.encrypt(plaintext, aad=b"hdr-%d" % length)
        got = ct.data.hex()
        if data.startswith("sha256:"):
            got = "sha256:" + hashlib.sha256(ct.data).hexdigest()
        assert (ct.nonce.hex(), got, ct.tag.hex()) == (nonce, data, tag)
        assert aead.decrypt(ct) == plaintext
        flipped = [
            ("tag", bytes([ct.tag[0] ^ 1]) + ct.tag[1:]),
            ("tag", ct.tag[:8]),
            ("aad", bytes([ct.aad[0] ^ 1]) + ct.aad[1:]),
            ("nonce", ct.nonce[:-1] + bytes([ct.nonce[-1] ^ 1])),
        ]
        if length:
            flipped.append(("data", ct.data[:-1] + bytes([ct.data[-1] ^ 0x80])))
        for field_name, value in flipped:
            with pytest.raises(CommunicationError):
                aead.decrypt(dataclasses.replace(ct, **{field_name: value}))


def test_xor_matches_the_bytewise_loop_on_both_sides_of_the_crossover():
    """``_xor`` goes through big ints up to ``_XOR_BIGINT_MAX`` bytes and
    through numpy above; every length 0..1024 (so the crossover and its
    neighbours) equals the per-byte loop."""
    assert 0 < _XOR_BIGINT_MAX < 1024
    rng = np.random.default_rng(0)
    data, stream = rng.bytes(1024), rng.bytes(1024)
    for length in range(1025):
        want = bytes(a ^ b for a, b in zip(data[:length], stream[:length]))
        assert _xor(data[:length], stream[:length]) == want, length
    # Leading zero bytes survive the integer round trip.
    assert _xor(b"\x00\x00\x07", b"\x00\x00\x07") == b"\x00\x00\x00"


# ----------------------------------------------------------------------
# ByteStream: the generator's bytes, drawn by the block
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    takes=st.lists(st.integers(1, 40), min_size=1, max_size=80),
    block_bytes=st.sampled_from([0, 4, 16, 64, 256, ByteStream.BLOCK_BYTES]),
)
def test_byte_stream_takes_are_generator_bytes_calls(seed, takes, block_bytes):
    """Any sequence of ``take(n)`` is the same sequence of
    ``Generator.bytes(n)`` on an equally seeded generator — across refills
    (small blocks force one every few takes) and for takes that are not a
    multiple of the 4-byte word ``bytes`` draws in."""
    stream = ByteStream(np.random.default_rng(seed), block_bytes=block_bytes)
    reference = np.random.default_rng(seed)
    for n in takes:
        assert stream.take(n) == reference.bytes(n)
    assert stream.take(0) == b""
    assert stream.take(13) == reference.bytes(13)


def test_byte_stream_default_block_refills_mid_nonce_stream():
    """12- and 32-byte takes (nonces and DH secrets) across three refills
    of the default block."""
    stream, reference = ByteStream(np.random.default_rng(5)), np.random.default_rng(5)
    sizes = [32, 32] + [12] * 1100
    assert sum(sizes) > 3 * ByteStream.BLOCK_BYTES
    assert all(stream.take(n) == reference.bytes(n) for n in sizes)


def test_byte_stream_without_look_ahead_leaves_the_generator_in_step():
    """``block_bytes=0`` draws exactly each take's words, so a generator
    with other consumers (an enclave's: coefficients and noise) stays
    where per-call ``bytes`` would have left it."""
    shared, reference = np.random.default_rng(8), np.random.default_rng(8)
    stream = ByteStream(shared, block_bytes=0)
    for n in (12, 7, 32, 12):
        assert stream.take(n) == reference.bytes(n)
        assert np.array_equal(shared.integers(0, 2**25, size=5), reference.integers(0, 2**25, size=5))
        assert shared.uniform() == reference.uniform()


def test_byte_stream_rejects_bad_sizes():
    for block_bytes in (-4, 6):
        with pytest.raises(CommunicationError):
            ByteStream(np.random.default_rng(0), block_bytes=block_bytes)
    with pytest.raises(CommunicationError):
        ByteStream(np.random.default_rng(0)).take(-1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.lists(st.booleans(), min_size=1, max_size=50))
def test_ciphers_sharing_a_stream_interleave_like_ciphers_sharing_a_generator(seed, order):
    """Two ciphers on one stream draw their nonces, in whatever order they
    encrypt, exactly as two ciphers calling ``bytes(12)`` on one shared
    generator did."""
    stream = ByteStream(np.random.default_rng(seed))
    ciphers = {
        False: StreamAead(derive_key(b"tenant a"), stream),
        True: StreamAead(derive_key(b"tenant b"), stream),
    }
    reference = np.random.default_rng(seed)
    for which in order:
        assert ciphers[which].encrypt(b"payload").nonce == reference.bytes(12)


def test_aead_nonces_fresh_per_message(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    a = aead.encrypt(b"same plaintext")
    b = aead.encrypt(b"same plaintext")
    assert a.nonce != b.nonce
    assert a.data != b.data


def test_aead_rejects_short_key():
    with pytest.raises(CommunicationError):
        StreamAead(b"short")


def test_ciphertext_nbytes(nprng):
    aead = StreamAead(derive_key(b"k"), nprng)
    ct = aead.encrypt(b"12345678", aad=b"aa")
    assert ct.nbytes == len(ct.nonce) + len(ct.data) + len(ct.tag) + len(ct.aad)


def test_dh_agreement(nprng):
    alice = DiffieHellman(nprng)
    bob = DiffieHellman(nprng)
    assert alice.shared_key(bob.public) == bob.shared_key(alice.public)


def test_dh_distinct_sessions(nprng):
    a1, b1 = DiffieHellman(nprng), DiffieHellman(nprng)
    a2, b2 = DiffieHellman(nprng), DiffieHellman(nprng)
    assert a1.shared_key(b1.public) != a2.shared_key(b2.public)


def test_dh_rejects_bad_public(nprng):
    with pytest.raises(CommunicationError):
        DiffieHellman(nprng).shared_key(1)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.int32])
def test_array_serialisation_roundtrip(dtype, nprng):
    arr = (nprng.normal(size=(3, 4, 5)) * 100).astype(dtype)
    data, dtype_str, shape = array_to_bytes(arr)
    assert shape == arr.shape
    back = bytes_to_array(data, dtype_str, shape)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)
