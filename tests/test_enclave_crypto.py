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


#: length -> (nonce, data or sha256(data) for the long one, tag), recorded from
#: the byte-at-a-time XOR this replaced: key ``bytes(range(32))``, rng seed
#: 20260930, messages encrypted in this order on one ``StreamAead``.
_GOLDEN = {
    0: ("af1a699519a7d86a5ff75677", "", "a3e697e0cc452072a8b065d56bb80438"),
    1: ("e51cd95d0b3ce0c1c4ed914d", "8c", "fc022f0117b515eb27c4afa10da306fe"),
    63: (
        "6e891bcbdb286454d793015f",
        "8d2d701df8a15064c734cb58281ae1b4955db0ac205ffeb86dd1fd0f6941f0c2"
        "db78fad277410fbb859a1036134fee05322d758a27cc89d25ad477fa72da7e",
        "783098cdab3cf48acf7d2477895e2a80",
    ),
    64: (
        "732b4228f334267903f22f63",
        "4535b3d5a0b96942bfe86f6595e30f91e5371e4881fd174c40984065e5386a36"
        "be8d2036f4fc0ad481654ae48b5c360863484a0a0fa1227c1195dee12ed4b26b",
        "264ae4555cece44a33502cb77ff776e9",
    ),
    65: (
        "7b02fb8b710d2ab16edcdbb2",
        "c3eb275a46ff16ba789497a26acd2d6345b285097f91e6991e51bd6604c3645f"
        "aa290f230169487c4d66fdfe0236fc7e2ca7ab2622b65022629ef04c9c5c5761"
        "28",
        "39c665421f4297e87289ecec80bd0188",
    ),
    1000: (
        "7d545ebf88e5cfbd8d3125d0",
        "sha256:86619b3ac49909545b028b183b61804c166f756bc6bedc8007fd22b60cc6e70a",
        "0af65fe5e01078d30d79d3fd46861df6",
    ),
    # A serve-tiny-plain request's size (96 blocks), recorded from the
    # hash-rekeyed-per-block keystream the keyed-once one replaced.
    6144: (
        "3f04c4aae264cb97a857b5af",
        "sha256:989f13fc9a9f332681eb2ad5aabeba4983870b41a5b1c90a065932b3a5a1ce2d",
        "8b63006c10fd0cd362088b902a351b84",
    ),
}


def test_aead_golden_vectors_roundtrip_and_tamper():
    """Whole-buffer XOR: every ciphertext byte and tag is what the per-byte
    loop produced (block boundaries at 63/64/65), and the tag check still
    guards data, tag and aad."""
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
    data, meta = array_to_bytes(arr)
    back = bytes_to_array(data, meta)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)
