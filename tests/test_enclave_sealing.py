"""Tests for sealing and the untrusted blob store."""

import dataclasses

import numpy as np
import pytest

from repro.enclave import Sealer, UntrustedStore, measure_enclave
from repro.enclave.crypto import Envelope
from repro.errors import SealingError


@pytest.fixture()
def sealer(nprng):
    return Sealer(b"platform-root-key", measure_enclave("enclave-v1"), nprng)


def test_seal_unseal_roundtrip(sealer, nprng):
    arr = nprng.normal(size=(4, 7))
    blob = sealer.seal(arr, label=b"gradients")
    assert np.array_equal(sealer.unseal(blob), arr)


def test_wrong_enclave_cannot_unseal(sealer, nprng):
    arr = nprng.normal(size=(3,))
    blob = sealer.seal(arr)
    other = Sealer(b"platform-root-key", measure_enclave("evil-enclave"), nprng)
    with pytest.raises(SealingError):
        other.unseal(blob)


def test_wrong_platform_cannot_unseal(sealer, nprng):
    arr = nprng.normal(size=(3,))
    blob = sealer.seal(arr)
    other = Sealer(b"different-fuse-key!", sealer.measurement, nprng)
    with pytest.raises(SealingError):
        other.unseal(blob)


def test_store_evict_reload_accounting(sealer, nprng):
    store = UntrustedStore()
    blob = sealer.seal(nprng.normal(size=(16,)))
    store.evict("w1", blob)
    got = store.reload("w1")
    assert got is blob
    assert np.array_equal(sealer.unseal(got), sealer.unseal(blob))


def test_store_missing_key(sealer):
    store = UntrustedStore()
    with pytest.raises(SealingError):
        store.reload("missing")


def test_store_drop_and_keys(sealer, nprng):
    store = UntrustedStore()
    store.evict("a", sealer.seal(nprng.normal(size=(2,))))
    store.evict("b", sealer.seal(nprng.normal(size=(2,))))
    store.drop("a")
    with pytest.raises(SealingError):
        store.reload("a")
    assert store.reload("b") is not None
    store.drop("a")  # idempotent


def test_adversarial_tamper_is_caught(sealer, nprng):
    store = UntrustedStore()
    store.evict("w", sealer.seal(nprng.normal(size=(8,))))
    blob = store.reload("w")
    flipped = bytes([blob.ciphertext.data[0] ^ 0xFF]) + blob.ciphertext.data[1:]
    store.evict("w", Envelope(
        ciphertext=dataclasses.replace(blob.ciphertext, data=flipped),
        dtype=blob.dtype,
        shape=blob.shape,
    ))
    with pytest.raises(SealingError):
        sealer.unseal(store.reload("w"))


def test_label_binding(sealer, nprng):
    arr = nprng.normal(size=(4,))
    blob = sealer.seal(arr, label=b"vb0")
    # Re-wrapping with a different label must fail authentication.
    from repro.enclave.crypto import Ciphertext, Envelope

    forged = Envelope(
        ciphertext=Ciphertext(
            nonce=blob.ciphertext.nonce,
            data=blob.ciphertext.data,
            tag=blob.ciphertext.tag,
            aad=b"vb1",
        ),
        dtype=blob.dtype,
        shape=blob.shape,
    )
    with pytest.raises(SealingError):
        sealer.unseal(forged)
