"""Tests for the attestation simulation."""

import pytest

from repro.enclave import DEFAULT_CODE_IDENTITY, AttestationService, Enclave, measure_enclave
from repro.errors import AttestationError


def test_measurement_deterministic():
    assert measure_enclave("code-v1") == measure_enclave(b"code-v1")
    assert measure_enclave("code-v1") != measure_enclave("code-v2")


def test_quote_verifies_for_expected_code():
    svc = AttestationService(b"platform-key-16bytes")
    m = measure_enclave("darknight-enclave")
    quote = svc.quote(m, report_data=b"session-42")
    assert svc.verify(quote, expected_measurement=m)


def test_wrong_measurement_rejected():
    svc = AttestationService(b"platform-key-16bytes")
    quote = svc.quote(measure_enclave("evil"))
    with pytest.raises(AttestationError, match="measurement mismatch"):
        svc.verify(quote, expected_measurement=measure_enclave("darknight-enclave"))


def test_forged_signature_rejected():
    svc = AttestationService(b"platform-key-16bytes")
    other = AttestationService(b"different-key-16byte")
    m = measure_enclave("darknight-enclave")
    quote = other.quote(m)  # signed by the wrong platform
    with pytest.raises(AttestationError, match="signature"):
        svc.verify(quote, expected_measurement=m)


def test_report_data_bound_to_signature():
    svc = AttestationService(b"platform-key-16bytes")
    m = measure_enclave("e")
    quote = svc.quote(m, report_data=b"a")
    forged = type(quote)(measurement=m, report_data=b"b", signature=quote.signature)
    with pytest.raises(AttestationError):
        svc.verify(forged, expected_measurement=m)


def test_short_platform_key_rejected():
    with pytest.raises(AttestationError):
        AttestationService(b"short")


def test_every_default_expects_the_identity_a_default_enclave_measures():
    """One code identity: a default enclave and shard measure
    ``DEFAULT_CODE_IDENTITY``, and a shard mesh, a session manager and a
    serving config expect it."""
    import numpy as np

    from repro.nn import Dense, Sequential
    from repro.runtime import DarKnightConfig
    from repro.serving import ServingConfig, SessionManager
    from repro.sharding import AttestationMesh, EnclaveShard

    expected = measure_enclave(DEFAULT_CODE_IDENTITY)
    enclave = Enclave(seed=0)
    assert enclave.measurement == expected
    assert SessionManager(enclave).expected_measurement == expected
    net = Sequential([Dense(8, 4, rng=np.random.default_rng(0))], (8,))
    shard = EnclaveShard.provision(0, net, DarKnightConfig(virtual_batch_size=2, seed=0))
    assert shard.enclave.measurement == expected
    assert AttestationMesh([shard]).expected_measurement == expected
    assert ServingConfig().code_identity == DEFAULT_CODE_IDENTITY
