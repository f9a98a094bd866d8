"""Every sealed byte is the one the per-call-nonce commit produced.

Session nonces and key-exchange secrets are drawn through a
:class:`~repro.enclave.ByteStream` — by the block, ahead of use — so the
thing to pin down is that no consumer's bytes moved: ``golden/
session_envelopes.json`` was recorded at the commit before the stream
existed, when every nonce was its own ``Generator.bytes(12)``, through the
public constructors only (``rng=np.random.default_rng(...)``).  Each entry
is the SHA-256 of one envelope's ``nonce || data || tag``; session keys
come out of the same byte stream (the DH secrets), so a digest also pins
the handshake draws that precede it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.comm import LinkModel, SecureChannel
from repro.enclave import Enclave, Sealer, measure_enclave
from repro.runtime.client import ClientSession
from repro.serving import SessionManager
from repro.sharding.partition import open_activations, seal_activations

GOLDEN = Path(__file__).parent / "golden" / "session_envelopes.json"


def _digest(ciphertext) -> str:
    return hashlib.sha256(ciphertext.nonce + ciphertext.data + ciphertext.tag).hexdigest()


def _sessions() -> dict:
    """Three tenants on one manager, the third handshaking mid-trace."""
    link = LinkModel()
    manager = SessionManager(Enclave(seed=7), link=link, rng=np.random.default_rng(2026))
    payloads = np.random.default_rng(5)
    digests: list[str] = []

    def round_trip(session, n_values: int) -> None:
        x = payloads.normal(size=(n_values,))
        request = session.encrypt_request(x)
        assert np.array_equal(session.decrypt_request(request), x)
        y = payloads.normal(size=(10,))
        response = session.encrypt_response(y)
        assert np.array_equal(session.decrypt_response(response), y)
        digests.extend([_digest(request.ciphertext), _digest(response.ciphertext)])

    alice, bob = manager.connect("alice"), manager.connect("bob")
    late: list = []
    for i in range(25):
        if i == 5:
            late.append(manager.connect("carol"))
        # 80 B and 1,536 B requests: one on each side of the XOR crossover.
        n_values = 10 if i % 2 == 0 else 192
        for session in ([alice, bob] if i < 20 else []) + late:
            round_trip(session, n_values)
    assert [s.requests_served for s in (alice, bob, late[0])] == [20, 20, 20]
    return {
        "envelopes": digests,
        "handshakes": manager.handshakes_performed,
        "link_bytes": link.total_bytes,
    }


def _hops() -> dict:
    """Four sealed activation hand-offs over one keyed hop."""
    link = LinkModel()
    tx, rx = SecureChannel.establish_pair("shard0", "shard1", link, np.random.default_rng(11))
    values = np.random.default_rng(12)
    digests = []
    for _ in range(4):
        live = {3: values.normal(size=(4, 8)), 0: values.normal(size=(4, 2, 3, 3))}
        sealed = seal_activations(tx, live)
        opened = open_activations(rx, sealed)
        assert all(np.array_equal(opened[step], live[step]) for step in live)
        digests.extend(_digest(env.ciphertext) for _, env in sealed.envelopes)
    return {"envelopes": digests, "link_bytes": link.total_bytes}


def _sealer() -> dict:
    """Three blobs from a standalone sealer; then an enclave's sealer, whose
    generator the coefficient sampler also draws from — the field draws
    between two blobs are part of what must not move."""
    sealer = Sealer(
        b"platform-root-key", measure_enclave("enclave-v1"), np.random.default_rng(21)
    )
    values = np.random.default_rng(22)
    blobs = []
    for n_values, label in ((5, b""), (64, b"grad/0"), (300, b"grad/1")):
        array = values.normal(size=(n_values,))
        blob = sealer.seal(array, label)
        assert np.array_equal(sealer.unseal(blob), array)
        blobs.append(_digest(blob.ciphertext))
    enclave = Enclave(seed=23)
    interleaved = []
    for key in ("a", "b", "c"):
        blob = enclave.seal_and_evict(key, values.normal(size=(9,)), label=key.encode())
        interleaved.append(_digest(blob.ciphertext))
        interleaved.append(enclave.rng.uniform((3,)).tolist())
    return {"blobs": blobs, "enclave_interleaved": interleaved}


def _client() -> dict:
    """Two uploaded batches over ``runtime/client.py``'s channel."""
    link = LinkModel()
    session = ClientSession.connect(Enclave(seed=31), link=link, rng=np.random.default_rng(32))
    values = np.random.default_rng(33)
    digests = []
    for n_rows in (4, 16):
        x, y = values.normal(size=(n_rows, 12)), values.integers(0, 10, size=n_rows)
        batch = session.upload_batch(x, y)
        got_x, got_y = session.receiver.receive_batch(batch)
        assert np.array_equal(got_x, x) and np.array_equal(got_y, y)
        digests.extend([_digest(batch.data.ciphertext), _digest(batch.labels.ciphertext)])
    return {"envelopes": digests, "link_bytes": link.total_bytes}


def _observe() -> dict:
    return {
        "sessions": _sessions(),
        "hops": _hops(),
        "sealer": _sealer(),
        "client": _client(),
    }


def test_envelopes_match_the_per_call_nonce_golden():
    """120 session envelopes (a tenant joining after 5 rounds of the other
    two), 8 hop envelopes, 3 + 3 sealed blobs (the enclave's interleaved
    with field draws) and 4 client-upload envelopes, plus the link bytes
    they charged, as recorded before nonces were drawn by the block."""
    golden = json.loads(GOLDEN.read_text())
    observed = _observe()
    assert len(observed["sessions"]["envelopes"]) == 120
    assert observed == golden
