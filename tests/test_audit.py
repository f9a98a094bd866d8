"""Unit tests for the verifiable audit-trail package core.

Covers the Merkle layer (roots, O(log n) proofs, odd-promotion,
domain separation), canonical serialization (platform-stable array and
JSON digests), window commitments, the per-shard hash chain (tamper
detection at every layer, JSONL persistence, damaged-log recovery), the
tenant proof surface, and deterministic window replay — including the
ISSUE's edge cases: empty windows, single-request windows, proofs
checked against the wrong shard root, truncated/corrupted logs, and
replay of a window whose original run used adaptive K.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    EMPTY_ROOT,
    STATUS_RETRIED,
    AuditLog,
    InclusionProof,
    MerkleProof,
    MerkleTree,
    WindowCommitment,
    array_digest,
    array_from_canonical,
    canonical_json_bytes,
    genesis_root,
    leaf_digest,
    prove,
    replay_window,
    verify_proof,
)
from repro.audit.commitment import hashed_leaf, persisted_leaf
from repro.errors import AuditError


def _leaves(n):
    return [leaf_digest(f"leaf-{i}".encode()) for i in range(n)]


def _request(rid, tenant="t0", dim=4):
    rng = np.random.default_rng(rid)
    return SimpleNamespace(
        request_id=rid, tenant=tenant, x=rng.normal(size=dim), arrival_time=0.1 * rid
    )


def _batch(batch_id, rids, tenant="t0", retries=0, dim=4):
    return SimpleNamespace(
        batch_id=batch_id,
        requests=[_request(r, tenant=tenant, dim=dim) for r in rids],
        flush_time=1.0 + batch_id,
        retries=retries,
    )


def _flip_hex(digest):
    """Return the digest with its first nibble flipped."""
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def _on_disk(entry):
    """An in-memory entry as its log line holds it: each stored input
    array becomes its canonical base64 record."""
    return {**entry, "leaves": [persisted_leaf(leaf) for leaf in entry["leaves"]]}


# ----------------------------------------------------------------------
# Merkle trees
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13])
def test_every_leaf_proves_and_verifies(n):
    tree = MerkleTree(_leaves(n))
    for i in range(n):
        proof = tree.prove(i)
        assert proof.root() == tree.root
        assert len(proof.path) <= math.ceil(math.log2(n)) if n > 1 else not proof.path


def test_single_leaf_root_is_the_leaf():
    leaves = _leaves(1)
    assert MerkleTree(leaves).root == leaves[0]


def test_empty_tree_has_the_distinguished_empty_root():
    tree = MerkleTree([])
    assert tree.root == EMPTY_ROOT
    with pytest.raises(AuditError):
        tree.prove(0)


def test_flipped_root_or_forged_path_breaks_the_proof():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(0, [_batch(0, range(5))], [np.ones((5, 3))], status="ok")
    )
    record = prove(log, 2).to_record()
    assert verify_proof(InclusionProof.from_record(record), log.chain_root)
    assert not verify_proof(InclusionProof.from_record(record), _flip_hex(log.chain_root))
    forged = json.loads(json.dumps(record))
    forged["merkle"]["leaf"] = _flip_hex(forged["merkle"]["leaf"])
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)
    forged = json.loads(json.dumps(record))
    forged["merkle"]["path"][0]["sibling"] = _flip_hex(forged["merkle"]["path"][0]["sibling"])
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)


def test_odd_promotion_is_not_duplicate_hashing():
    """Promoting the odd node must differ from pairing it with itself —
    the duplicate-last-leaf trees of the naive construction collide."""
    a, b, c = _leaves(3)
    assert MerkleTree([a, b, c]).root != MerkleTree([a, b, c, c]).root


def test_sibling_order_is_committed():
    """Swapping two leaves changes the root (position is authenticated)."""
    a, b = _leaves(2)
    assert MerkleTree([a, b]).root != MerkleTree([b, a]).root


def test_proof_round_trips_through_records():
    tree = MerkleTree(_leaves(6))
    proof = tree.prove(4)
    again = MerkleProof.from_record(json.loads(json.dumps(proof.to_record())))
    assert again == proof
    assert again.root() == tree.root


def test_malformed_proof_step_side_fails_closed():
    log = _filled_log(n_windows=2)
    record = prove(log, 1).to_record()
    record["merkle"]["path"][0]["side"] = "up"
    assert not verify_proof(InclusionProof.from_record(record), log.chain_root)


def test_out_of_range_proof_index_raises():
    with pytest.raises(AuditError):
        MerkleTree(_leaves(3)).prove(3)


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------
def _window_of(x):
    """A one-request window committing ``x`` as the request's input."""
    request = SimpleNamespace(request_id=0, tenant="t0", x=x, arrival_time=0.0)
    batch = SimpleNamespace(batch_id=0, requests=[request], flush_time=1.0, retries=0)
    return WindowCommitment.build(0, [batch], [None], status="ok")


def test_committed_inputs_round_trip_and_widen():
    for arr in [
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.arange(4, dtype=np.int32),
        np.array([True, False]),
        np.float64(3.5) * np.ones((1,)),
    ]:
        (leaf,) = _window_of(arr).leaves
        assert leaf["input"] is arr  # stored in memory as served, not copied
        record = persisted_leaf(leaf)["input"]
        assert record["dtype"] in ("<f8", "<i8")
        assert leaf["input_digest"] == array_digest(arr)
        back = array_from_canonical(record)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr.astype(back.dtype))
        assert array_digest(back) == leaf["input_digest"]


def test_exotic_dtypes_are_refused():
    with pytest.raises(AuditError):
        array_digest(np.array(["a", "b"]))
    with pytest.raises(AuditError):
        _window_of(np.array(["a", "b"]))


def test_array_digest_separates_shape_and_value():
    flat = np.arange(6, dtype=float)
    assert array_digest(flat) != array_digest(flat.reshape(2, 3))
    assert array_digest(flat) == array_digest(flat.copy())
    bumped = flat.copy()
    bumped[3] = np.nextafter(bumped[3], np.inf)
    assert array_digest(flat) != array_digest(bumped)


def test_integer_and_float_arrays_never_collide():
    assert array_digest(np.arange(4)) != array_digest(np.arange(4, dtype=float))


# ----------------------------------------------------------------------
# window commitments
# ----------------------------------------------------------------------
def test_commitment_commits_inputs_and_outputs_per_leaf():
    batch = _batch(0, [0, 1], tenant="alice")
    out = np.ones((2, 3))
    c = WindowCommitment.build(0, [batch], [out], status="ok")
    assert [leaf["request_id"] for leaf in c.leaves] == [0, 1]
    for i, leaf in enumerate(c.leaves):
        assert leaf["tenant"] == "alice"
        assert leaf["input_digest"] == array_digest(batch.requests[i].x)
        assert leaf["output_digest"] == array_digest(out[i])
        assert leaf["input"] is batch.requests[i].x
        assert np.array_equal(
            array_from_canonical(persisted_leaf(leaf)["input"]), batch.requests[i].x
        )
        assert "input" not in hashed_leaf(leaf) and "input_digest" in hashed_leaf(leaf)
    meta = c.meta(window_id=7)
    assert meta["window_id"] == 7
    assert meta["n_requests"] == 2
    assert not meta["aborted"]


def test_commitment_without_outputs_marks_leaves_output_free():
    c = WindowCommitment.build(
        1, [_batch(0, [5])], [None], status="retried", aborted=True, error="boom"
    )
    assert c.leaves[0]["output_digest"] is None
    assert c.meta()["aborted"]


def test_commitment_shape_mismatches_raise():
    batch = _batch(0, [0, 1])
    with pytest.raises(AuditError):
        WindowCommitment.build(0, [batch], [], status="ok")
    with pytest.raises(AuditError):
        WindowCommitment.build(0, [batch], [np.ones((3, 2))], status="ok")


def test_empty_window_commits_the_empty_root():
    c = WindowCommitment.build(0, [], [], status="ok")
    assert MerkleTree([leaf_digest(b) for b in c.canonical_leaf_blobs()]).root == EMPTY_ROOT
    assert c.leaves == []


# ----------------------------------------------------------------------
# the chained log
# ----------------------------------------------------------------------
def _filled_log(shard_id=0, n_windows=3, path=None):
    log = AuditLog(shard_id, path)
    for w in range(n_windows):
        batch = _batch(w, [2 * w, 2 * w + 1])
        out = np.full((2, 3), float(w))
        log.append(WindowCommitment.build(shard_id, [batch], [out], status="ok"))
    return log


def test_chain_head_moves_and_verifies():
    log = _filled_log(n_windows=3)
    assert log.chain_root != genesis_root(0)
    assert log.verify_chain() == 3
    assert [e["meta"]["window_id"] for e in log.entries] == [0, 1, 2]


def test_empty_log_head_is_genesis_and_distinct_per_shard():
    assert AuditLog(0).chain_root == genesis_root(0)
    assert genesis_root(0) != genesis_root(1)


def test_log_rejects_foreign_shard_commitments():
    log = AuditLog(0)
    with pytest.raises(AuditError):
        log.append(WindowCommitment.build(1, [], [], status="ok"))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: e["leaves"][0].__setitem__("tenant", "mallory"),
        lambda e: e.__setitem__("merkle_root", _flip_hex(e["merkle_root"])),
        lambda e: e.__setitem__("prev_root", _flip_hex(e["prev_root"])),
        lambda e: e.__setitem__("chain_root", _flip_hex(e["chain_root"])),
        lambda e: e["meta"].__setitem__("status", "forged"),
        lambda e: e["meta"].__setitem__("window_id", 9),
        lambda e: e["leaves"][0].__setitem__("input", e["leaves"][0]["input"] + 1e-9),
        lambda e: e["leaves"][0].__setitem__(
            "input_digest", _flip_hex(e["leaves"][0]["input_digest"])
        ),
        lambda e: e["leaves"][1].pop("input"),
        lambda e: e["meta"].__setitem__("schema", 1),
        lambda e: e["meta"].__setitem__("n_requests", 3),
    ],
    ids=[
        "leaf", "merkle_root", "prev_root", "chain_root", "meta", "window_id",
        "stored_input", "input_digest", "input_dropped", "schema", "n_requests",
    ],
)
def test_any_tamper_breaks_verify_chain(mutate):
    log = _filled_log(n_windows=3)
    mutate(log.entries[1])
    with pytest.raises(AuditError):
        log.verify_chain()


def test_dropping_a_middle_window_breaks_the_chain():
    log = _filled_log(n_windows=3)
    del log.entries[1]
    with pytest.raises(AuditError):
        log.verify_chain()


def test_persisted_log_loads_back_identically(tmp_path):
    path = tmp_path / "shard0.audit.jsonl"
    log = _filled_log(path=path, n_windows=4)
    loaded = AuditLog.load(path)
    assert loaded.shard_id == 0
    assert loaded.entries == [_on_disk(entry) for entry in log.entries]
    assert loaded.chain_root == log.chain_root
    assert loaded.verify_chain() == 4


def test_load_of_missing_or_corrupt_log_raises(tmp_path):
    with pytest.raises(AuditError):
        AuditLog.load(tmp_path / "nope.jsonl")
    path = tmp_path / "bad.jsonl"
    _filled_log(path=path, n_windows=2)
    text = path.read_text().replace('"tenant":"t0"', '"tenant":"t1"', 1)
    path.write_text(text)
    with pytest.raises(AuditError):
        AuditLog.load(path)


def test_recover_keeps_the_valid_prefix_of_a_truncated_log(tmp_path):
    path = tmp_path / "torn.jsonl"
    full = _filled_log(path=path, n_windows=3)
    lines = path.read_text().splitlines()
    # A crash mid-append: the final line is half-written.
    path.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n")
    log, dropped = AuditLog.recover(path)
    assert dropped == 1
    assert log.n_windows == 2
    assert log.verify_chain() == 2
    assert log.entries == [_on_disk(entry) for entry in full.entries[:2]]


def test_recover_stops_at_corruption_not_just_malformed_json(tmp_path):
    """A syntactically valid but chain-breaking line (tampered leaf) must
    also end recovery — damage cannot resurrect as a different history."""
    path = tmp_path / "evil.jsonl"
    full = _filled_log(path=path, n_windows=3)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"tenant":"t0"', '"tenant":"mallory"', 1)
    path.write_text("\n".join(lines) + "\n")
    log, dropped = AuditLog.recover(path)
    assert (log.n_windows, dropped) == (1, 2)
    assert log.verify_chain() == 1
    assert log.entries == [_on_disk(full.entries[0])]


def test_reading_a_log_recomputes_one_merkle_root_per_window(tmp_path, monkeypatch):
    """Each line is checked against the chain value before it, once: an
    n-window log costs n trees to load, not the n(n+1)/2 of re-verifying
    every prefix."""
    from repro.audit import log as log_module

    path = tmp_path / "long.jsonl"
    _filled_log(path=path, n_windows=12)
    built = []

    class CountingTree(MerkleTree):
        def __init__(self, leaves):
            built.append(len(leaves))
            super().__init__(leaves)

    monkeypatch.setattr(log_module, "MerkleTree", CountingTree)
    assert AuditLog.load(path).n_windows == 12
    assert len(built) == 12
    built.clear()
    assert AuditLog.recover(path)[1] == 0
    assert len(built) == 12


def test_recover_of_empty_file_is_an_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    log, dropped = AuditLog.recover(path, shard_id=3)
    assert (log.n_windows, dropped) == (0, 0)
    assert log.chain_root == genesis_root(3)


# ----------------------------------------------------------------------
# inclusion proofs against the chained root
# ----------------------------------------------------------------------
def test_every_request_proves_against_the_chain_head():
    log = _filled_log(n_windows=4)
    for rid in range(8):
        proof = prove(log, rid)
        assert verify_proof(proof, log.chain_root)
        assert proof.leaf["request_id"] == rid


def test_proof_fails_against_the_wrong_shard_root():
    log = _filled_log(shard_id=0, n_windows=2)
    other = _filled_log(shard_id=1, n_windows=2)
    proof = prove(log, 1)
    assert verify_proof(proof, log.chain_root)
    assert not verify_proof(proof, other.chain_root)
    assert not verify_proof(proof, genesis_root(0))
    assert not verify_proof(proof, _flip_hex(log.chain_root))


def test_single_request_window_proof_has_an_empty_path():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(0, [_batch(0, [42])], [np.ones((1, 3))], status="ok")
    )
    proof = prove(log, 42)
    assert proof.merkle.path == ()
    assert verify_proof(proof, log.chain_root)


def test_tampered_leaf_or_suffix_breaks_the_proof():
    log = _filled_log(n_windows=3)
    record = prove(log, 0).to_record()  # window 0 -> non-empty suffix
    assert len(record["chain_suffix"]) == 2
    forged = json.loads(json.dumps(record))
    forged["leaf"]["tenant"] = "mallory"
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)
    forged = json.loads(json.dumps(record))
    forged["chain_suffix"][1]["merkle_root"] = _flip_hex(
        forged["chain_suffix"][1]["merkle_root"]
    )
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)
    forged = json.loads(json.dumps(record))
    forged["window_meta"]["status"] = "forged"
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)


def test_prove_prefers_the_terminal_leaf_over_retry_markers():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(
            0, [_batch(0, [7])], [None], status=STATUS_RETRIED, aborted=True
        )
    )
    log.append(
        WindowCommitment.build(
            0, [_batch(0, [7], retries=1)], [np.ones((1, 3))], status="ok"
        )
    )
    proof = prove(log, 7)
    assert proof.window_id == 1
    assert proof.leaf["status"] == "ok"
    assert verify_proof(proof, log.chain_root)


def test_prove_falls_back_to_a_retry_marker_when_nothing_terminal():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(
            0, [_batch(0, [7])], [None], status=STATUS_RETRIED, aborted=True
        )
    )
    proof = prove(log, 7)
    assert proof.leaf["status"] == STATUS_RETRIED
    assert verify_proof(proof, log.chain_root)


def test_prove_unknown_request_raises():
    with pytest.raises(AuditError):
        prove(_filled_log(), 999)


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def _net(seed=0):
    from repro.nn import Dense, ReLU, Sequential

    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _served_log(dk, n_requests=8, seed=3):
    """Serve a small trace with auditing on; returns (server, report)."""
    from repro.serving import AuditConfig, PrivateInferenceServer, ServingConfig
    from repro.serving import synthetic_trace

    config = ServingConfig(darknight=dk, audit=AuditConfig())
    server = PrivateInferenceServer(_net(), config)
    trace = synthetic_trace(n_requests, (16,), n_tenants=2, seed=seed)
    return server, server.serve_trace(trace)


def test_replay_reproduces_committed_digests_bit_exactly():
    from repro.runtime import DarKnightConfig

    dk = DarKnightConfig(virtual_batch_size=4, seed=11)
    server, _ = _served_log(dk)
    log = server.audit.logs[0]
    for entry in log.entries:
        result = replay_window(entry, _net(), server.darknight)
        assert result.matched and not result.mismatches


def test_replay_detects_a_forged_output_digest():
    from repro.runtime import DarKnightConfig

    dk = DarKnightConfig(virtual_batch_size=4, seed=11)
    server, _ = _served_log(dk)
    entry = json.loads(json.dumps(_on_disk(server.audit.logs[0].entries[0])))
    entry["leaves"][0]["output_digest"] = _flip_hex(
        entry["leaves"][0]["output_digest"]
    )
    with pytest.raises(AuditError):
        replay_window(entry, _net(), server.darknight)
    result = replay_window(entry, _net(), server.darknight, strict=False)
    assert not result.matched
    assert len(result.mismatches) == 1


def test_replay_of_adaptive_k_window_uses_the_effective_config():
    """A deployment whose adaptive governor clamped K must replay from
    the manifest's *effective* config — per-sample normalization makes
    the digests independent of the K actually used, and the recorded
    config keeps provisioning well-formed."""
    from repro.runtime import DarKnightConfig
    from repro.serving import (
        AuditConfig,
        PrivateInferenceServer,
        ServingConfig,
        synthetic_trace,
    )

    dk = DarKnightConfig(
        virtual_batch_size=8, seed=11, epc_budget_bytes=2_500
    )
    config = ServingConfig(
        darknight=dk,
        audit=AuditConfig(),
        adaptive=True,
    )
    server = PrivateInferenceServer(_net(), config)
    assert server.darknight.virtual_batch_size < 8  # the clamp happened
    report = server.serve_trace(synthetic_trace(12, (16,), n_tenants=3, seed=5))
    assert len(report.completed) == 12
    log = server.audit.logs[0]
    replayed = 0
    for entry in log.entries:
        result = replay_window(entry, _net(), server.darknight)
        assert result.matched
        replayed += result.n_requests
    assert replayed == 12


def test_replay_refuses_windows_without_outputs():
    from repro.runtime import DarKnightConfig

    entry = {
        "meta": {"window_id": 0, "shard_id": 0, "status": STATUS_RETRIED},
        "leaves": WindowCommitment.build(
            0, [_batch(0, [1], dim=16)], [None], status=STATUS_RETRIED
        ).leaves,
    }
    with pytest.raises(AuditError):
        replay_window(entry, _net(), DarKnightConfig(seed=0))


def test_replay_refuses_empty_windows():
    from repro.runtime import DarKnightConfig

    entry = {"meta": {"window_id": 0, "shard_id": 0}, "leaves": []}
    with pytest.raises(AuditError):
        replay_window(entry, _net(), DarKnightConfig(seed=0))


def _spliced_leaf(tenant, arrival, output, request_id=7, batch_id=3, status="ok", retries=2):
    """Commit one request through :meth:`WindowCommitment.build` and return
    its leaf with the hand-spliced bytes of its hashed part."""
    request = SimpleNamespace(
        request_id=request_id, tenant=tenant, x=np.arange(6.0), arrival_time=arrival
    )
    batch = SimpleNamespace(
        batch_id=batch_id, requests=[request], flush_time=0.0, retries=retries
    )
    rows = None if output is None else np.full((1, 3), output)
    c = WindowCommitment.build(0, [batch], [rows], status=status)
    return c.leaves[0], c.leaf_blobs[0]


def test_hand_spliced_leaf_blob_matches_the_generic_encoder():
    """The hot-path leaf splice must stay byte-identical to
    ``canonical_json_bytes`` of the hashed leaf for every value shape a
    leaf can carry — exotic tenants, repr-edge floats, missing outputs."""
    for tenant, arrival, output in [
        ("t0", 0.0, 1.0),
        ('we"ird\\ten\nant', 0.1 + 0.2, None),
        ("unicode-é中", 1e-300, -0.0),
        ("x", 123456789.987654321, None),
        ("y", 5e-324, float("inf")),
        ("z", float("inf"), 2.5),
        ("w", -1e308, None),
    ]:
        leaf, blob = _spliced_leaf(tenant, arrival, output)
        assert blob == canonical_json_bytes(hashed_leaf(leaf))


def test_entry_lines_on_disk_match_a_generic_json_dump(tmp_path):
    """The spliced JSONL line must parse back to exactly the in-memory
    entry with its inputs as records (and re-dump identically), or
    recovery tooling would diverge."""
    log = _filled_log(0, 3, tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for line, entry in zip(lines, log.entries):
        assert json.loads(line) == _on_disk(entry)
        assert line == json.dumps(_on_disk(entry), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# the chain's building blocks
# ----------------------------------------------------------------------
def test_every_entry_links_its_predecessor_by_chain_hash():
    import hashlib

    from repro.audit import chain_hash

    log = _filled_log(n_windows=3)
    prev = genesis_root(0)
    for entry in log.entries:
        assert entry["prev_root"] == prev
        meta_digest = hashlib.sha256(canonical_json_bytes(entry["meta"])).hexdigest()
        assert entry["chain_root"] == chain_hash(prev, entry["merkle_root"], meta_digest)
        prev = entry["chain_root"]
    assert prev == log.chain_root


def test_chain_hash_binds_each_of_its_three_inputs():
    from repro.audit import chain_hash

    a, b, c = _leaves(3)
    link = chain_hash(a, b, c)
    assert link == chain_hash(a, b, c)
    others = {chain_hash(b, a, c), chain_hash(a, c, b), chain_hash(_flip_hex(a), b, c)}
    assert link not in others and len(others) == 3


def test_digest_json_ignores_key_order_but_not_values():
    from repro.audit import digest_json

    assert digest_json({"a": 1, "b": [1, 2]}) == digest_json({"b": [1, 2], "a": 1})
    assert digest_json({"a": 1}) != digest_json({"a": 2})
    assert digest_json([1, 2]) != digest_json([2, 1])
    assert len(digest_json({})) == 64


def test_commitment_leaf_digests_are_the_merkle_leaves():
    batch = _batch(0, range(5))
    c = WindowCommitment.build(0, [batch], [np.ones((5, 3))], status="ok")
    digests = [leaf_digest(blob) for blob in c.canonical_leaf_blobs()]
    tree = MerkleTree(digests)
    assert len(tree.leaves) == len(c.leaves) == 5
    assert digests == [
        leaf_digest(canonical_json_bytes(hashed_leaf(leaf))) for leaf in c.leaves
    ]


def test_each_shard_persists_to_its_own_log_file():
    from repro.audit import log_filename

    names = {log_filename(s) for s in range(4)}
    assert len(names) == 4
    assert log_filename(3) == "shard3.audit.jsonl"


# ----------------------------------------------------------------------
# the compact leaf: stored inputs, splices, byte counts, schema
# ----------------------------------------------------------------------
def test_an_input_edited_in_place_in_memory_breaks_verify_chain():
    log = _filled_log(n_windows=2)
    log.entries[1]["leaves"][0]["input"][3] += 1.0  # the array the leaf stores
    with pytest.raises(AuditError, match="stored input"):
        log.verify_chain()


def test_an_input_edited_on_disk_fails_load_and_recovery_drops_it(tmp_path):
    path = tmp_path / "shard0.audit.jsonl"
    _filled_log(path=path, n_windows=3)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    data = entry["leaves"][1]["input"]["data"]
    entry["leaves"][1]["input"]["data"] = ("B" if data[0] == "A" else "A") + data[1:]
    lines[1] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AuditError, match="stored input"):
        AuditLog.load(path)
    log, dropped = AuditLog.recover(path)
    assert (log.n_windows, dropped) == (1, 2)


_HEX = st.text("0123456789abcdef", min_size=64, max_size=64)
_FLOATS = st.floats(allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    request_id=st.integers(0, 2**62),
    tenant=st.text(),
    batch_id=st.integers(0, 2**62),
    arrival=_FLOATS,
    status=st.text(),
    retries=st.integers(0, 100),
    output=st.none() | _FLOATS,
)
def test_leaf_splice_is_the_generic_encoding_of_the_hashed_leaf(
    request_id, tenant, batch_id, arrival, status, retries, output
):
    leaf, blob = _spliced_leaf(
        tenant, arrival, output, request_id=request_id, batch_id=batch_id,
        status=status, retries=retries,
    )
    assert blob == canonical_json_bytes(hashed_leaf(leaf))


@settings(max_examples=200, deadline=None)
@given(
    batch_ids=st.lists(st.integers(0, 2**62), max_size=6),
    flush_time=_FLOATS,
    status=st.text(),
    aborted=st.booleans(),
    retries=st.integers(0, 100),
    integrity=st.booleans(),
    error=st.none() | st.text(),
    config_digest=st.none() | _HEX,
    seed=st.none() | st.integers(-(2**62), 2**62),
    window_id=st.none() | st.integers(0, 2**40),
    shard_id=st.integers(0, 64),
)
def test_meta_splice_is_the_generic_encoding_of_the_meta_block(
    batch_ids, flush_time, status, aborted, retries, integrity, error,
    config_digest, seed, window_id, shard_id,
):
    from repro.audit.commitment import meta_blob

    commitment = WindowCommitment(
        shard_id=shard_id, batch_ids=batch_ids, flush_time=flush_time,
        status=status, aborted=aborted, retries=retries,
        integrity_enabled=integrity, error=error, config_digest=config_digest,
        seed=seed, window_id=window_id,
    )
    meta = commitment.meta()
    assert meta_blob(meta) == canonical_json_bytes(meta)


def _mixed_windows(shard_id=0):
    """Served, aborted, membership and empty windows, with odd shapes."""
    yield WindowCommitment.build_membership(shard_id, "provision", 0.5, {"unit": 1})
    yield WindowCommitment.build(
        shard_id, [_batch(0, [1, 2, 3], dim=7)], [np.ones((3, 2))], status="ok"
    )
    yield WindowCommitment.build(
        shard_id, [_batch(1, [4], dim=5), _batch(2, [5, 6])], [None, None],
        status=STATUS_RETRIED, aborted=True, error='boom "quoted"',
    )
    request = SimpleNamespace(
        request_id=9, tenant="t9", x=np.arange(4, dtype=np.int32), arrival_time=2.0
    )
    batch = SimpleNamespace(batch_id=3, requests=[request], flush_time=3.0, retries=1)
    yield WindowCommitment.build(shard_id, [batch], [np.zeros((1, 2))], status="ok")
    yield WindowCommitment.build(shard_id, [], [], status="ok")


def test_a_log_in_memory_counts_the_bytes_it_would_have_written(tmp_path):
    """No line is built in memory, but ``bytes_written`` is the file's size."""
    path = tmp_path / "shard0.audit.jsonl"
    in_memory, on_disk = AuditLog(0), AuditLog(0, path)
    for a, b in zip(_mixed_windows(), _mixed_windows()):
        in_memory.append(a)
        on_disk.append(b)
        assert in_memory.bytes_written == on_disk.bytes_written == path.stat().st_size
    assert in_memory.chain_root == on_disk.chain_root
    assert AuditLog.load(path).verify_chain() == 5


def test_a_proof_verifies_from_the_compact_leaf_and_the_tenants_own_input():
    log = _filled_log(n_windows=3)
    proof = prove(log, 3)
    record = json.loads(json.dumps(proof.to_record()))  # the base64 record travels
    assert verify_proof(InclusionProof.from_record(record), log.chain_root)
    own = _request(3).x  # the tenant kept the sample it sent
    compact = hashed_leaf(record["leaf"])
    for stored in (own, persisted_leaf({"input": own})["input"]):
        mine = {**record, "leaf": {**compact, "input": stored}}
        assert verify_proof(InclusionProof.from_record(mine), log.chain_root)
    other = {**record, "leaf": {**compact, "input": _request(4).x}}
    assert not verify_proof(InclusionProof.from_record(other), log.chain_root)
    bare = {**record, "leaf": compact}
    assert not verify_proof(InclusionProof.from_record(bare), log.chain_root)


def test_members_sharing_input_digests_commit_the_same_leaves():
    batches = [_batch(0, [1, 2]), _batch(1, [3])]
    outputs = [np.ones((2, 3)), np.zeros((1, 3))]
    first = WindowCommitment.build(0, batches, outputs, status="ok")
    digests = [leaf["input_digest"] for leaf in first.leaves]
    again = WindowCommitment.build(0, batches, outputs, status="ok", input_digests=digests)
    assert [hashed_leaf(leaf) for leaf in again.leaves] == [
        hashed_leaf(leaf) for leaf in first.leaves
    ]
    assert all(a["input"] is b["input"] for a, b in zip(again.leaves, first.leaves))
    assert again.canonical_leaf_blobs() == first.canonical_leaf_blobs()
    for wrong in (digests[:2], digests + digests[:1]):
        with pytest.raises(AuditError, match="input digests"):
            WindowCommitment.build(0, batches, outputs, status="ok", input_digests=wrong)


_SCHEMA1 = Path(__file__).parent / "golden" / "audit_schema1"


def test_a_schema_1_trail_is_refused_naming_both_versions():
    """A trail the previous format wrote (base64 inputs inside the hashed
    leaf, no ``schema`` field) is refused, never misread."""
    from repro.audit import load_manifest

    for read in (AuditLog.load, lambda path: AuditLog.recover(path)):
        with pytest.raises(AuditError, match="schema 1.*schema 2"):
            read(_SCHEMA1 / "shard0.audit.jsonl")
    with pytest.raises(AuditError, match="schema 1.*schema 2"):
        load_manifest(_SCHEMA1)
    record = json.loads((_SCHEMA1 / "proof.json").read_text())
    with pytest.raises(AuditError, match="schema 1.*schema 2"):
        InclusionProof.from_record(record["proof"])


@pytest.mark.parametrize("n", range(14))
def test_the_commit_root_is_the_merkle_tree_root(n):
    from repro.audit.merkle import root_digest

    payloads = [f"payload-{i}".encode() for i in range(n)]
    assert root_digest(payloads).hex() == MerkleTree([leaf_digest(p) for p in payloads]).root


@pytest.mark.parametrize(
    "rows",
    [
        np.arange(12, dtype=np.int32).reshape(3, 4),
        np.arange(24.0).reshape(4, 6)[:, ::2],  # strided
        np.arange(3, dtype=np.float32),  # one value per request
        np.arange(12.0).reshape(3, 2, 2).astype(">f8"),  # big-endian
        np.zeros((3, 0)),
    ],
    ids=["int32", "strided", "scalar-rows", "big-endian", "empty-rows"],
)
def test_output_digests_are_each_rows_array_digest(rows):
    c = WindowCommitment.build(0, [_batch(0, range(len(rows)))], [rows], status="ok")
    assert [leaf["output_digest"] for leaf in c.leaves] == [array_digest(r) for r in rows]
