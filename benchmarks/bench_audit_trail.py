"""Verifiable audit trail: commit overhead, provability, tamper exhibit.

The audit trail turns each flush window's integrity checks into a
durable commitment: leaves (canonical inputs + decoded-output digests)
under a Merkle root, roots chained per shard, inclusion proofs
verifiable offline against the chain head.  This benchmark prices that
on the paper's serving configuration and demonstrates the detection
properties end to end.

Acceptance (asserted below):

* on the 1k-request integrity trace (K=4, 2 shards, redundant-share
  integrity on), committing every window costs <5% of the audited run's
  host wall time, and served logits are bit-identical with the trail
  disabled;
* every completed request yields an inclusion proof with an O(log n)
  path that verifies offline against its shard's chain head — and
  against no other shard's head;
* flipping one committed byte breaks ``verify_chain``; flipping the
  published head breaks every proof; replay reproduces every window's
  committed output digests bit-exactly.
"""

import json
import math
import time

import numpy as np
from conftest import show

from repro.audit import (
    AuditConfig,
    AuditLog,
    load_manifest,
    manifest_config,
    prove,
    replay_window,
    verify_proof,
)
from repro.cli import build_serving_model
from repro.reporting import render_table
from repro.runtime import DarKnightConfig
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace

INPUT_SHAPE = (16,)
K = 4
NUM_SHARDS = 2
#: Host-side commit budget: the audit trail may spend at most this
#: fraction of the audited run's wall clock building + chaining windows.
COMMIT_BUDGET = 0.05


def _trace(n: int):
    return synthetic_trace(
        n, INPUT_SHAPE, n_tenants=6, mean_interarrival=1e-4, seed=0
    )


def _server(n: int, audit: AuditConfig | None):
    dk = DarKnightConfig(
        virtual_batch_size=K, seed=0, num_shards=NUM_SHARDS, integrity=True
    )
    network, input_shape = build_serving_model("tiny", seed=0)
    assert input_shape == INPUT_SHAPE
    return PrivateInferenceServer(
        network,
        ServingConfig(darknight=dk, queue_capacity=2 * n, audit=audit),
    )


def test_commit_overhead_and_full_provability(benchmark, capsys, quick):
    """<5% host-side commit cost; every request provable in O(log n)."""
    n = 200 if quick else 1000
    trace = _trace(n)

    def run_both():
        t0 = time.perf_counter()
        plain_report = _server(n, audit=None).serve_trace(trace)
        plain_wall = time.perf_counter() - t0
        audited = _server(n, audit=AuditConfig())
        t0 = time.perf_counter()
        audited_report = audited.serve_trace(trace)
        audited_wall = time.perf_counter() - t0
        return plain_report, plain_wall, audited, audited_report, audited_wall

    plain_report, plain_wall, audited, report, audited_wall = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    trail = audited.audit
    commit_frac = trail.commit_seconds / audited_wall

    # Disabled trail is bit-identical: same logits for every request.
    audited_logits = {o.request_id: o.logits for o in report.completed}
    assert len(plain_report.completed) == len(report.completed) == n
    for outcome in plain_report.completed:
        assert np.array_equal(outcome.logits, audited_logits[outcome.request_id])

    # Every completed request proves against its shard's chain head,
    # with a Merkle path logarithmic in its window's width.
    roots = trail.chain_roots()
    proved = 0
    max_path = 0
    for outcome in report.completed:
        for sid, log in trail.logs.items():
            try:
                proof = prove(log, outcome.request_id)
            except Exception:
                continue
            assert verify_proof(proof, roots[sid])
            width = proof.window_meta["n_requests"]
            bound = max(1, math.ceil(math.log2(width))) if width > 1 else 0
            assert len(proof.merkle.path) <= bound
            max_path = max(max_path, len(proof.merkle.path))
            proved += 1
    assert proved == n

    show(
        capsys,
        render_table(
            ["metric", "value"],
            [
                ["requests", n],
                ["windows committed", trail.windows_committed],
                ["leaves committed", trail.leaves_committed],
                ["log bytes", f"{trail.bytes_written:,}"],
                ["commit time ms", f"{trail.commit_seconds * 1e3:.1f}"],
                ["commit share of wall", f"{commit_frac * 100:.2f}%"],
                ["wall ratio audited/plain", f"{audited_wall / plain_wall:.3f}"],
                ["max proof path", max_path],
                ["proofs verified", proved],
            ],
            title=(
                f"Audit trail — integrity trace (K={K},"
                f" {NUM_SHARDS} shards, budget {COMMIT_BUDGET:.0%})"
            ),
        ),
    )
    assert trail.leaves_committed == n
    assert trail.verify() == trail.windows_committed
    assert commit_frac < COMMIT_BUDGET, (
        f"audit commits consumed {commit_frac:.1%} of the audited wall"
        f" (budget {COMMIT_BUDGET:.0%})"
    )


def test_tamper_detection_exhibit(capsys, quick, tmp_path):
    """One flipped byte anywhere — leaf, root, or head — is detected."""
    n = 48 if quick else 192
    server = _server(n, audit=AuditConfig(log_dir=str(tmp_path), model="tiny"))
    report = server.serve_trace(_trace(n))
    assert len(report.completed) == n
    head = server.audit.logs[0].chain_root
    proof = prove(server.audit.logs[0], server.audit.logs[0].entries[0]["leaves"][0]["request_id"])
    rows = []

    # 1. Pristine log: chain walks, proof verifies.
    clean = AuditLog.load(tmp_path / "shard0.audit.jsonl")
    rows.append(["pristine chain", f"{clean.verify_chain()} windows OK"])
    assert verify_proof(proof, head)
    rows.append(["pristine proof", "verifies"])

    # 2. Flip one committed input byte on disk: verify_chain detects it.
    path = tmp_path / "shard0.audit.jsonl"
    lines = path.read_text().splitlines()
    entry = json.loads(lines[0])
    data = entry["leaves"][0]["input"]["data"]
    entry["leaves"][0]["input"]["data"] = ("B" if data[0] == "A" else "A") + data[1:]
    lines[0] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    try:
        AuditLog.load(path)
        detected = False
    except Exception as exc:
        detected = "Merkle" in str(exc) or "root" in str(exc)
    assert detected, "strict load must reject the flipped byte"
    # Recovery keeps nothing: the flip is in window 0, so every later
    # chained window is orphaned with it.
    recovered, dropped = AuditLog.recover(path, shard_id=0)
    assert recovered.n_windows == 0 and dropped == len(lines)
    rows.append(["flipped input byte", "chain walk rejects window 0"])

    # 3. A forged head invalidates every honest proof.
    forged = head[:1] + ("0" if head[1] != "0" else "1") + head[2:]
    assert not verify_proof(proof, forged)
    rows.append(["forged chain head", "all proofs fail"])

    show(capsys, render_table(["tamper scenario", "outcome"], rows,
                              title="Audit trail — tamper detection"))


def test_replay_reproduces_every_committed_window(capsys, quick):
    """Deterministic replay: recomputed output digests match bit-exactly."""
    n = 48 if quick else 192
    server = _server(n, audit=AuditConfig())
    report = server.serve_trace(_trace(n))
    assert len(report.completed) == n
    network, _ = build_serving_model("tiny", seed=0)
    replayed = matched_requests = 0
    for log in server.audit.logs.values():
        for entry in log.entries:
            if any(leaf["output_digest"] is None for leaf in entry["leaves"]):
                continue
            result = replay_window(entry, network, server.darknight)
            assert result.matched
            replayed += 1
            matched_requests += result.n_requests
    assert replayed == server.audit.windows_committed
    assert matched_requests == n
    show(
        capsys,
        render_table(
            ["metric", "value"],
            [["windows replayed", replayed], ["requests re-verified", matched_requests]],
            title="Audit trail — deterministic window replay",
        ),
    )


def test_manifest_pins_the_effective_config(tmp_path):
    """The persisted manifest reprovisions the exact serving posture."""
    n = 24
    server = _server(n, audit=AuditConfig(log_dir=str(tmp_path), model="tiny"))
    server.serve_trace(_trace(n))
    manifest = load_manifest(tmp_path)
    effective = manifest_config(manifest)
    assert effective == server.darknight
