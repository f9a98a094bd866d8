"""Verifiable serving audit trail.

Turns each flush window's integrity evidence into a durable,
tamper-evident commitment: Merkle trees over per-request leaves of
input and output digests (:mod:`repro.audit.merkle`,
:mod:`repro.audit.commitment`), per-shard hash-chained JSONL logs
(:mod:`repro.audit.log`), tenant inclusion proofs verifiable offline
(:mod:`repro.audit.query`), deterministic window replay
(:mod:`repro.audit.replay`), and the serving-side trail that ties them
together (:mod:`repro.audit.trail`).
"""

from repro.audit.commitment import (
    MEMBERSHIP_KINDS,
    MEMBERSHIP_STATUS_PREFIX,
    STATUS_RETRIED,
    WindowCommitment,
    array_digest,
    array_from_canonical,
    canonical_json_bytes,
    digest_json,
)
from repro.audit.log import AuditLog, chain_hash, genesis_root
from repro.audit.merkle import (
    EMPTY_ROOT,
    MerkleProof,
    MerkleTree,
    ProofStep,
    leaf_digest,
)
from repro.audit.query import InclusionProof, prove, verify_proof
from repro.audit.replay import ReplayResult, replay_window
from repro.audit.trail import (
    AuditConfig,
    AuditTrail,
    load_manifest,
    log_filename,
    manifest_config,
)

__all__ = [
    "EMPTY_ROOT",
    "MEMBERSHIP_KINDS",
    "MEMBERSHIP_STATUS_PREFIX",
    "STATUS_RETRIED",
    "AuditConfig",
    "AuditLog",
    "AuditTrail",
    "InclusionProof",
    "MerkleProof",
    "MerkleTree",
    "ProofStep",
    "ReplayResult",
    "WindowCommitment",
    "array_digest",
    "array_from_canonical",
    "canonical_json_bytes",
    "chain_hash",
    "digest_json",
    "genesis_root",
    "leaf_digest",
    "load_manifest",
    "log_filename",
    "manifest_config",
    "prove",
    "replay_window",
    "verify_proof",
]
