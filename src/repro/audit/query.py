"""Tenant-facing audit queries: inclusion proofs verifiable offline.

``prove(request_id)`` extracts, from one shard's chained log, everything
a tenant needs to convince a third party that their request was served in
a committed window — without revealing any other tenant's records:

* the tenant's own leaf record (their input/output digests and status)
  with the stored input as its canonical record, which the verifier
  re-digests against ``input_digest``;
* the O(log n) Merkle path from that leaf to the window's root;
* the window metadata and the chain value *before* the window;
* the ``(merkle_root, meta_digest)`` pair of every *later* window, so the
  verifier can fold the chain forward to the shard's published head.

``verify_proof`` is a pure function over the proof record and the shard
root — it imports nothing from the serving stack and touches no files,
so it can run on the tenant's side against a head the operator published
out-of-band.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.commitment import (
    STATUS_RETRIED,
    canonical_json_bytes,
    check_schema,
    digest_json,
    hashed_leaf,
    persisted_leaf,
    stored_input_matches,
)
from repro.audit.log import AuditLog, chain_hash
from repro.audit.merkle import MerkleProof, MerkleTree, leaf_digest
from repro.errors import AuditError


@dataclass(frozen=True)
class InclusionProof:
    """One request's offline-verifiable membership proof.

    ``chain_suffix`` lists ``{"merkle_root", "meta_digest"}`` for every
    window after the proven one, oldest first; folding them onto the
    proven window's chain value must land exactly on the shard head.
    """

    shard_id: int
    window_id: int
    leaf: dict
    merkle: MerkleProof
    window_meta: dict
    prev_root: str
    chain_suffix: tuple[dict, ...]

    def to_record(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "window_id": self.window_id,
            "leaf": self.leaf,
            "merkle": self.merkle.to_record(),
            "window_meta": self.window_meta,
            "prev_root": self.prev_root,
            "chain_suffix": list(self.chain_suffix),
        }

    @classmethod
    def from_record(cls, record: dict) -> "InclusionProof":
        """Read a proof back; one written in another format is refused."""
        check_schema(record["window_meta"].get("schema"), "the proof")
        return cls(
            shard_id=int(record["shard_id"]),
            window_id=int(record["window_id"]),
            leaf=dict(record["leaf"]),
            merkle=MerkleProof.from_record(record["merkle"]),
            window_meta=dict(record["window_meta"]),
            prev_root=str(record["prev_root"]),
            chain_suffix=tuple(dict(s) for s in record["chain_suffix"]),
        )


def prove(log: AuditLog, request_id: int) -> InclusionProof:
    """Build the inclusion proof for a request's terminal leaf.

    A request that aborted with its shared window and was re-dispatched
    appears in several windows; the *terminal* occurrence (the newest
    leaf whose status is not ``"retried"``) is the one proved.  If every
    occurrence is a retry marker the newest marker is proved — the
    tenant can still show the request entered the log.
    """
    request_id = int(request_id)
    best: tuple[int, int] | None = None
    fallback: tuple[int, int] | None = None
    for w in range(len(log.entries) - 1, -1, -1):
        for i, leaf in enumerate(log.entries[w]["leaves"]):
            # Membership-event leaves carry no request id; skip them.
            if leaf.get("request_id") != request_id:
                continue
            if leaf["status"] != STATUS_RETRIED:
                best = (w, i)
                break
            if fallback is None:
                fallback = (w, i)
        if best is not None:
            break
    found = best if best is not None else fallback
    if found is None:
        raise AuditError(
            f"request {request_id} does not appear in shard"
            f" {log.shard_id}'s audit log"
        )
    w, i = found
    entry = log.entries[w]
    tree = MerkleTree(
        [
            leaf_digest(canonical_json_bytes(hashed_leaf(leaf)))
            for leaf in entry["leaves"]
        ]
    )
    return InclusionProof(
        shard_id=log.shard_id,
        window_id=w,
        leaf=persisted_leaf(entry["leaves"][i]),
        merkle=tree.prove(i),
        window_meta=entry["meta"],
        prev_root=entry["prev_root"],
        chain_suffix=tuple(
            {
                "merkle_root": later["merkle_root"],
                "meta_digest": digest_json(later["meta"]),
            }
            for later in log.entries[w + 1 :]
        ),
    )


def verify_proof(proof: InclusionProof, shard_root: str) -> bool:
    """True when ``proof`` authenticates against a shard's chain head.

    Checks, in order: a request leaf's stored input hashes to its
    ``input_digest``; the leaf's hashed part hashes to the proof's Merkle
    leaf; the Merkle path folds to a window root; that root chains onto
    ``prev_root`` under the window metadata; and the chain suffix folds
    from there exactly onto ``shard_root``.  Any flipped bit anywhere in
    that pipeline returns ``False``.  The stored input may be the
    canonical record or the tenant's own array.
    """
    try:
        leaf = proof.leaf
        if "input_digest" in leaf and not stored_input_matches(leaf):
            return False
        if leaf_digest(canonical_json_bytes(hashed_leaf(leaf))) != proof.merkle.leaf:
            return False
        chain = chain_hash(
            proof.prev_root, proof.merkle.root(), digest_json(proof.window_meta)
        )
        for later in proof.chain_suffix:
            chain = chain_hash(chain, later["merkle_root"], later["meta_digest"])
        return chain == shard_root
    except (AuditError, KeyError, TypeError, ValueError):
        return False
