"""Merkle trees over canonical leaf digests, with O(log n) inclusion proofs.

The audit trail commits each flush window's request records into one
Merkle tree so a tenant can later prove "my request was in this window"
by revealing only the sibling digests along one root-to-leaf path —
``ceil(log2(n))`` hashes for an ``n``-leaf window, never the other
tenants' records.

Hashing is domain-separated SHA-256: leaves are ``H(0x00 || payload)``
and interior nodes ``H(0x01 || left || right)``, so a leaf payload can
never be confused with a concatenation of child digests (the classic
second-preimage splice).  An odd node at any level is *promoted*
unchanged rather than paired with a copy of itself, which closes the
duplicate-last-leaf malleability of the naive construction.  All digests
cross API boundaries as lowercase hex strings — the JSONL audit log and
proof files stay human-inspectable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import AuditError

#: Domain-separation prefixes (leaf vs interior node vs chain link).
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Root of a zero-leaf tree (a committed-but-empty flush window).
EMPTY_ROOT = hashlib.sha256(b"\x02darknight-audit-empty-window").hexdigest()
_EMPTY_ROOT_BYTES = bytes.fromhex(EMPTY_ROOT)


def leaf_digest(payload: bytes) -> str:
    """Digest one canonical leaf payload (domain-separated from nodes)."""
    return hashlib.sha256(_LEAF_PREFIX + payload).hexdigest()


def _node(left: str, right: str) -> str:
    return hashlib.sha256(
        _NODE_PREFIX + bytes.fromhex(left) + bytes.fromhex(right)
    ).hexdigest()


def _levels(level: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree over raw node digests, leaves first; an odd
    node is promoted unchanged, not paired with a copy of itself."""
    levels = [level]
    sha256 = hashlib.sha256
    while len(level) > 1:
        odd = level[-1] if len(level) % 2 else None
        pairs = iter(level)
        level = [sha256(_NODE_PREFIX + left + right).digest() for left, right in zip(pairs, pairs)]
        if odd is not None:
            level.append(odd)
        levels.append(level)
    return levels


def root_digest(payloads: list[bytes]) -> bytes:
    """The raw root of the tree over these payloads' leaf digests:
    ``root_digest(p).hex()`` is ``MerkleTree([leaf_digest(x) for x in
    p]).root``, without a hex round trip per node (the commit path needs
    the root only)."""
    if not payloads:
        return _EMPTY_ROOT_BYTES
    sha256 = hashlib.sha256
    return _levels([sha256(_LEAF_PREFIX + payload).digest() for payload in payloads])[-1][0]


@dataclass(frozen=True)
class ProofStep:
    """One level of an inclusion path: the sibling digest and its side."""

    sibling: str
    #: ``"left"`` when the sibling precedes the running digest.
    side: str

    def to_record(self) -> dict:
        return {"sibling": self.sibling, "side": self.side}

    @classmethod
    def from_record(cls, record: dict) -> "ProofStep":
        return cls(sibling=str(record["sibling"]), side=str(record["side"]))


@dataclass(frozen=True)
class MerkleProof:
    """A leaf's root-to-leaf authentication path within one tree.

    ``path`` holds at most ``ceil(log2(n_leaves))`` steps: levels where
    the running node was promoted unpaired contribute no step.
    """

    leaf: str
    index: int
    n_leaves: int
    path: tuple[ProofStep, ...]

    def root(self) -> str:
        """Fold the path back up to the root this proof claims."""
        digest = self.leaf
        for step in self.path:
            if step.side == "left":
                digest = _node(step.sibling, digest)
            elif step.side == "right":
                digest = _node(digest, step.sibling)
            else:
                raise AuditError(f"malformed proof step side {step.side!r}")
        return digest

    def to_record(self) -> dict:
        return {
            "leaf": self.leaf,
            "index": self.index,
            "n_leaves": self.n_leaves,
            "path": [step.to_record() for step in self.path],
        }

    @classmethod
    def from_record(cls, record: dict) -> "MerkleProof":
        return cls(
            leaf=str(record["leaf"]),
            index=int(record["index"]),
            n_leaves=int(record["n_leaves"]),
            path=tuple(ProofStep.from_record(s) for s in record["path"]),
        )


class MerkleTree:
    """A Merkle tree over an ordered list of hex leaf digests.

    The full level structure is kept (windows are small — one flush
    window's requests), so building every inclusion proof is an O(log n)
    walk with no re-hashing.
    """

    def __init__(self, leaves: list[str]) -> None:
        self.leaves = [str(leaf) for leaf in leaves]
        raw = _levels([bytes.fromhex(leaf) for leaf in self.leaves])
        self._levels: list[list[str]] = [list(self.leaves)] + [
            [node.hex() for node in level] for level in raw[1:]
        ]

    @property
    def root(self) -> str:
        """The tree root (:data:`EMPTY_ROOT` for a zero-leaf window)."""
        if not self.leaves:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Build the inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self.leaves):
            raise AuditError(
                f"leaf index {index} out of range for {len(self.leaves)} leaves"
            )
        path: list[ProofStep] = []
        i = index
        for level in self._levels[:-1]:
            sibling = i ^ 1
            if sibling < len(level):
                side = "left" if sibling < i else "right"
                path.append(ProofStep(sibling=level[sibling], side=side))
            i //= 2
        return MerkleProof(
            leaf=self.leaves[index],
            index=index,
            n_leaves=len(self.leaves),
            path=tuple(path),
        )
