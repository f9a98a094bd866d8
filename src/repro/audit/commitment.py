"""Per-window commitments: canonical digests of what the server served.

A :class:`WindowCommitment` is built once per dispatched flush window and
freezes three facts per request into one Merkle leaf:

* the request's **input** exactly as admitted (the decrypted sample the
  enclave masked), stored canonically so a disputed window can be
  re-executed from the log alone;
* the window's **integrity posture** (was Freivalds-style redundant-share
  verification on, and did the window pass or abort);
* the **decoded-output digest** — the logits the tenant was sent.

Digests must be platform-stable: the same served trace has to commit to
the same bytes on any host, or an auditor's recomputation would "detect
tampering" that is really an endianness or dtype quirk.  Canonical array
serialization therefore widens every array to a fixed-width little-endian
dtype (``<f8`` for floats, ``<i8`` for integers — both exact for the
fixed-point field values and the float64 logits this stack produces),
prefixes the dtype/shape header, and hashes the C-order bytes.  JSON
payloads are canonicalized with sorted keys and no whitespace.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AuditError

#: Leaf status marking requests whose shared window aborted and was
#: re-dispatched — their terminal leaf lives in a later window.
STATUS_RETRIED = "retried"

#: Window-status prefix marking a membership-change event (provision /
#: drain / retire) committed as a first-class chained entry on the
#: affected shard's log.
MEMBERSHIP_STATUS_PREFIX = "membership:"

#: The membership-event kinds the chain accepts.
MEMBERSHIP_KINDS = ("provision", "drain", "retire")


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------
def _widen(arr: np.ndarray) -> np.ndarray:
    """Widen to the canonical platform-stable dtype (<f8 or <i8)."""
    a = np.asarray(arr)
    if a.dtype.kind == "f":
        return a.astype("<f8")
    if a.dtype.kind in "iub":
        return a.astype("<i8")
    raise AuditError(f"cannot canonically serialize dtype {a.dtype}")


#: Digest-header cache: every request in a deployment shares one input
#: shape (and outputs one logits width), so the header is almost always
#: a dictionary hit on the serving hot path.
_HEADER_CACHE: dict[tuple, bytes] = {}


def _header_bytes(a: np.ndarray) -> bytes:
    """The digest header: canonical JSON of ``{"dtype", "shape"}``.

    Built by hand (dtype strings and shapes are plain ASCII) so the
    per-array digest skips a ``json.dumps`` on the serving hot path; the
    format is byte-identical to ``canonical_json_bytes`` of the dict.
    """
    key = (a.dtype.str, a.shape)
    header = _HEADER_CACHE.get(key)
    if header is None:
        shape = ",".join(str(int(s)) for s in a.shape)
        header = f'{{"dtype":"{a.dtype.str}","shape":[{shape}]}}'.encode("ascii")
        if len(_HEADER_CACHE) < 1024:
            _HEADER_CACHE[key] = header
    return header


def array_from_canonical(record: dict) -> np.ndarray:
    """Reconstruct the exact array a leaf's ``input`` record froze."""
    raw = base64.b64decode(record["data"])
    return np.frombuffer(raw, dtype=np.dtype(record["dtype"])).reshape(
        tuple(record["shape"])
    )


def canonical_json_bytes(obj) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def digest_json(obj) -> str:
    """SHA-256 of an object's canonical JSON encoding, as hex."""
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """Platform-stable digest of an array (header + canonical bytes)."""
    a = _widen(arr)
    raw = a.tobytes(order="C")
    return hashlib.sha256(_header_bytes(a) + b"\x00" + raw).hexdigest()


def _canonical_with_digest(arr: np.ndarray) -> tuple[dict, str]:
    """An array's canonical record and its :func:`array_digest`, in one pass.

    The commit hot path needs both; widening and ``tobytes`` happen once
    here instead of twice.
    """
    a = _widen(arr)
    raw = a.tobytes(order="C")
    record = {
        "dtype": a.dtype.str,
        "shape": [int(s) for s in a.shape],
        "data": base64.b64encode(raw).decode("ascii"),
    }
    digest = hashlib.sha256(_header_bytes(a) + b"\x00" + raw).hexdigest()
    return record, digest


#: JSON-escaped string cache (tenant names and status identifiers recur
#: on every leaf of a serving run).
_STR_CACHE: dict[str, bytes] = {}


def _json_str(s: str) -> bytes:
    blob = _STR_CACHE.get(s)
    if blob is None:
        blob = json.dumps(s, ensure_ascii=True).encode("ascii")
        if len(_STR_CACHE) < 4096:
            _STR_CACHE[s] = blob
    return blob


def _leaf_blob(leaf: dict) -> bytes:
    """Canonical bytes of one leaf, spliced by hand.

    Byte-identical to :func:`canonical_json_bytes` of the dict (keys in
    sorted order, compact separators; ``repr`` of a finite float is
    exactly json's float format) — asserted against the generic encoder
    in the test suite.  The splice exists because the generic encoder is
    the single largest cost of committing a window on the serving path.
    """
    record = leaf["input"]
    output_digest = leaf["output_digest"]
    return b"".join(
        (
            b'{"arrival_time":', repr(leaf["arrival_time"]).encode("ascii"),
            b',"batch_id":', str(leaf["batch_id"]).encode("ascii"),
            b',"input":{"data":"', record["data"].encode("ascii"),
            b'","dtype":"', record["dtype"].encode("ascii"),
            b'","shape":[', ",".join(map(str, record["shape"])).encode("ascii"),
            b']},"input_digest":"', leaf["input_digest"].encode("ascii"),
            b'","output_digest":',
            b"null" if output_digest is None else b'"%s"' % output_digest.encode("ascii"),
            b',"request_id":', str(leaf["request_id"]).encode("ascii"),
            b',"retries":', str(leaf["retries"]).encode("ascii"),
            b',"status":', _json_str(leaf["status"]),
            b',"tenant":', _json_str(leaf["tenant"]),
            b"}",
        )
    )


# ----------------------------------------------------------------------
# the per-window commitment
# ----------------------------------------------------------------------
@dataclass
class WindowCommitment:
    """Everything one flush window commits to the audit log.

    ``leaves`` are the per-request records (canonical dicts) in dispatch
    order; ``merkle_root`` is the tree over their canonical digests.  The
    window's *metadata* — ids, timing, integrity posture, abort/retry
    marks, the effective-config digest — is chained separately by the
    log, so tampering with either the leaves or the meta breaks
    verification.  ``window_id`` is assigned by the log at append time
    (it is a position in the shard's chain, not a property of the window
    itself).
    """

    shard_id: int
    batch_ids: list[int]
    flush_time: float
    status: str
    leaves: list[dict] = field(default_factory=list)
    aborted: bool = False
    retries: int = 0
    integrity_enabled: bool = False
    error: str | None = None
    config_digest: str | None = None
    seed: int | None = None
    window_id: int | None = None
    #: Canonical bytes per leaf, precomputed by :meth:`build` so the log
    #: digests and persists each leaf without re-encoding it.  Derived
    #: from ``leaves`` — stale if they are mutated afterwards.  Empty on
    #: hand-constructed commitments; consumers fall back to the generic
    #: encoder.
    leaf_blobs: list[bytes] = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        shard_id: int,
        batches: list,
        outputs_by_batch: list,
        status: str,
        aborted: bool = False,
        error: str | None = None,
        integrity_enabled: bool = False,
        config_digest: str | None = None,
        seed: int | None = None,
    ) -> "WindowCommitment":
        """Commit one dispatched window.

        ``outputs_by_batch`` carries, per scheduled batch, the decoded
        logits array (rows aligned with ``batch.requests``) — or ``None``
        for a window that aborted before decoding, whose leaves then
        commit inputs only.
        """
        if len(batches) != len(outputs_by_batch):
            raise AuditError(
                f"window commit needs one output group per batch:"
                f" {len(batches)} batches, {len(outputs_by_batch)} groups"
            )
        leaves: list[dict] = []
        blobs: list[bytes] = []
        for batch, rows in zip(batches, outputs_by_batch):
            if rows is not None and len(rows) != len(batch.requests):
                raise AuditError(
                    f"batch {batch.batch_id}: {len(rows)} output rows for"
                    f" {len(batch.requests)} requests"
                )
            for i, request in enumerate(batch.requests):
                record, input_digest = _canonical_with_digest(request.x)
                leaf = {
                    "request_id": int(request.request_id),
                    "tenant": request.tenant,
                    "batch_id": int(batch.batch_id),
                    "arrival_time": float(request.arrival_time),
                    "status": status,
                    "retries": int(batch.retries),
                    "input": record,
                    "input_digest": input_digest,
                    "output_digest": (
                        array_digest(rows[i]) if rows is not None else None
                    ),
                }
                leaves.append(leaf)
                blobs.append(_leaf_blob(leaf))
        return cls(
            shard_id=shard_id,
            batch_ids=[int(b.batch_id) for b in batches],
            flush_time=min((float(b.flush_time) for b in batches), default=0.0),
            status=status,
            leaves=leaves,
            aborted=aborted,
            retries=max((int(b.retries) for b in batches), default=0),
            integrity_enabled=integrity_enabled,
            error=error,
            config_digest=config_digest,
            seed=seed,
            leaf_blobs=blobs,
        )

    @classmethod
    def build_membership(
        cls,
        shard_id: int,
        kind: str,
        time: float,
        details: dict | None = None,
        config_digest: str | None = None,
        seed: int | None = None,
    ) -> "WindowCommitment":
        """Commit one membership-change event to a shard's chain.

        Elastic membership is audit-visible: a shard that joins
        (``provision``), winds down (``drain``), or leaves (``retire``)
        the deployment gets a first-class chained entry on its *own* log
        with status ``membership:<kind>`` and a single event leaf, so an
        auditor walking the chain sees exactly when the shard served —
        and an operator cannot silently splice a shard's service life out
        of the record.
        """
        if kind not in MEMBERSHIP_KINDS:
            raise AuditError(
                f"unknown membership event kind {kind!r}"
                f" (expected one of {list(MEMBERSHIP_KINDS)})"
            )
        leaf = {
            "event": kind,
            "shard_id": int(shard_id),
            "time": float(time),
            "status": MEMBERSHIP_STATUS_PREFIX + kind,
            "details": dict(details or {}),
        }
        return cls(
            shard_id=int(shard_id),
            batch_ids=[],
            flush_time=float(time),
            status=MEMBERSHIP_STATUS_PREFIX + kind,
            leaves=[leaf],
            config_digest=config_digest,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------
    def canonical_leaf_blobs(self) -> list[bytes]:
        """Canonical bytes per leaf (precomputed by :meth:`build`)."""
        if len(self.leaf_blobs) == len(self.leaves):
            return self.leaf_blobs
        return [canonical_json_bytes(leaf) for leaf in self.leaves]

    def meta(self, window_id: int | None = None) -> dict:
        """The chained window metadata (everything but the leaves)."""
        wid = self.window_id if window_id is None else window_id
        return {
            "window_id": wid,
            "shard_id": int(self.shard_id),
            "batch_ids": list(self.batch_ids),
            "flush_time": float(self.flush_time),
            "status": self.status,
            "aborted": bool(self.aborted),
            "retries": int(self.retries),
            "n_requests": len(self.leaves),
            "integrity": bool(self.integrity_enabled),
            "error": self.error,
            "config_digest": self.config_digest,
            "seed": self.seed,
        }
