"""Per-window commitments: canonical digests of what the server served.

A :class:`WindowCommitment` is built once per dispatched flush window and
freezes three facts per request into one Merkle leaf:

* the request's **input digest** — the decrypted sample the enclave
  masked, exactly as admitted;
* the window's **integrity posture** (was Freivalds-style redundant-share
  verification on, and did the window pass or abort);
* the **decoded-output digest** — the logits the tenant was sent.

The hashed leaf holds those digests and the fixed fields (ids, tenant,
arrival time, status, retries), not the input itself.  Every leaf still
*stores* its input beside them, so a disputed window can be re-executed
from the log alone: in memory the array (no copy, no encoding), on disk
and in proofs its canonical base64 record.  Whoever checks a leaf —
``verify_chain``, ``audit check-chain``, ``verify_proof``, replay —
recomputes ``input_digest`` from the stored input, so an edited input
fails as surely as an edited leaf.

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
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AuditError

#: The audit trail's format version, carried by the manifest and by every
#: window's meta block.  Version 1 (no ``schema`` field) hashed each leaf
#: over its base64 input; version 2 hashes the leaf over ``input_digest``.
SCHEMA = 2

#: Leaf status marking requests whose shared window aborted and was
#: re-dispatched — their terminal leaf lives in a later window.
STATUS_RETRIED = "retried"

#: Window-status prefix marking a membership-change event (provision /
#: drain / retire) committed as a first-class chained entry on the
#: affected shard's log.
MEMBERSHIP_STATUS_PREFIX = "membership:"

#: The membership-event kinds the chain accepts.
MEMBERSHIP_KINDS = ("provision", "drain", "retire")


class SchemaMismatch(AuditError):
    """A trail, or a part of one, written in another format version."""


def check_schema(found, where: str) -> None:
    """Refuse a trail written in another format version.

    ``found`` is the ``schema`` a manifest, meta block or proof carries
    (``None``: none, i.e. version 1).  Raises :class:`SchemaMismatch`, an
    :class:`AuditError`, naming both versions.
    """
    if found != SCHEMA:
        version = 1 if found is None else found
        raise SchemaMismatch(
            f"{where} is audit schema {version}; this build reads schema"
            f" {SCHEMA} only (re-serve the trace to audit it)"
        )


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------
#: The canonical platform-stable dtype per dtype kind.
_CANONICAL = {
    "f": np.dtype("<f8"), "i": np.dtype("<i8"), "u": np.dtype("<i8"), "b": np.dtype("<i8"),
}

#: Per ``(dtype, shape)`` layout cache: every request in a deployment
#: shares one input shape (and outputs one logits width), so this is
#: almost always a dictionary hit on the serving hot path.
_LAYOUTS: dict[tuple, tuple[np.dtype, bytes, int]] = {}


def _layout(dtype: np.dtype, shape: tuple) -> tuple[np.dtype, bytes, int]:
    """``(canonical dtype, digest prefix, record length)`` of arrays of
    one dtype and shape.

    The prefix is the canonical JSON of the widened ``{"dtype", "shape"}``
    and a NUL; the length is that of the base64 record
    :func:`canonical_json_bytes` writes, so a log that is not written can
    still count the bytes it would have held.
    """
    layout = _LAYOUTS.get((dtype, shape))
    if layout is None:
        canonical = _CANONICAL.get(dtype.kind)
        if canonical is None:
            raise AuditError(f"cannot canonically serialize dtype {dtype}")
        dims = ",".join(str(int(s)) for s in shape)
        header = f'{{"dtype":"{canonical.str}","shape":[{dims}]}}'
        record = f'{{"data":"","dtype":"{canonical.str}","shape":[{dims}]}}'
        data = 4 * -(-canonical.itemsize * math.prod(shape) // 3)  # base64 length
        layout = (canonical, header.encode("ascii") + b"\x00", len(record) + data)
        if len(_LAYOUTS) < 1024:
            _LAYOUTS[(dtype, shape)] = layout
    return layout


def _canonical_bytes(a: np.ndarray, canonical: np.dtype) -> bytes:
    """``a``'s canonical bytes: C order, widened only when it is not."""
    return (a if a.dtype is canonical else a.astype(canonical)).tobytes()


def canonical_record(arr) -> dict:
    """An array's canonical record: widened dtype, shape, base64 bytes."""
    a = np.asarray(arr)
    dtype = _layout(a.dtype, a.shape)[0]
    return {
        "dtype": dtype.str,
        "shape": [int(s) for s in a.shape],
        "data": base64.b64encode(_canonical_bytes(a, dtype)).decode("ascii"),
    }


def array_from_canonical(record: dict) -> np.ndarray:
    """Reconstruct the exact array a canonical record froze."""
    raw = base64.b64decode(record["data"])
    return np.frombuffer(raw, dtype=np.dtype(record["dtype"])).reshape(
        tuple(record["shape"])
    )


def input_array(stored) -> np.ndarray:
    """A leaf's stored input as an array: in memory it is one; read back
    from a log line or a proof it is the canonical record."""
    return array_from_canonical(stored) if isinstance(stored, dict) else np.asarray(stored)


def canonical_json_bytes(obj) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def digest_json(obj) -> str:
    """SHA-256 of an object's canonical JSON encoding, as hex."""
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def array_digest(arr) -> str:
    """Platform-stable digest of an array (header + canonical bytes)."""
    a = np.asarray(arr)
    dtype, prefix, _ = _layout(a.dtype, a.shape)
    return hashlib.sha256(prefix + _canonical_bytes(a, dtype)).hexdigest()


def _row_digests(rows) -> list[str]:
    """:func:`array_digest` of each row, hashed out of one canonical buffer."""
    if type(rows) is not np.ndarray or not rows.size:
        return [array_digest(row) for row in rows]
    dtype, prefix, _ = _layout(rows.dtype, rows.shape[1:])
    raw = _canonical_bytes(rows, dtype)
    step = len(raw) // len(rows)
    sha256 = hashlib.sha256
    return [sha256(prefix + raw[i : i + step]).hexdigest() for i in range(0, len(raw), step)]


def hashed_leaf(leaf: dict) -> dict:
    """The part of a leaf its Merkle digest covers: all but the stored input."""
    return {k: v for k, v in leaf.items() if k != "input"}


def persisted_leaf(leaf: dict) -> dict:
    """A leaf as a log line or a proof carries it: its input as the record."""
    stored = leaf.get("input")
    if stored is None or isinstance(stored, dict):
        return leaf
    return {**leaf, "input": canonical_record(stored)}


def stored_input_matches(leaf: dict) -> bool:
    """Does a request leaf's stored input hash to its ``input_digest``?
    (A missing or malformed stored input does not.)"""
    stored = leaf.get("input")
    if stored is None:
        return False
    try:
        return array_digest(input_array(stored)) == leaf["input_digest"]
    except (KeyError, TypeError, ValueError):
        return False


#: JSON-escaped string cache (tenant names and status identifiers recur
#: on every leaf of a serving run).
_STR_CACHE: dict[str, str] = {}


def _json_str(s: str | None) -> str:
    if s is None:
        return "null"
    text = _STR_CACHE.get(s)
    if text is None:
        text = json.dumps(s, ensure_ascii=True)
        if len(_STR_CACHE) < 4096:
            _STR_CACHE[s] = text
    return text


def _json_float(x: float) -> str:
    """json's float text: ``repr`` when finite (``Infinity``/``NaN`` else)."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _json_opt_int(x: int | None) -> str:
    return "null" if x is None else str(x)


def meta_blob(meta: dict) -> bytes:
    """Canonical bytes of a window's meta block, spliced by hand.

    Byte-identical to :func:`canonical_json_bytes` of the dict that
    :meth:`WindowCommitment.meta` builds (asserted in the test suite);
    verification digests the parsed dict with the generic encoder.
    """
    error = meta["error"]
    return (
        f'{{"aborted":{"true" if meta["aborted"] else "false"}'
        f',"batch_ids":[{",".join(map(str, meta["batch_ids"]))}]'
        f',"config_digest":{_json_str(meta["config_digest"])}'
        f',"error":{"null" if error is None else json.dumps(error)}'
        f',"flush_time":{_json_float(meta["flush_time"])}'
        f',"integrity":{"true" if meta["integrity"] else "false"}'
        f',"n_requests":{meta["n_requests"]}'
        f',"retries":{meta["retries"]}'
        f',"schema":{meta["schema"]}'
        f',"seed":{_json_opt_int(meta["seed"])}'
        f',"shard_id":{meta["shard_id"]}'
        f',"status":{_json_str(meta["status"])}'
        f',"window_id":{_json_opt_int(meta["window_id"])}}}'
    ).encode("ascii")


def persisted_leaf_blob(leaf: dict, blob: bytes) -> bytes:
    """A leaf's log-line bytes from its hashed blob: the stored input's
    record spliced in before ``input_digest`` (only numbers precede it)."""
    if "input" not in leaf:
        return blob
    cut = blob.index(b',"input_digest":')
    record = canonical_json_bytes(persisted_leaf(leaf)["input"])
    return b"".join((blob[:cut], b',"input":', record, blob[cut:]))


# ----------------------------------------------------------------------
# the per-window commitment
# ----------------------------------------------------------------------
@dataclass
class WindowCommitment:
    """Everything one flush window commits to the audit log.

    ``leaves`` are the per-request records in dispatch order, each
    storing its input beside the digests; ``merkle_root`` is the tree over
    the canonical digests of their hashed parts (:func:`hashed_leaf`).  The
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
    #: Canonical bytes of each leaf's hashed part, precomputed by
    #: :meth:`build` so the log digests each leaf without re-encoding it.
    #: Derived from ``leaves`` — stale if they are mutated afterwards.
    #: Empty on hand-constructed commitments; consumers fall back to the
    #: generic encoder.
    leaf_blobs: list[bytes] = field(default_factory=list, repr=False, compare=False)
    #: What the stored inputs add to the leaves of the persisted line (the
    #: ``"input"`` key and each base64 record), counted by :meth:`build`
    #: so that a log kept in memory can count the line it does not build.
    stored_bytes: int = field(default=0, repr=False, compare=False)

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
        input_digests: list[str] | None = None,
    ) -> "WindowCommitment":
        """Commit one dispatched window.

        ``outputs_by_batch`` carries, per scheduled batch, the decoded
        logits array (rows aligned with ``batch.requests``) — or ``None``
        for a window that aborted before decoding, whose leaves then
        commit inputs only.  ``input_digests``, one per request in
        dispatch order, are digests an earlier commit of the same window
        already computed (every member of a ``layered:N`` unit commits
        the same inputs); absent, each input is digested here.
        """
        if len(batches) != len(outputs_by_batch):
            raise AuditError(
                f"window commit needs one output group per batch:"
                f" {len(batches)} batches, {len(outputs_by_batch)} groups"
            )
        # Each leaf's hashed part is spliced by hand, byte-identical to
        # canonical_json_bytes(hashed_leaf(leaf)) (keys in sorted order,
        # compact separators; asserted in the test suite): the generic
        # encoder would be the largest cost of a commit.
        sha256 = hashlib.sha256
        isfinite = math.isfinite
        json_strs = _STR_CACHE
        status_json = _json_str(status)
        leaves: list[dict] = []
        blobs: list[bytes] = []
        batch_ids: list[int] = []
        flush_time = math.inf
        window_retries = stored_bytes = 0
        shared = None if input_digests is None else iter(input_digests)
        for batch, rows in zip(batches, outputs_by_batch):
            requests = batch.requests
            if rows is None:
                outputs = [None] * len(requests)
            elif len(rows) != len(requests):
                raise AuditError(
                    f"batch {batch.batch_id}: {len(rows)} output rows for"
                    f" {len(requests)} requests"
                )
            else:
                outputs = _row_digests(rows)
            batch_id, retries = int(batch.batch_id), int(batch.retries)
            batch_ids.append(batch_id)
            flush_time = min(flush_time, float(batch.flush_time))
            window_retries = max(window_retries, retries)
            for request, output_digest in zip(requests, outputs):
                x = request.x
                if type(x) is not np.ndarray:
                    x = np.asarray(x)
                dtype, prefix, record_bytes = _layout(x.dtype, x.shape)
                stored_bytes += record_bytes
                if shared is None:
                    input_digest = sha256(prefix + _canonical_bytes(x, dtype)).hexdigest()
                else:
                    input_digest = next(shared, None)
                    if input_digest is None:
                        raise AuditError("window commit got fewer input digests than requests")
                request_id = int(request.request_id)
                arrival_time = float(request.arrival_time)
                tenant = request.tenant
                leaves.append(
                    {
                        "request_id": request_id,
                        "tenant": tenant,
                        "batch_id": batch_id,
                        "arrival_time": arrival_time,
                        "status": status,
                        "retries": retries,
                        "input": x,
                        "input_digest": input_digest,
                        "output_digest": output_digest,
                    }
                )
                output = "null" if output_digest is None else f'"{output_digest}"'
                arrival = (
                    repr(arrival_time) if isfinite(arrival_time) else _json_float(arrival_time)
                )
                blobs.append(
                    f'{{"arrival_time":{arrival},"batch_id":{batch_id}'
                    f',"input_digest":"{input_digest}","output_digest":{output}'
                    f',"request_id":{request_id},"retries":{retries}'
                    f',"status":{status_json}'
                    f',"tenant":{json_strs.get(tenant) or _json_str(tenant)}}}'
                    .encode("ascii")
                )
        if shared is not None and next(shared, None) is not None:
            raise AuditError("window commit got more input digests than requests")
        return cls(
            shard_id=shard_id,
            batch_ids=batch_ids,
            flush_time=flush_time if batch_ids else 0.0,
            status=status,
            leaves=leaves,
            aborted=aborted,
            retries=window_retries,
            integrity_enabled=integrity_enabled,
            error=error,
            config_digest=config_digest,
            seed=seed,
            leaf_blobs=blobs,
            stored_bytes=stored_bytes + len(b',"input":') * len(leaves),
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
        """Canonical bytes of each leaf's hashed part (precomputed by
        :meth:`build`)."""
        if len(self.leaf_blobs) == len(self.leaves):
            return self.leaf_blobs
        return [canonical_json_bytes(hashed_leaf(leaf)) for leaf in self.leaves]

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
            "schema": SCHEMA,
        }
