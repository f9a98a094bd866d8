"""Deterministic re-execution of a disputed window from its commitments.

A window's leaves store each request's admitted input verbatim (the
array in memory, its canonical record on disk), and every shard is
provisioned in the serving mode (one reused coefficient set, per-slot
normalisation; the backend's, not a config field) — decoded logits
depend only on the sample and the network, never on batch composition,
coalescing depth, or which shard ran the window.  Replay therefore
provisions a fresh :class:`~repro.sharding.shard.EnclaveShard` from the
audited deployment's effective config (same seed derivation, same
integrity posture, same K — even a window the adaptive governor resized
replays exactly), re-runs each committed batch through that shard's
:class:`~repro.pipeline.PipelineExecutor` over the whole model, and
compares recomputed output digests leaf by leaf.  Under ``layered:N``
only a unit's exit member commits logits; an interior member's leaves
commit the activations at its cut, so replay takes the exit member's
window.

A match proves the committed outputs are what this network really
produces for the committed inputs; a mismatch names the first leaf whose
history was forged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audit.commitment import (
    MEMBERSHIP_STATUS_PREFIX,
    array_digest,
    input_array,
    stored_input_matches,
)
from repro.errors import AuditError
from repro.runtime.config import DarKnightConfig
from repro.sharding.shard import EnclaveShard


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-executing one committed window."""

    window_id: int
    shard_id: int
    n_requests: int
    n_batches: int
    matched: bool
    #: ``(request_id, committed_digest, recomputed_digest)`` per mismatch.
    mismatches: tuple[tuple[int, str, str], ...]


def _batches_in_order(leaves: list[dict]) -> list[tuple[int, list[dict]]]:
    """Group leaves by batch id, preserving dispatch order."""
    order: list[int] = []
    groups: dict[int, list[dict]] = {}
    for leaf in leaves:
        bid = int(leaf["batch_id"])
        if bid not in groups:
            order.append(bid)
            groups[bid] = []
        groups[bid].append(leaf)
    return [(bid, groups[bid]) for bid in order]


def replay_window(
    entry: dict, network, config: DarKnightConfig, strict: bool = True
) -> ReplayResult:
    """Re-execute one audit-log entry and compare output digests.

    Parameters
    ----------
    entry:
        A log entry dict (in memory, or one line of the shard's JSONL
        log): its leaves carry the stored inputs, whose digests must match
        the committed ``input_digest``, and the output digests.
    network:
        The served model (rebuild it from the audit manifest's model
        name + seed).
    config:
        The deployment's *effective* DarKnight config (the manifest
        records it: the same seed, integrity posture and K).
    strict:
        When true (the default), raise :class:`AuditError` on the first
        digest divergence instead of returning a mismatch report.
    """
    meta = entry["meta"]
    leaves = entry["leaves"]
    status = meta.get("status", "")
    if isinstance(status, str) and status.startswith(MEMBERSHIP_STATUS_PREFIX):
        raise AuditError(
            f"window {meta.get('window_id')} is a membership event"
            f" ({status}); there is no computation to replay"
        )
    if not leaves:
        raise AuditError(
            f"window {meta.get('window_id')} is empty: nothing to replay"
        )
    if any(leaf["output_digest"] is None for leaf in leaves):
        raise AuditError(
            f"window {meta.get('window_id')} committed no decoded outputs"
            f" (status {meta.get('status')!r}); replay needs a completed"
            " window — prove inclusion instead"
        )
    for leaf in leaves:
        if not stored_input_matches(leaf):
            raise AuditError(
                f"window {meta.get('window_id')}: request {leaf['request_id']}'s"
                " stored input does not match its committed input_digest"
            )
    shard = EnclaveShard.provision(int(meta["shard_id"]), network, config)
    mismatches: list[tuple[int, str, str]] = []
    batches = _batches_in_order(leaves)
    for _, batch_leaves in batches:
        x = np.stack([input_array(leaf["input"]) for leaf in batch_leaves])
        out = shard.executor.run(x).output
        for i, leaf in enumerate(batch_leaves):
            recomputed = array_digest(out[i])
            if recomputed != leaf["output_digest"]:
                if strict:
                    raise AuditError(
                        f"window {meta.get('window_id')}: request"
                        f" {leaf['request_id']} replayed to digest"
                        f" {recomputed[:12]}… but the log committed"
                        f" {leaf['output_digest'][:12]}…"
                    )
                mismatches.append(
                    (int(leaf["request_id"]), leaf["output_digest"], recomputed)
                )
    return ReplayResult(
        window_id=int(meta["window_id"]),
        shard_id=int(meta["shard_id"]),
        n_requests=len(leaves),
        n_batches=len(batches),
        matched=not mismatches,
        mismatches=tuple(mismatches),
    )
