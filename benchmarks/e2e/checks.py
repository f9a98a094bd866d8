"""Correctness checks on what a pass produced (numpy only, no ``repro``).

Each check returns the set of failed item ids plus human-readable
messages; a failed item counts into ``failed_share`` and makes the
command exit non-zero.  The bars are the existing serving benchmark's
(``bench_serving_throughput``): decoded logits within ``LOGIT_TOLERANCE``
of the float ``PlainBackend`` forward, argmax agreement at least
``ARGMAX_AGREEMENT``.  That benchmark fixes its seed; this one is run on
arbitrary seeds, whose random models differ in logit scale (max |logit|
2-10) and in how many top-2 near-ties they produce, so both bars are
taken relative to the reference's scale (see :func:`logit_tolerance`).
A tampered share, by contrast, decodes to a random field element and is
off by hundreds.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Max-abs logit deviation allowed at the ``tiny`` model's logit scale.
LOGIT_TOLERANCE = 0.1
#: ... which is a max |logit| of about this; the bar grows with the scale.
LOGIT_SCALE = 2.0
ARGMAX_AGREEMENT = 0.98
#: How far private training may be from a PlainBackend-trained twin's loss
#: at step 0; see :func:`loss_tolerance`.
LOSS_TOLERANCE = 0.1


def logit_tolerance(reference: np.ndarray) -> float:
    """Allowed max-abs deviation: 0.1 at scale 2, i.e. 5 % of the largest
    reference logit (the worst of 40 surveyed seeds reaches 2.6 %)."""
    scale = float(np.max(np.abs(reference))) if np.size(reference) else 0.0
    return LOGIT_TOLERANCE * max(1.0, scale / LOGIT_SCALE)


def loss_tolerance(step: int) -> float:
    """Allowed |loss - twin loss| at ``step``: 0.1, doubling every 6 steps.

    Quantization noise in the masked gradients is small but SGD with
    momentum amplifies it step by step, and how fast depends on the seed:
    over 56 surveyed seeds the worst gap is 0.03 within the first 8 steps,
    0.16 within 16 and 0.40 within 24 (seed 1: 0.10), against 0.25, 0.63
    and 1.4 allowed.  A wrongly decoded gradient shows in the first steps.
    """
    return LOSS_TOLERANCE * 2.0 ** (step / 6.0)


def logits_digest(rows) -> str:
    """SHA-256 over the id-ordered float64 logits (bit-exact identity)."""
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=np.float64).tobytes()).hexdigest()


def check_serving(outcomes, n_sent: int, reference: np.ndarray, expect_ok=None):
    """Check one served trace; returns ``(failed_ids, messages, logits)``.

    ``outcomes`` need ``request_id``, ``ok`` and ``logits``; request ``i``
    is the ``i``-th sent request and ``reference[i]`` its float forward.
    ``expect_ok`` limits the must-complete-correctly requirement to those
    ids (the tamper canary expects the rest *not* to complete); every
    sent request must still reach exactly one terminal outcome.
    ``logits`` stacks the completed rows in id order (``None`` if any
    expected row is missing).  Argmax agreement is taken over the rows
    the check can decide: a reference whose top-2 margin is below the
    logit tolerance is a tie at the precision being checked.
    """
    expected = set(range(n_sent)) if expect_ok is None else set(expect_ok)
    failed: set[int] = set()
    messages: list[str] = []
    seen: dict[int, object] = {}
    for outcome in outcomes:
        rid = int(outcome.request_id)
        if rid in seen or not 0 <= rid < n_sent:
            failed.add(min(max(rid, 0), n_sent - 1))
            messages.append(f"request {rid} has a duplicate or unknown outcome")
        seen[rid] = outcome
    for rid in sorted(set(range(n_sent)) - set(seen)):
        failed.add(rid)
        messages.append(f"request {rid} reached no terminal outcome")
    rows: dict[int, np.ndarray] = {}
    tolerance = logit_tolerance(reference)
    flips, decidable = [], 0
    for rid in sorted(expected & set(seen)):
        outcome = seen[rid]
        if not outcome.ok or outcome.logits is None:
            failed.add(rid)
            messages.append(f"request {rid} did not complete OK")
            continue
        row = np.asarray(outcome.logits, dtype=np.float64)
        rows[rid] = row
        gap = float(np.max(np.abs(row - reference[rid])))
        if not gap < tolerance:
            failed.add(rid)
            messages.append(
                f"request {rid} logits deviate by {gap:.3f} (> {tolerance:.3f}) from the"
                " float reference"
            )
            continue
        top2 = np.partition(reference[rid], -2)[-2:]
        if top2[1] - top2[0] < tolerance:
            continue
        decidable += 1
        if int(np.argmax(row)) != int(np.argmax(reference[rid])):
            flips.append(rid)
    if decidable and 1.0 - len(flips) / decidable < ARGMAX_AGREEMENT:
        failed.update(flips)
        messages.append(
            f"argmax agreement {1.0 - len(flips) / decidable:.3f} < {ARGMAX_AGREEMENT}"
        )
    complete = expected <= set(rows)
    logits = np.stack([rows[rid] for rid in sorted(expected)]) if complete and rows else None
    return failed, messages, logits


def check_training(losses, twin_losses):
    """Check one pass's per-step losses against the plain-backend twin."""
    failed: set[int] = set()
    messages: list[str] = []
    for step, (loss, twin) in enumerate(zip(losses, twin_losses)):
        if not math.isfinite(loss):
            failed.add(step)
            messages.append(f"step {step} loss is not finite")
        elif abs(loss - twin) > loss_tolerance(step):
            failed.add(step)
            messages.append(
                f"step {step} loss {loss:.4f} is {abs(loss - twin):.3f}"
                f" (> {loss_tolerance(step):.3f}) from the twin"
            )
    for step in range(len(losses), len(twin_losses)):
        failed.add(step)
        messages.append(f"step {step} did not complete")
    return failed, messages


def loss_trajectory(losses) -> list[str]:
    """The ``%.10f`` form passes must agree on exactly."""
    return [f"{loss:.10f}" for loss in losses]


def first_difference(a: dict, b: dict) -> str | None:
    """Name a key on which two flat stat dicts differ (``None`` if equal)."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None
