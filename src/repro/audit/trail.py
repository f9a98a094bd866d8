"""The serving-side audit trail: per-shard logs behind one commit API.

:class:`AuditTrail` is what the worker pool talks to — it owns one
chained :class:`~repro.audit.log.AuditLog` per shard, stamps every
commitment with the deployment's effective-config digest (so a proof
also pins *which* integrity posture served the request), tracks commit
cost (windows, leaves, bytes, wall seconds), and writes a
``manifest.json`` recording everything replay needs to reprovision the
deployment: model name, seed, shard count, partition (which member of a
unit commits logits), and the full effective DarKnight config.

The trail is deliberately passive: it never raises into the serving hot
path on commit (malformed windows are an :class:`AuditError` bug, not a
tenant-visible failure) and costs nothing when :class:`AuditConfig` is
absent — the worker pool holds ``None`` and skips the call sites.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.audit.commitment import SCHEMA, WindowCommitment, check_schema, digest_json
from repro.audit.log import AuditLog
from repro.errors import AuditError
from repro.runtime.config import DarKnightConfig

MANIFEST_NAME = "manifest.json"


def log_filename(shard_id: int) -> str:
    """The JSONL filename one shard's chained log persists to."""
    return f"shard{int(shard_id)}.audit.jsonl"


@dataclass(frozen=True)
class AuditConfig:
    """Serving-level audit switches (attach to ``ServingConfig.audit``).

    Parameters
    ----------
    log_dir:
        Directory for per-shard JSONL logs plus ``manifest.json``;
        ``None`` keeps the trail in memory (chain heads and proofs still
        work, nothing survives the process).
    model:
        Name of the served model, recorded in the manifest so
        ``python -m repro audit replay`` can rebuild the same network.
    """

    log_dir: str | None = None
    model: str | None = None


class AuditTrail:
    """Chained per-shard window logs for one serving deployment."""

    def __init__(
        self,
        config: AuditConfig,
        darknight: DarKnightConfig,
        num_shards: int,
        partition: str = "replicated",
    ) -> None:
        self.config = config
        self.darknight = darknight
        self.num_shards = int(num_shards)
        self.partition = partition
        self.config_digest = digest_json(dataclasses.asdict(darknight))
        self.log_dir = Path(config.log_dir) if config.log_dir else None
        self.logs: dict[int, AuditLog] = {
            sid: AuditLog(
                sid,
                None if self.log_dir is None else self.log_dir / log_filename(sid),
            )
            for sid in range(self.num_shards)
        }
        self.windows_committed = 0
        self.leaves_committed = 0
        self.bytes_written = 0
        self.commit_seconds = 0.0
        #: Membership-change windows chained via :meth:`record_membership`.
        self.membership_events = 0
        if self.log_dir is not None:
            self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "schema": SCHEMA,
            "model": self.config.model,
            "seed": self.darknight.seed,
            "num_shards": self.num_shards,
            "partition": self.partition,
            "darknight": dataclasses.asdict(self.darknight),
            "config_digest": self.config_digest,
        }
        (self.log_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def add_shard(self, shard_id: int) -> None:
        """Open a chained log for a shard provisioned after startup.

        Logs are only ever *added*, never removed: a retired shard's
        chain head stays published (and its JSONL stays on disk), so
        inclusion proofs issued while the shard was live verify forever.
        The manifest is rewritten so replay knows the final shard count.
        """
        shard_id = int(shard_id)
        if shard_id in self.logs:
            raise AuditError(f"audit trail already has a log for shard {shard_id}")
        self.logs[shard_id] = AuditLog(
            shard_id,
            None if self.log_dir is None else self.log_dir / log_filename(shard_id),
        )
        self.num_shards = max(self.num_shards, shard_id + 1)
        if self.log_dir is not None:
            self._write_manifest()

    def record_membership(
        self,
        kind: str,
        shard_id: int,
        now: float = 0.0,
        details: dict | None = None,
    ) -> dict:
        """Chain one membership-change event on the affected shard's log.

        Called by the server's elastic-membership paths: ``provision``
        opens a shard's service life, ``drain`` marks the wind-down, and
        ``retire`` closes it — all as first-class chained windows, so
        ``verify`` / ``check-chain`` attest the membership history along
        with the served work.
        """
        shard_id = int(shard_id)
        if shard_id not in self.logs:
            raise AuditError(
                f"audit trail has no log for shard {shard_id}"
                f" ({self.num_shards} provisioned)"
            )
        commitment = WindowCommitment.build_membership(
            shard_id=shard_id,
            kind=kind,
            time=now,
            details=details,
            config_digest=self.config_digest,
            seed=self.darknight.seed,
        )
        entry = self._append(shard_id, commitment, time.perf_counter())
        self.membership_events += 1
        return entry

    def _append(self, shard_id: int, commitment: WindowCommitment, start: float) -> dict:
        """Chain one commitment with full cost accounting: ``start`` is
        when the caller began building it, so commit-cost telemetry covers
        the whole path."""
        log = self.logs[shard_id]
        before = log.bytes_written
        entry = log.append(commitment)
        self.windows_committed += 1
        self.leaves_committed += len(commitment.leaves)
        self.bytes_written += log.bytes_written - before
        self.commit_seconds += time.perf_counter() - start
        return entry

    # ------------------------------------------------------------------
    # the commit path (called by the worker pool per flushed window)
    # ------------------------------------------------------------------
    def commit_window(
        self,
        shard_id: int,
        batches: list,
        outputs_by_batch: list,
        status: str,
        aborted: bool = False,
        error: str | None = None,
        input_digests: list[str] | None = None,
    ) -> dict:
        """Build, chain, and persist one window's commitment.

        ``input_digests`` passes on the inputs' digests from an earlier
        commit of the same window (another member of its unit): each
        entry's leaves carry them as ``input_digest``.
        """
        if shard_id not in self.logs:
            raise AuditError(
                f"audit trail has no log for shard {shard_id}"
                f" ({self.num_shards} provisioned)"
            )
        start = time.perf_counter()
        commitment = WindowCommitment.build(
            shard_id=shard_id,
            batches=batches,
            outputs_by_batch=outputs_by_batch,
            status=status,
            aborted=aborted,
            error=error,
            integrity_enabled=self.darknight.integrity,
            config_digest=self.config_digest,
            seed=self.darknight.seed,
            input_digests=input_digests,
        )
        return self._append(shard_id, commitment, start)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def chain_roots(self) -> dict[int, str]:
        """Every shard's current chain head (publish these)."""
        return {sid: log.chain_root for sid, log in sorted(self.logs.items())}

    def verify(self) -> int:
        """Walk every shard's chain; returns total windows verified."""
        return sum(log.verify_chain() for log in self.logs.values())


def load_manifest(log_dir: str | Path) -> dict:
    """Read an audit directory's manifest (model/seed/effective config);
    one written in another format version is refused."""
    path = Path(log_dir) / MANIFEST_NAME
    if not path.exists():
        raise AuditError(f"no audit manifest at {path}")
    manifest = json.loads(path.read_text())
    check_schema(manifest.get("schema"), str(path))
    return manifest


def manifest_config(manifest: dict) -> DarKnightConfig:
    """Rebuild the effective DarKnight config a manifest recorded."""
    try:
        return DarKnightConfig(**manifest["darknight"])
    except (KeyError, TypeError) as exc:
        raise AuditError(f"audit manifest has no usable config ({exc})") from exc
