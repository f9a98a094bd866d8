"""Server-side observability: latency percentiles, fill ratio, failures.

Collects per-request and per-batch facts during a serving run and renders
them through :mod:`repro.reporting` so server output lines up with the
rest of the repo's exhibits.  All times are simulated-clock seconds.

With an :class:`~repro.serving.slo.SloPolicy` attached, the collector
also keys latency by service class — per-class p50/p99 plus an
SLO-attainment ratio (the fraction of completed requests that finished
inside their class's budget) — and splits shed accounting into requests
refused *at admission* versus pending requests *evicted* to admit
higher-priority arrivals, so overload telemetry says who actually paid.
"""

from __future__ import annotations

import math

import numpy as np

from repro.reporting import render_table
from repro.serving.requests import (
    STATUS_DECODE_FAILED,
    STATUS_INTEGRITY_FAILED,
    STATUS_SHARD_FAILED,
    RequestOutcome,
    ScheduledBatch,
)
from repro.serving.slo import SloPolicy

#: ``record_shed`` kinds: refused at admission, evicted from the queue, or
#: refused because the sample itself cannot be served (wrong shape, NaN or
#: inf).
SHED_ADMISSION = "admission"
SHED_EVICTED = "evicted"
SHED_MALFORMED = "malformed"


class ServerMetrics:
    """Accumulates serving statistics; cheap to query mid-run.

    Parameters
    ----------
    slo:
        Optional per-tenant class assignment; enables the per-class
        latency breakdown and attainment ratio.  ``None`` reports the
        classic aggregate numbers only.
    """

    def __init__(self, slo: SloPolicy | None = None) -> None:
        self.slo = slo
        self._latencies: list[float] = []
        self._fill_ratios: list[float] = []
        self._trigger_counts: dict[str, int] = {}
        self._completed_by_tenant: dict[str, int] = {}
        self._shed_by_tenant: dict[str, int] = {}
        self._latencies_by_class: dict[str, list[float]] = {}
        self._attained_by_class: dict[str, int] = {}
        self.completed = 0
        self.shed = 0
        #: ``shed`` split by who paid: the arrival (refused at admission),
        #: the backlog (evicted for a higher-priority arrival), or a
        #: malformed arrival.  The three always sum to ``shed``.
        self.shed_at_admission = 0
        self.shed_evicted = 0
        self.shed_malformed = 0
        self.integrity_failures = 0
        self.decode_errors = 0
        self.shard_failures = 0
        self.batches = 0
        #: Audit-trail cost counters (zero when auditing is disabled).
        self.audit_windows = 0
        self.audit_leaves = 0
        self.audit_bytes = 0
        self.audit_commit_seconds = 0.0
        #: Executed elastic membership changes (zero when autoscale off).
        self.scale_outs = 0
        self.scale_ins = 0
        #: Aggregated mask-pool / weight-cache telemetry (``None`` when
        #: the offline precompute split is off).
        self._precompute: dict | None = None
        self._first_arrival: float | None = None
        self._last_completion: float | None = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_batch(self, batch: ScheduledBatch) -> None:
        """Account one flushed virtual batch."""
        self.batches += 1
        self._fill_ratios.append(batch.fill_ratio)
        self._trigger_counts[batch.trigger] = (
            self._trigger_counts.get(batch.trigger, 0) + 1
        )

    def record_outcome(self, outcome: RequestOutcome) -> None:
        """Account one finished (ok or failed) request.

        Only *completed* requests move the throughput span: shed and
        failed requests produce no served response, so letting their
        arrivals stretch the span start deflated throughput on mixed
        traces.
        """
        if outcome.status == STATUS_INTEGRITY_FAILED:
            self.integrity_failures += 1
            return
        if outcome.status == STATUS_DECODE_FAILED:
            self.decode_errors += 1
            return
        if outcome.status == STATUS_SHARD_FAILED:
            self.shard_failures += 1
            return
        if not outcome.ok:
            return
        self.completed += 1
        self._completed_by_tenant[outcome.tenant] = (
            self._completed_by_tenant.get(outcome.tenant, 0) + 1
        )
        self._latencies.append(outcome.latency)
        if self.slo is not None:
            cls = self.slo.class_for(outcome.tenant)
            self._latencies_by_class.setdefault(cls.name, []).append(outcome.latency)
            if outcome.latency <= cls.latency_budget:
                self._attained_by_class[cls.name] = (
                    self._attained_by_class.get(cls.name, 0) + 1
                )
        if self._first_arrival is None or outcome.arrival_time < self._first_arrival:
            self._first_arrival = outcome.arrival_time
        if self._last_completion is None or outcome.completion_time > self._last_completion:
            self._last_completion = outcome.completion_time

    def record_commit(self, leaves: int, nbytes: int, seconds: float) -> None:
        """Account one audit-window commitment (leaves, bytes, wall cost).

        ``seconds`` is *host* wall time, not simulated time: committing
        happens outside the simulated enclave clock, so its cost is
        reported as real overhead per run rather than folded into the
        simulated latency percentiles.
        """
        self.audit_windows += 1
        self.audit_leaves += int(leaves)
        self.audit_bytes += int(nbytes)
        self.audit_commit_seconds += float(seconds)

    def record_scale(self, action: str) -> None:
        """Account one executed membership change (scale_out / scale_in)."""
        if action == "scale_out":
            self.scale_outs += 1
        elif action == "scale_in":
            self.scale_ins += 1
        else:
            raise ValueError(f"unknown scale action {action!r}")

    def record_precompute(self, snapshot: dict | None) -> None:
        """Attach the deployment's precompute telemetry (or ``None``).

        The server pushes its aggregated mask-pool / weight-cache
        snapshot here at report time so :meth:`snapshot` carries it.
        Rate fields that are undefined (a pool never drawn from, no
        registered streams) must already be ``None`` — never ``inf`` or
        ``NaN`` — so the snapshot stays strict-JSON.
        """
        self._precompute = snapshot

    def record_shed(self, tenant: str, kind: str = SHED_ADMISSION) -> None:
        """Account one request refused or dropped before it was served.

        ``kind`` says who paid: :data:`SHED_ADMISSION` (the arrival was
        refused for a full queue — the classic, and default, case),
        :data:`SHED_EVICTED` (a pending request was evicted to admit a
        higher-priority arrival), or :data:`SHED_MALFORMED` (the arrival's
        sample cannot be served).
        """
        if kind not in (SHED_ADMISSION, SHED_EVICTED, SHED_MALFORMED):
            raise ValueError(f"unknown shed kind {kind!r}")
        self.shed += 1
        if kind == SHED_EVICTED:
            self.shed_evicted += 1
        elif kind == SHED_MALFORMED:
            self.shed_malformed += 1
        else:
            self.shed_at_admission += 1
        self._shed_by_tenant[tenant] = self._shed_by_tenant.get(tenant, 0) + 1

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    def latency_percentile(self, p: float) -> float:
        """``p``-th percentile of completed-request latency (seconds)."""
        if not self._latencies:
            return float("nan")
        return float(np.percentile(self._latencies, p))

    def class_latency_percentile(self, class_name: str, p: float) -> float:
        """``p``-th latency percentile for one service class (seconds)."""
        latencies = self._latencies_by_class.get(class_name)
        if not latencies:
            return float("nan")
        return float(np.percentile(latencies, p))

    def slo_attainment(self, class_name: str | None = None) -> float:
        """Fraction of completed requests that met their class budget.

        ``class_name=None`` aggregates across every class (requests of
        budget-less classes always attain).  ``nan`` with no completions
        (or no completions in the named class).
        """
        if class_name is not None:
            total = len(self._latencies_by_class.get(class_name, []))
            if total == 0:
                return float("nan")
            return self._attained_by_class.get(class_name, 0) / total
        if self.slo is None or self.completed == 0:
            return float("nan")
        return sum(self._attained_by_class.values()) / self.completed

    @property
    def mean_latency(self) -> float:
        """Mean completed-request latency (seconds)."""
        return float(np.mean(self._latencies)) if self._latencies else float("nan")

    @property
    def batch_fill_ratio(self) -> float:
        """Mean fraction of virtual-batch slots carrying real samples."""
        return float(np.mean(self._fill_ratios)) if self._fill_ratios else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second.

        The span runs from the first *completed* request's arrival to the
        last completion, so shed/failed arrivals cannot stretch it.  A
        degenerate span (a single instantaneous completion) reports
        ``0.0`` rather than leaking ``inf`` into snapshots and benchmark
        JSON artifacts.
        """
        if self.completed == 0 or self._first_arrival is None:
            return 0.0
        span = (self._last_completion or 0.0) - self._first_arrival
        if span <= 0:
            return 0.0
        return self.completed / span

    def completed_by_tenant(self) -> dict[str, int]:
        """Completed request counts per tenant."""
        return dict(self._completed_by_tenant)

    def shed_by_tenant(self) -> dict[str, int]:
        """Shed request counts per tenant."""
        return dict(self._shed_by_tenant)

    def flush_triggers(self) -> dict[str, int]:
        """How many batches flushed per trigger kind."""
        return dict(self._trigger_counts)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _class_snapshot(self) -> dict:
        """Per-class latency/attainment rows (empty without an SLO policy)."""
        if self.slo is None:
            return {}

        def _finite(value: float) -> float | None:
            value = float(value)
            return value if math.isfinite(value) else None

        out = {}
        for name in sorted(self._latencies_by_class):
            cls = self.slo.classes.get(name)
            budget = cls.latency_budget if cls is not None else math.inf
            out[name] = {
                "completed": len(self._latencies_by_class[name]),
                "latency_p50": _finite(self.class_latency_percentile(name, 50)),
                "latency_p99": _finite(self.class_latency_percentile(name, 99)),
                "latency_budget": budget if math.isfinite(budget) else None,
                "attainment": _finite(self.slo_attainment(name)),
            }
        return out

    def snapshot(self) -> dict:
        """All headline numbers as one dict (stable keys for tests/benches).

        Strict-JSON-safe: non-finite floats (no completions yet, empty
        percentiles, infinite budgets) are reported as ``None``/``null``,
        never as the ``Infinity``/``NaN`` literals ``json.dumps`` would
        otherwise emit into benchmark artifacts.
        """

        def _finite(value: float) -> float | None:
            value = float(value)
            return value if math.isfinite(value) else None

        return {
            "completed": self.completed,
            "shed": self.shed,
            "shed_at_admission": self.shed_at_admission,
            "shed_evicted": self.shed_evicted,
            "shed_malformed": self.shed_malformed,
            "integrity_failures": self.integrity_failures,
            "decode_errors": self.decode_errors,
            "shard_failures": self.shard_failures,
            "batches": self.batches,
            "batch_fill_ratio": _finite(self.batch_fill_ratio),
            "throughput_rps": _finite(self.throughput),
            "latency_p50": _finite(self.latency_percentile(50)),
            "latency_p99": _finite(self.latency_percentile(99)),
            "latency_mean": _finite(self.mean_latency),
            "slo_attainment": _finite(self.slo_attainment()),
            "slo_classes": self._class_snapshot(),
            "audit_windows": self.audit_windows,
            "audit_leaves": self.audit_leaves,
            "audit_bytes": self.audit_bytes,
            "audit_commit_seconds": _finite(self.audit_commit_seconds),
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "precompute": self._precompute_snapshot(_finite),
        }

    def _precompute_snapshot(self, _finite) -> dict | None:
        """Strict-JSON copy of the attached precompute telemetry.

        Every float rate passes through the ``_finite`` filter so a pool
        that was never drawn from (or a shard set with no registered
        streams) reports ``null`` rather than ``inf``/``NaN`` — the same
        contract the latency fields keep, enforced by
        ``benchmarks/validate_artifacts.py``.
        """
        if self._precompute is None:
            return None
        out = dict(self._precompute)
        for key in ("hit_rate", "occupancy"):
            if out.get(key) is not None:
                out[key] = _finite(out[key])
        return out

    def render(self, title: str = "Serving metrics") -> str:
        """ASCII table of the snapshot (plus per-class rows under SLO)."""

        def _fmt(value: float | None, scale: float = 1.0, digits: int = 2) -> str:
            if value is None:
                return "n/a"
            return f"{value * scale:.{digits}f}"

        snap = self.snapshot()
        rows = [
            ["completed requests", snap["completed"]],
            ["shed (backpressure)", snap["shed"] - snap["shed_malformed"]],
            ["integrity failures", snap["integrity_failures"]],
            ["decode errors", snap["decode_errors"]],
            ["shard failures", snap["shard_failures"]],
            ["virtual batches", snap["batches"]],
            ["batch fill ratio", _fmt(snap["batch_fill_ratio"])],
            ["throughput (req/s)", _fmt(snap["throughput_rps"], digits=1)],
            ["latency p50 (ms)", _fmt(snap["latency_p50"], scale=1e3)],
            ["latency p99 (ms)", _fmt(snap["latency_p99"], scale=1e3)],
            ["latency mean (ms)", _fmt(snap["latency_mean"], scale=1e3)],
        ]
        if snap["shed_malformed"]:
            rows.append(["refused malformed", snap["shed_malformed"]])
        if snap["audit_windows"]:
            rows.append(["audit windows", snap["audit_windows"]])
            rows.append(["audit leaves", snap["audit_leaves"]])
            rows.append(["audit bytes", f"{snap['audit_bytes']:,}"])
            rows.append(
                ["audit commit (ms)",
                 _fmt(snap["audit_commit_seconds"], scale=1e3, digits=1)]
            )
        if snap["scale_outs"] or snap["scale_ins"]:
            rows.append(["scale-outs", snap["scale_outs"]])
            rows.append(["scale-ins", snap["scale_ins"]])
        if snap["precompute"] is not None:
            pre = snap["precompute"]
            rows.append(["pool hit rate", _fmt(pre["hit_rate"], digits=3)])
            rows.append(["pool refills", pre["refills"]])
            rows.append(["weight reuses", pre["weights_reused"]])
        if snap["slo_classes"]:
            rows.append(["shed at admission", snap["shed_at_admission"]])
            rows.append(["evicted by class", snap["shed_evicted"]])
            rows.append(["SLO attainment", _fmt(snap["slo_attainment"], digits=3)])
            for name, cls_snap in snap["slo_classes"].items():
                budget = cls_snap["latency_budget"]
                budget_txt = "no budget" if budget is None else f"{budget * 1e3:.1f}ms"
                rows.append(
                    [
                        f"  {name} p99 (ms)",
                        f"{_fmt(cls_snap['latency_p99'], scale=1e3)}"
                        f" ({budget_txt},"
                        f" attain {_fmt(cls_snap['attainment'], digits=3)})",
                    ]
                )
        return render_table(["metric", "value"], rows, title=title)
