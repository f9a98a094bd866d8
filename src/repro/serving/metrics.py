"""Server-side observability: latency percentiles, fill ratio, failures.

:class:`ServerMetrics` is a view, not a second ledger.  Every number it
reports is read, when asked, off records the deployment already owns:

* the server's outcome list — one terminal
  :class:`~repro.serving.requests.RequestOutcome` per request, in the
  order the requests ended — gives the counts, latencies, per-tenant and
  per-class rows, attainment and the throughput span;
* the audit trail's own counters give the audit rows;
* the unit list gives membership changes: scale-outs are the units added
  after the view was built, scale-ins the units whose state reads
  ``retired``;
* the shards' backends give the precompute telemetry.

The one fact it keeps itself is each flushed batch's fill and trigger
(:meth:`ServerMetrics.record_batch`): a flushed batch is not an outcome.
All times are simulated-clock seconds.

Under an :class:`~repro.serving.slo.SloPolicy` other than the default
one, latency is also keyed by service class — per-class p50/p99 plus an
SLO-attainment ratio (the fraction of completed requests that finished
inside their class's budget).  The shed split is the outcome status:
``shed`` (refused at admission), ``evicted`` (a pending request evicted
to admit a higher-priority arrival) or ``malformed``, so overload
telemetry says who actually paid.
"""

from __future__ import annotations

import math

import numpy as np

from repro.reporting import render_table
from repro.serving.requests import (
    STATUS_DECODE_FAILED,
    STATUS_EVICTED,
    STATUS_INTEGRITY_FAILED,
    STATUS_MALFORMED,
    STATUS_OK,
    STATUS_SHARD_FAILED,
    STATUS_SHED,
    RequestOutcome,
    ScheduledBatch,
)
from repro.serving.slo import SloPolicy

#: Every way a request is turned away before it is served.
_SHED = (STATUS_SHED, STATUS_EVICTED, STATUS_MALFORMED)


def _finite(value: float) -> float | None:
    """``value`` as a float, or ``None`` when it is ``inf``/``NaN``."""
    value = float(value)
    return value if math.isfinite(value) else None


class ServerMetrics:
    """Serving statistics read off the deployment's own records.

    Parameters
    ----------
    outcomes:
        The server's terminal-outcome list, shared by reference.
    slo:
        The deployment's per-tenant class assignment.  The default policy
        reports the aggregate numbers only; any other adds the per-class
        latency breakdown and attainment ratio.
    audit:
        The deployment's :class:`~repro.audit.AuditTrail` (``None`` when
        auditing is off).
    units:
        The deployment's :class:`~repro.serving.unit.ServingUnit` list,
        shared by reference; its length now is the constructed count.
    """

    def __init__(
        self,
        outcomes: list[RequestOutcome],
        slo: SloPolicy,
        audit=None,
        units: list | None = None,
    ) -> None:
        self.slo = slo
        self._outcomes = outcomes
        self._audit = audit
        self._units = units if units is not None else []
        self._initial_units = len(self._units)
        self._fill_ratios: list[float] = []
        self._trigger_counts: dict[str, int] = {}

    def record_batch(self, batch: ScheduledBatch) -> None:
        """Account one flushed virtual batch."""
        self._fill_ratios.append(batch.fill_ratio)
        self._trigger_counts[batch.trigger] = (
            self._trigger_counts.get(batch.trigger, 0) + 1
        )

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------
    def _count(self, *statuses: str) -> int:
        return sum(1 for o in self._outcomes if o.status in statuses)

    @property
    def completed(self) -> int:
        """Requests that produced a verified prediction."""
        return self._count(STATUS_OK)

    @property
    def shed(self) -> int:
        """Requests turned away unserved: the three kinds below summed."""
        return self._count(*_SHED)

    @property
    def shed_at_admission(self) -> int:
        """Arrivals refused for a full deployment."""
        return self._count(STATUS_SHED)

    @property
    def shed_evicted(self) -> int:
        """Pending requests evicted for a higher-priority arrival."""
        return self._count(STATUS_EVICTED)

    @property
    def shed_malformed(self) -> int:
        """Arrivals whose sample the model cannot take."""
        return self._count(STATUS_MALFORMED)

    @property
    def integrity_failures(self) -> int:
        return self._count(STATUS_INTEGRITY_FAILED)

    @property
    def decode_errors(self) -> int:
        return self._count(STATUS_DECODE_FAILED)

    @property
    def shard_failures(self) -> int:
        return self._count(STATUS_SHARD_FAILED)

    @property
    def batches(self) -> int:
        """Flushed virtual batches."""
        return len(self._fill_ratios)

    @property
    def scale_outs(self) -> int:
        """Units added after the deployment was constructed."""
        return len(self._units) - self._initial_units

    @property
    def scale_ins(self) -> int:
        """Units decommissioned (state ``retired``)."""
        return sum(1 for u in self._units if u.state == "retired")

    @property
    def audit_windows(self) -> int:
        """Windows chained by the audit trail (0 when auditing is off)."""
        return self._audit.windows_committed if self._audit is not None else 0

    @property
    def audit_leaves(self) -> int:
        return self._audit.leaves_committed if self._audit is not None else 0

    @property
    def audit_bytes(self) -> int:
        return self._audit.bytes_written if self._audit is not None else 0

    def flush_triggers(self) -> dict[str, int]:
        """How many batches flushed per trigger kind."""
        return dict(self._trigger_counts)

    # ------------------------------------------------------------------
    # latency and throughput
    # ------------------------------------------------------------------
    def _served(self, class_name: str | None = None) -> list[RequestOutcome]:
        """Completed outcomes (of one service class when named)."""
        return [
            o
            for o in self._outcomes
            if o.ok
            and (class_name is None or self.slo.class_for(o.tenant).name == class_name)
        ]

    def latency_percentile(self, p: float) -> float:
        """``p``-th percentile of completed-request latency (seconds)."""
        latencies = [o.latency for o in self._served()]
        return float(np.percentile(latencies, p)) if latencies else float("nan")

    def class_latency_percentile(self, class_name: str, p: float) -> float:
        """``p``-th latency percentile for one service class (seconds)."""
        latencies = [o.latency for o in self._served(class_name)]
        return float(np.percentile(latencies, p)) if latencies else float("nan")

    def slo_attainment(self, class_name: str | None = None) -> float:
        """Fraction of completed requests that met their class budget.

        ``class_name=None`` aggregates across every class (requests of
        budget-less classes always attain).  ``nan`` with no completions
        (or no completions in the named class).
        """
        served = self._served(class_name)
        if not served:
            return float("nan")
        attained = sum(
            1 for o in served if o.latency <= self.slo.budget_for(o.tenant)
        )
        return attained / len(served)

    @property
    def mean_latency(self) -> float:
        """Mean completed-request latency (seconds)."""
        latencies = [o.latency for o in self._served()]
        return float(np.mean(latencies)) if latencies else float("nan")

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
        served = self._served()
        if not served:
            return 0.0
        span = max(o.completion_time for o in served) - min(
            o.arrival_time for o in served
        )
        return len(served) / span if span > 0 else 0.0

    # ------------------------------------------------------------------
    # precompute
    # ------------------------------------------------------------------
    def precompute(self) -> dict | None:
        """Aggregate pool/weight-cache telemetry across the deployment.

        Counters sum over every shard ever provisioned, so a scale-in
        never takes them backwards; what the pools hold now (streams,
        pooled bytes, cached layers) sums over live shards.  The hit rate
        is recomputed from the summed draws (``None`` before any draw —
        strict-JSON, never ``NaN``); the occupancy averages over live
        shards that have registered streams.  ``None`` when no backend
        runs in precompute mode.
        """
        snaps = [
            (shard.healthy, snap)
            for unit in self._units
            for shard in unit.shards
            if (snap := shard.backend.precompute_snapshot()) is not None
        ]
        if not snaps:
            return None
        agg = {
            key: sum(s[key] for _, s in snaps)
            for key in (
                "hits",
                "misses",
                "refills",
                "pooled_bytes_peak",
                "weights_staged",
                "weights_reused",
            )
        }
        live = [s for healthy, s in snaps if healthy]
        for key in ("streams", "pooled_bytes", "cached_layers"):
            agg[key] = sum(s[key] for s in live)
        draws = agg["hits"] + agg["misses"]
        agg["hit_rate"] = None if draws == 0 else agg["hits"] / draws
        occupancies = [s["occupancy"] for s in live if s["occupancy"] is not None]
        agg["occupancy"] = (
            None if not occupancies else sum(occupancies) / len(occupancies)
        )
        return agg

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _class_snapshot(self) -> dict:
        """Per-class latency/attainment rows (empty under the default policy)."""
        if self.slo.is_default:
            return {}
        names = {self.slo.class_for(o.tenant).name for o in self._served()}
        out = {}
        for name in sorted(names):
            budget = self.slo.classes[name].latency_budget
            out[name] = {
                "completed": len(self._served(name)),
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
        classes = self._class_snapshot()
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
            "slo_attainment": _finite(self.slo_attainment()) if classes else None,
            "slo_classes": classes,
            "audit_windows": self.audit_windows,
            "audit_leaves": self.audit_leaves,
            "audit_bytes": self.audit_bytes,
            "audit_commit_seconds": (
                self._audit.commit_seconds if self._audit is not None else 0.0
            ),
        }

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
