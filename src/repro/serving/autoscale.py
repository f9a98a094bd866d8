"""Elastic shard autoscaling: hysteresis-gated scale decisions.

The serving stack already records every signal an autoscaler needs —
per-shard queue depth (the admission queues), per-shard enclave occupancy
(:attr:`~repro.sharding.EnclaveShard.busy_time`), and SLO attainment
(:meth:`~repro.serving.metrics.ServerMetrics.slo_attainment`).  The
:class:`ShardAutoscaler` folds those into two smoothed pressure signals —
a queue-depth EWMA and a busy-time utilization over the evaluation wall —
and turns them into *rare, deliberate* membership changes:

* **Hysteresis**: scale-out and scale-in trigger on *different*
  thresholds (``queue_high``/``utilization_high`` vs ``queue_low``/
  ``utilization_low``) and only after the pressure persists for
  ``breaches_to_scale_out`` / ``breaches_to_scale_in`` consecutive
  evaluations, so a single bursty window never flaps the membership.
* **Cooldown**: after any action the loop holds for
  ``scale_out_cooldown`` / ``scale_in_cooldown`` simulated seconds —
  scale-in waits longer by default because killing a shard is the more
  expensive mistake (drain, migration, and a likely re-provision).

The autoscaler is pure decision logic on the simulated clock: it never
touches shards itself.  The server executes decisions through its
dynamic-membership APIs (``provision_shard`` / ``decommission_shard``)
and reports them back via :meth:`ShardAutoscaler.note_provisioned` /
:meth:`ShardAutoscaler.note_retired`, which also power the shard-seconds
accounting the autoscale benchmark gates on (provisioned capacity
integrated over simulated time — the cost axis static max provisioning
loses on).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Decision labels recorded in :class:`AutoscaleEvent`.
ACTION_SCALE_OUT = "scale_out"
ACTION_SCALE_IN = "scale_in"


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs for the elastic control loop.

    Parameters
    ----------
    min_shards / max_shards:
        Hard membership bounds in *physical shards*; the loop never
        decommissions below ``min_shards`` nor provisions above
        ``max_shards``.  A scale step moves one whole serving unit
        (``N`` shards under ``partition="layered:N"``), so the server
        requires both to be multiples of ``N``.
    eval_interval:
        Simulated seconds between control-loop evaluations; pressure
        signals are folded once per interval.
    scale_out_cooldown / scale_in_cooldown:
        Minimum simulated seconds after *any* membership change before
        the next scale-out / scale-in may fire.
    queue_high / queue_low:
        Mean per-shard queue-depth EWMA above which the deployment is
        considered overloaded / below which it is considered idle.
    utilization_high / utilization_low:
        Busy-time utilization (enclave-busy seconds per live-shard
        second) bounds, same roles as the queue thresholds.
    breaches_to_scale_out / breaches_to_scale_in:
        Consecutive overloaded / idle evaluations required before the
        corresponding action fires (the hysteresis streak).
    ewma_alpha:
        Smoothing factor for the per-shard queue-depth EWMA.
    attainment_floor:
        Optional SLO-attainment fraction; dropping below it counts as
        overload pressure even when the queues look healthy.
    max_session_migrations:
        Optional cap forwarded to
        :meth:`~repro.sharding.ShardRouter.add_shard` bounding how many
        pinned tenants one scale-out may move.
    epc_pool_bytes:
        Optional total EPC budget shared by the deployment; when set,
        each membership change re-fits the virtual-batch size ``K``
        against ``epc_pool_bytes / n_live`` between windows.
    """

    min_shards: int = 1
    max_shards: int = 4
    eval_interval: float = 1e-3
    scale_out_cooldown: float = 2e-3
    scale_in_cooldown: float = 2e-2
    queue_high: float = 4.0
    queue_low: float = 0.5
    utilization_high: float = 0.85
    utilization_low: float = 0.25
    breaches_to_scale_out: int = 2
    breaches_to_scale_in: int = 4
    ewma_alpha: float = 0.5
    attainment_floor: float | None = None
    max_session_migrations: int | None = None
    epc_pool_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ConfigurationError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ConfigurationError(
                f"max_shards ({self.max_shards}) must be >="
                f" min_shards ({self.min_shards})"
            )
        if self.eval_interval <= 0:
            raise ConfigurationError(
                f"eval_interval must be > 0, got {self.eval_interval}"
            )
        if self.scale_out_cooldown < 0 or self.scale_in_cooldown < 0:
            raise ConfigurationError("cooldowns must be >= 0")
        if self.queue_low > self.queue_high:
            raise ConfigurationError(
                f"queue_low ({self.queue_low}) must be <="
                f" queue_high ({self.queue_high})"
            )
        if self.utilization_low > self.utilization_high:
            raise ConfigurationError(
                f"utilization_low ({self.utilization_low}) must be <="
                f" utilization_high ({self.utilization_high})"
            )
        if self.breaches_to_scale_out < 1 or self.breaches_to_scale_in < 1:
            raise ConfigurationError("breach streaks must be >= 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.attainment_floor is not None and not 0 < self.attainment_floor <= 1:
            raise ConfigurationError(
                f"attainment_floor must be in (0, 1], got {self.attainment_floor}"
            )


@dataclass(frozen=True)
class AutoscaleEvent:
    """One executed membership change, for the report and tests."""

    time: float
    action: str
    shard_id: int
    n_live: int
    reason: str


@dataclass
class _ShardSpan:
    """One shard's provisioned interval on the simulated clock."""

    provisioned_at: float
    retired_at: float | None = None


class ShardAutoscaler:
    """Decides when the deployment should grow or shrink.

    The server drives :meth:`evaluate` from its event loop; a returned
    action is *advice* — the server executes it (provision + attest +
    re-ring, or drain + migrate + kill) and confirms with
    :meth:`note_provisioned` / :meth:`note_retired` so the shard-seconds
    ledger matches what actually happened.  Pressure is read per serving
    unit; ``shards_per_unit`` converts unit counts into the physical
    shards the bounds, utilization and ledger are stated in.
    """

    def __init__(
        self, config: AutoscaleConfig | None = None, shards_per_unit: int = 1
    ) -> None:
        self.config = config or AutoscaleConfig()
        self.shards_per_unit = shards_per_unit
        self._depth_ewma: dict[int, float] = {}
        self._busy_seen: dict[int, float] = {}
        self._last_eval: float | None = None
        self._last_action_time: float | None = None
        self._high_streak = 0
        self._low_streak = 0
        self.evaluations = 0
        self.events: list[AutoscaleEvent] = []
        self._spans: dict[int, list[_ShardSpan]] = {}

    # ------------------------------------------------------------------
    # decision logic
    # ------------------------------------------------------------------
    def evaluate(
        self,
        now: float,
        depths: dict[int, int],
        busy: dict[int, float],
        attainment: float | None = None,
    ) -> tuple[str | None, str]:
        """Fold one snapshot of the pressure signals into a decision.

        Parameters
        ----------
        now:
            Simulated clock.
        depths:
            Per-live-unit queue depth right now.
        busy:
            Per-live-unit *cumulative* enclave-busy seconds (summed over
            the unit's shards); utilization is the delta since the
            previous evaluation divided by the live-shard wall.
        attainment:
            Optional overall SLO attainment in ``[0, 1]``.

        Returns ``(action, reason)`` where action is ``"scale_out"``,
        ``"scale_in"``, or ``None``.
        """
        cfg = self.config
        if self._last_eval is not None and now - self._last_eval < cfg.eval_interval:
            return None, "between evaluations"
        wall = 0.0 if self._last_eval is None else now - self._last_eval
        self._last_eval = now
        self.evaluations += 1
        n_live = max(1, len(depths))
        live_shards = len(depths) * self.shards_per_unit

        # Per-unit queue-depth EWMA; units that left take their state.
        for shard_id in list(self._depth_ewma):
            if shard_id not in depths:
                del self._depth_ewma[shard_id]
        for shard_id, depth in depths.items():
            prev = self._depth_ewma.get(shard_id, float(depth))
            self._depth_ewma[shard_id] = (
                cfg.ewma_alpha * depth + (1 - cfg.ewma_alpha) * prev
            )
        mean_depth = sum(self._depth_ewma.values()) / n_live

        # Utilization: enclave-busy seconds gained per live-shard second.
        busy_delta = sum(
            max(0.0, b - self._busy_seen.get(shard_id, 0.0))
            for shard_id, b in busy.items()
        )
        self._busy_seen = dict(busy)
        utilization = busy_delta / (wall * max(1, live_shards)) if wall > 0 else 0.0

        attain_low = (
            cfg.attainment_floor is not None
            and attainment is not None
            and attainment < cfg.attainment_floor
        )
        high = (
            mean_depth >= cfg.queue_high
            or utilization >= cfg.utilization_high
            or attain_low
        )
        low = (
            mean_depth <= cfg.queue_low
            and utilization <= cfg.utilization_low
            and not attain_low
        )
        self._high_streak = self._high_streak + 1 if high else 0
        self._low_streak = self._low_streak + 1 if low else 0

        since_action = (
            None
            if self._last_action_time is None
            else now - self._last_action_time
        )
        if (
            self._high_streak >= cfg.breaches_to_scale_out
            and live_shards < cfg.max_shards
            and (since_action is None or since_action >= cfg.scale_out_cooldown)
        ):
            reason = (
                f"overloaded: mean depth EWMA {mean_depth:.2f}"
                f" (high {cfg.queue_high}), utilization {utilization:.2f}"
                f" (high {cfg.utilization_high})"
                + (", SLO attainment below floor" if attain_low else "")
            )
            return ACTION_SCALE_OUT, reason
        if (
            self._low_streak >= cfg.breaches_to_scale_in
            and live_shards > cfg.min_shards
            and (since_action is None or since_action >= cfg.scale_in_cooldown)
        ):
            reason = (
                f"idle: mean depth EWMA {mean_depth:.2f}"
                f" (low {cfg.queue_low}), utilization {utilization:.2f}"
                f" (low {cfg.utilization_low})"
            )
            return ACTION_SCALE_IN, reason
        return None, "steady"

    # ------------------------------------------------------------------
    # executed-change ledger
    # ------------------------------------------------------------------
    def note_provisioned(self, shard_id: int, now: float) -> None:
        """Record that a shard went live at ``now``."""
        self._spans.setdefault(shard_id, []).append(_ShardSpan(now))

    def note_retired(self, shard_id: int, now: float) -> None:
        """Record that a shard left the deployment at ``now``."""
        spans = self._spans.get(shard_id)
        if spans and spans[-1].retired_at is None:
            spans[-1].retired_at = now

    def record(self, action: str, shard_id: int, n_live: int, now: float, reason: str) -> None:
        """Log one executed membership change and start its cooldown."""
        self._last_action_time = now
        self._high_streak = 0
        self._low_streak = 0
        self.events.append(
            AutoscaleEvent(
                time=now,
                action=action,
                shard_id=shard_id,
                n_live=n_live,
                reason=reason,
            )
        )

    def shard_seconds(self, end: float) -> float:
        """Provisioned capacity integrated over simulated time.

        Each shard contributes its live interval ``[provisioned_at,
        retired_at or end]`` — the "shard-hours" cost axis on which
        autoscaling beats static max provisioning.
        """
        total = 0.0
        for spans in self._spans.values():
            for span in spans:
                closed = span.retired_at if span.retired_at is not None else end
                total += max(0.0, closed - span.provisioned_at)
        return total

    @property
    def scale_outs(self) -> int:
        """Executed scale-out events."""
        return sum(1 for e in self.events if e.action == ACTION_SCALE_OUT)

    @property
    def scale_ins(self) -> int:
        """Executed scale-in events."""
        return sum(1 for e in self.events if e.action == ACTION_SCALE_IN)

    def live_shards(self) -> list[int]:
        """Shard ids currently inside an open provisioned span."""
        return sorted(
            shard_id
            for shard_id, spans in self._spans.items()
            if spans and spans[-1].retired_at is None
        )

    def peak_shards(self) -> int:
        """Largest simultaneous live-shard count over the run."""
        edges: list[tuple[float, int]] = []
        for spans in self._spans.values():
            for span in spans:
                edges.append((span.provisioned_at, 1))
                if span.retired_at is not None:
                    edges.append((span.retired_at, -1))
        peak = live = 0
        for _, delta in sorted(edges, key=lambda e: (e[0], -e[1])):
            live += delta
            peak = max(peak, live)
        return peak

    def snapshot(self, end: float) -> dict:
        """Strict-JSON-safe telemetry for the serving report."""
        return {
            "evaluations": self.evaluations,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "live_shards": self.live_shards(),
            "peak_shards": self.peak_shards(),
            "shard_seconds": self.shard_seconds(end),
            "events": [
                {
                    "time": e.time,
                    "action": e.action,
                    "shard_id": e.shard_id,
                    "n_live": e.n_live,
                    "reason": e.reason,
                }
                for e in self.events
            ],
        }
