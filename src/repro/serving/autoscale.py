"""Elastic shard autoscaling: hysteresis-gated scale decisions.

The serving stack already records every signal an autoscaler needs —
per-shard queue depth (the admission queues) and per-shard enclave
occupancy (:attr:`~repro.sharding.EnclaveShard.busy_time`).  The
:class:`ShardAutoscaler` folds those into two smoothed pressure signals —
a queue-depth EWMA and a busy-time utilization over the evaluation wall —
and turns them into *rare, deliberate* membership changes:

* **Hysteresis**: scale-out and scale-in trigger on *different*
  thresholds (``queue_high``/:data:`UTILIZATION_HIGH` vs ``queue_low``/
  :data:`UTILIZATION_LOW`) and only after the pressure persists for
  ``breaches_to_scale_out`` / ``breaches_to_scale_in`` consecutive
  evaluations, so a single bursty window never flaps the membership.
* **Cooldown**: after any action the loop holds for
  ``scale_out_cooldown`` / ``scale_in_cooldown`` simulated seconds —
  scale-in waits longer by default because killing a shard is the more
  expensive mistake (drain, migration, and a likely re-provision).

The autoscaler is pure decision logic on the simulated clock: it never
touches shards itself, and it keeps no membership of its own.  The server
executes decisions through its dynamic-membership APIs
(``provision_shard`` / ``decommission_shard``) and logs them with
:meth:`ShardAutoscaler.record`.  The shard-seconds accounting the
autoscale benchmark gates on (provisioned capacity integrated over
simulated time — the cost axis static max provisioning loses on) is
:func:`shard_ledger`, read off the shards' own lifecycle stamps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Decision labels recorded in :class:`AutoscaleEvent`.
ACTION_SCALE_OUT = "scale_out"
ACTION_SCALE_IN = "scale_in"
#: Busy-time utilization (enclave-busy seconds per live-shard second)
#: above which the deployment counts as overloaded / below which as idle.
UTILIZATION_HIGH = 0.85
UTILIZATION_LOW = 0.25
#: Smoothing factor of the per-unit queue-depth EWMA.
EWMA_ALPHA = 0.5


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
    breaches_to_scale_out / breaches_to_scale_in:
        Consecutive overloaded / idle evaluations required before the
        corresponding action fires (the hysteresis streak).
    """

    min_shards: int = 1
    max_shards: int = 4
    eval_interval: float = 1e-3
    scale_out_cooldown: float = 2e-3
    scale_in_cooldown: float = 2e-2
    queue_high: float = 4.0
    queue_low: float = 0.5
    breaches_to_scale_out: int = 2
    breaches_to_scale_in: int = 4

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
        if self.breaches_to_scale_out < 1 or self.breaches_to_scale_in < 1:
            raise ConfigurationError("breach streaks must be >= 1")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One executed membership change, for the report and tests."""

    time: float
    action: str
    shard_id: int
    n_live: int
    reason: str


class ShardAutoscaler:
    """Decides when the deployment should grow or shrink.

    The server drives :meth:`evaluate` from its event loop; a returned
    action is *advice* — the server executes it (provision + attest +
    re-ring, or drain + migrate + kill) and logs it with :meth:`record`.
    Pressure is read per serving unit; ``shards_per_unit`` converts unit
    counts into the physical shards the bounds and utilization are
    stated in.
    """

    def __init__(self, config: AutoscaleConfig, shards_per_unit: int = 1) -> None:
        self.config = config
        self.shards_per_unit = shards_per_unit
        self._depth_ewma: dict[int, float] = {}
        self._busy_seen: dict[int, float] = {}
        self._last_eval: float | None = None
        self._last_action_time: float | None = None
        self._high_streak = 0
        self._low_streak = 0
        self.evaluations = 0
        self.events: list[AutoscaleEvent] = []

    # ------------------------------------------------------------------
    # decision logic
    # ------------------------------------------------------------------
    def evaluate(
        self,
        now: float,
        depths: dict[int, int],
        busy: dict[int, float],
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
            self._depth_ewma[shard_id] = EWMA_ALPHA * depth + (1 - EWMA_ALPHA) * prev
        mean_depth = sum(self._depth_ewma.values()) / n_live

        # Utilization: enclave-busy seconds gained per live-shard second.
        busy_delta = sum(
            max(0.0, b - self._busy_seen.get(shard_id, 0.0))
            for shard_id, b in busy.items()
        )
        self._busy_seen = dict(busy)
        utilization = busy_delta / (wall * max(1, live_shards)) if wall > 0 else 0.0

        high = mean_depth >= cfg.queue_high or utilization >= UTILIZATION_HIGH
        low = mean_depth <= cfg.queue_low and utilization <= UTILIZATION_LOW
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
                f" (high {UTILIZATION_HIGH})"
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
                f" (low {UTILIZATION_LOW})"
            )
            return ACTION_SCALE_IN, reason
        return None, "steady"

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


def shard_ledger(shards, end: float) -> dict:
    """Live shards, peak and shard-seconds, read off the shards themselves.

    Each :class:`~repro.sharding.EnclaveShard` is in service from its
    ``provisioned_at`` until it is retired or failed over (``retired_at``
    / ``failed_at``), or until ``end`` while it still serves.
    ``shard_seconds`` integrates that provisioned capacity over simulated
    time — the "shard-hours" cost axis on which autoscaling beats static
    max provisioning; ``peak_shards`` is the largest simultaneous count,
    counting a join before a leave at the same instant (the conservative
    reading).
    """
    spans = [
        (s.provisioned_at, s.retired_at if s.retired_at is not None else s.failed_at)
        for s in shards
    ]
    edges = [(start, 1) for start, _ in spans]
    edges += [(stop, -1) for _, stop in spans if stop is not None]
    peak = live = 0
    for _, delta in sorted(edges, key=lambda e: (e[0], -e[1])):
        live += delta
        peak = max(peak, live)
    total = 0.0
    for start, stop in spans:
        total += max(0.0, (end if stop is None else stop) - start)
    return {
        "live_shards": [s.shard_id for s, (_, stop) in zip(shards, spans) if stop is None],
        "peak_shards": peak,
        "shard_seconds": total,
    }
