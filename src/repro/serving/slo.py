"""Per-tenant SLO classes: the scheduler's organizing latency contract.

Until now every tenant shared one global flush deadline, one
priority-blind shed policy, and a decode-first executor tie-break.  This
module introduces the vocabulary the whole request path speaks instead:
an :class:`SloClass` names a latency budget and a priority, and an
:class:`SloPolicy` assigns tenants to classes.  Four
layers consume it:

* **admission** — a full queue evicts the newest lowest-priority pending
  request rather than unconditionally shedding the arrival, so a
  best-effort backlog can no longer block premium traffic;
* **flush** — the scheduler's deadline becomes the *minimum remaining
  budget* among queued requests instead of one global ``max_batch_wait``,
  and the adaptive policy takes the tightest class budget as its ceiling;
* **pipeline ranking** — each dispatched batch carries its tightest
  deadline, and the :class:`~repro.pipeline.PipelineExecutor`'s one rank
  order runs the window carrying the tightest remaining budget first
  among equally early stages (no separate switch: the policy is enough);
* **placement** — the router pins premium tenants onto lightly-loaded
  shards instead of walking the hash ring.

Every deployment has a policy; unless told otherwise it is the default
class alone (infinite budget, priority 0), under which every layer above
acts exactly as a class-blind server would.  Classes act only through
assignments: a class no tenant is assigned to changes no outcome
(asserted in ``benchmarks/bench_slo_classes.py``).

A class's ``latency_budget`` is *end-to-end* (arrival to completion).
Only a fraction of it (:data:`FLUSH_BUDGET_FRACTION`) may be spent
waiting in the coalescing queue; the remainder is headroom for the
staged pipeline's encode/compute/decode service time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Name of the implicit class unassigned tenants belong to.
DEFAULT_CLASS_NAME = "standard"

#: Fraction of a class's end-to-end latency budget the scheduler may
#: spend holding a request for coalescing; the rest is reserved for the
#: pipeline's service time (a request flushed at 100% of its budget
#: would already be late before the enclave touched it).
FLUSH_BUDGET_FRACTION = 0.5


@dataclass(frozen=True)
class SloClass:
    """One service class: a latency contract plus scheduling standing.

    Parameters
    ----------
    name:
        Class identifier (`"standard"` is the implicit default class).
    latency_budget:
        End-to-end seconds (arrival to completion) a request of this
        class should finish within.  ``inf`` — the default — means "no
        contract".
    priority:
        Admission standing: when the queue is full, an arrival of a
        higher-priority class evicts the newest pending request of a
        strictly lower-priority class instead of being shed.  Equal
        priorities never evict each other, so under the default class
        alone a full deployment sheds the arrival.
    """

    name: str = DEFAULT_CLASS_NAME
    latency_budget: float = math.inf
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO class needs a non-empty name")
        if not self.latency_budget > 0:
            raise ConfigurationError(
                f"latency budget must be > 0 seconds, got {self.latency_budget}"
            )

    @property
    def flush_budget(self) -> float:
        """Seconds of the budget the coalescing wait may consume."""
        return self.latency_budget * FLUSH_BUDGET_FRACTION


#: The class every tenant belongs to unless assigned otherwise (no
#: budget, no eviction standing).
DEFAULT_SLO_CLASS = SloClass()


@dataclass(frozen=True)
class SloPolicy:
    """Tenant-to-class assignment consulted by every layer of the path.

    Parameters
    ----------
    classes:
        The deployment's service classes, keyed by name.  The default
        class (:data:`DEFAULT_CLASS_NAME`) is always present; defining it
        explicitly overrides its knobs.
    assignments:
        ``tenant -> class name``.  Unassigned tenants get the default
        class, so a class no tenant is assigned to changes nothing.
    """

    classes: dict[str, SloClass] = field(default_factory=dict)
    assignments: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        classes = dict(self.classes)
        for name, cls in classes.items():
            if name != cls.name:
                raise ConfigurationError(
                    f"class key {name!r} does not match SloClass.name {cls.name!r}"
                )
        classes.setdefault(DEFAULT_CLASS_NAME, DEFAULT_SLO_CLASS)
        object.__setattr__(self, "classes", classes)
        for tenant, name in self.assignments.items():
            if name not in classes:
                raise ConfigurationError(
                    f"tenant {tenant!r} assigned to undefined SLO class {name!r}"
                    f" (defined: {sorted(classes)})"
                )

    @property
    def is_default(self) -> bool:
        """True for the default policy: the default class alone, unassigned.

        Reports show class rows only for a policy that is not this one.
        """
        return self.classes == {DEFAULT_CLASS_NAME: DEFAULT_SLO_CLASS} and not self.assignments

    # ------------------------------------------------------------------
    # lookups (the hot-path surface)
    # ------------------------------------------------------------------
    @property
    def default_class(self) -> SloClass:
        """The class unassigned tenants belong to."""
        return self.classes[DEFAULT_CLASS_NAME]

    def class_for(self, tenant: str) -> SloClass:
        """The tenant's service class (default when unassigned)."""
        name = self.assignments.get(tenant)
        if name is None:
            return self.default_class
        return self.classes[name]

    def budget_for(self, tenant: str) -> float:
        """End-to-end latency budget in seconds (``inf`` = no contract)."""
        return self.class_for(tenant).latency_budget

    def flush_budget_for(self, tenant: str) -> float:
        """Seconds the tenant's requests may wait in the coalescing queue."""
        return self.class_for(tenant).flush_budget

    def priority_for(self, tenant: str) -> int:
        """Admission priority (higher may evict strictly lower)."""
        return self.class_for(tenant).priority

    def tightest_flush_budget(self) -> float | None:
        """The smallest finite flush budget across defined classes.

        The adaptive flush policy uses it as an additional deadline
        ceiling so a learned wait can never violate the most demanding
        class's contract.  ``None`` when no class carries a finite budget.
        """
        finite = [
            cls.flush_budget
            for cls in self.classes.values()
            if math.isfinite(cls.latency_budget)
        ]
        return min(finite) if finite else None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def class_table(self) -> list[dict]:
        """One strict-JSON-safe row per class (stable ordering by name)."""
        return [
            {
                "name": cls.name,
                "latency_budget": (
                    cls.latency_budget if math.isfinite(cls.latency_budget) else None
                ),
                "priority": cls.priority,
                "tenants": sorted(
                    t for t, n in self.assignments.items() if n == cls.name
                ),
            }
            for cls in sorted(self.classes.values(), key=lambda c: c.name)
        ]


def build_slo_policy(
    budgets: dict[str, float],
    assignments: dict[str, str] | None = None,
) -> SloPolicy:
    """Build a policy from ``class -> budget seconds`` (the CLI's shape).

    Priorities are derived from budget tightness — the tightest budget
    gets the highest priority — so ``--slo-budget`` alone yields a total
    admission order without a third flag.  The default class keeps
    priority 0 unless explicitly given a budget.
    """
    if not budgets and assignments:
        raise ConfigurationError(
            "SLO tenant assignments need at least one class budget"
            " (--slo-budget class=ms)"
        )
    for name, budget in budgets.items():
        if not budget > 0:
            raise ConfigurationError(
                f"SLO budget for class {name!r} must be > 0 seconds, got {budget}"
            )
    # Classes with equal budgets share a priority rank: identical
    # contracts must never evict each other's pending requests.
    distinct = sorted(set(budgets.values()), reverse=True)
    rank_of = {budget: rank + 1 for rank, budget in enumerate(distinct)}
    classes = {
        name: SloClass(name=name, latency_budget=budget, priority=rank_of[budget])
        for name, budget in budgets.items()
    }
    return SloPolicy(classes=classes, assignments=dict(assignments or {}))
