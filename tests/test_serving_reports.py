"""Serving reports pinned to a golden file.

``golden/serving_reports.json`` holds, for six deployments × two seeded
traces, the metrics snapshot and the rendered report of one served run.
Two wall-clock readings are left out: the snapshot's
``audit_commit_seconds`` and the report's "audit commit (ms)" row.  Every
other number, row and byte must match, whatever way the metrics are
collected.

Regenerate (only when a change is meant to move a report) with::

    PYTHONPATH=src:tests python -c "import test_serving_reports as t; t.dump()"
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.audit import AuditConfig
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    AutoscaleConfig,
    PrivateInferenceServer,
    ServingConfig,
    SloClass,
    SloPolicy,
    TraceRequest,
    phased_trace,
    synthetic_trace,
)

GOLDEN = Path(__file__).parent / "golden" / "serving_reports.json"
SEEDS = (0, 1)


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _serve(trace, *, num_shards=1, fail=None, **kwargs):
    dk = kwargs.pop("darknight", None) or DarKnightConfig(
        virtual_batch_size=4, seed=0, num_shards=num_shards
    )
    server = PrivateInferenceServer(_tiny_net(), ServingConfig(darknight=dk, **kwargs))
    for shard_id, after in (fail or {}).items():
        server.shards[shard_id].fail_after(after)
    return server.serve_trace(trace)


def _plain(seed):
    return _serve(synthetic_trace(40, (16,), n_tenants=4, seed=seed))


def _adaptive(seed):
    trace = synthetic_trace(60, (16,), n_tenants=4, mean_interarrival=2e-4, seed=seed)
    return _serve(trace, adaptive=True)


def _slo_overload(seed):
    """A full deployment: one admission shed, one eviction, one malformed."""
    slo = SloPolicy(
        classes={"premium": SloClass(name="premium", latency_budget=0.005, priority=1)},
        assignments={"tenant0": "premium"},
    )
    rng = np.random.default_rng(seed)
    trace = [TraceRequest(0.0, "tenant1", rng.normal(size=16)) for _ in range(4)]
    trace.append(TraceRequest(1e-5, "tenant1", rng.normal(size=16)))
    trace.append(TraceRequest(2e-5, "tenant0", rng.normal(size=16)))
    nan_sample = rng.normal(size=16)
    nan_sample[3] = np.nan
    trace.append(TraceRequest(3e-5, "tenant2", nan_sample))
    trace += [
        TraceRequest(0.02 + 1e-3 * i, f"tenant{i % 3}", rng.normal(size=16))
        for i in range(6)
    ]
    return _serve(
        trace,
        queue_capacity=4,
        max_batch_wait=0.01,
        slo=slo,
        darknight=DarKnightConfig(virtual_batch_size=8, seed=0),
    )


def _failover(seed):
    trace = synthetic_trace(40, (16,), n_tenants=6, mean_interarrival=1e-4, seed=seed)
    return _serve(trace, num_shards=2, queue_capacity=512, fail={0: 2})


def _autoscale(seed):
    trace = phased_trace(
        [(60, 2e-5), (30, 2e-2), (60, 2e-5)], (16,), n_tenants=8, seed=seed + 11
    )
    autoscale = AutoscaleConfig(
        min_shards=1,
        max_shards=4,
        eval_interval=5e-4,
        scale_out_cooldown=1e-3,
        scale_in_cooldown=5e-3,
        queue_high=3.0,
        queue_low=0.5,
        breaches_to_scale_out=2,
        breaches_to_scale_in=4,
    )
    return _serve(trace, queue_capacity=512, autoscale=autoscale)


def _composed(seed):
    trace = synthetic_trace(48, (16,), n_tenants=6, mean_interarrival=5e-5, seed=seed)
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2, pipeline_depth=2)
    return _serve(
        trace,
        darknight=dk,
        queue_capacity=512,
        partition="layered:2",
        precompute=True,
        audit=AuditConfig(model="tiny"),
    )


DEPLOYMENTS = {
    "plain": _plain,
    "adaptive": _adaptive,
    "slo_overload": _slo_overload,
    "failover": _failover,
    "autoscale": _autoscale,
    "composed": _composed,
}


def _observe(report) -> dict:
    snapshot = report.metrics.snapshot()
    del snapshot["audit_commit_seconds"]
    render = [
        line for line in report.render().splitlines() if "audit commit (ms)" not in line
    ]
    return {"snapshot": snapshot, "render": render}


def _observe_all() -> dict:
    return {
        f"{name}/{seed}": _observe(serve(seed))
        for name, serve in DEPLOYMENTS.items()
        for seed in SEEDS
    }


def dump() -> None:
    GOLDEN.write_text(json.dumps(_observe_all(), indent=1, allow_nan=False) + "\n")


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_report_matches_the_golden(name, seed):
    golden = json.loads(GOLDEN.read_text())
    observed = json.loads(json.dumps(_observe(DEPLOYMENTS[name](seed)), allow_nan=False))
    assert observed == golden[f"{name}/{seed}"]


def test_the_golden_covers_every_counter():
    """Each deployment moves the counters it is there to pin."""
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{n}/{s}" for n in DEPLOYMENTS for s in SEEDS)
    for seed in SEEDS:
        overload = golden[f"slo_overload/{seed}"]["snapshot"]
        assert overload["shed_at_admission"] >= 1
        assert overload["shed_evicted"] >= 1 and overload["shed_malformed"] == 1
        assert golden[f"failover/{seed}"]["snapshot"]["completed"] == 40
        # Scale-outs/-ins and precompute live in the report, not the snapshot.
        (elastic,) = [
            line for line in golden[f"autoscale/{seed}"]["render"] if line.startswith("autoscale:")
        ]
        outs, ins = re.match(r"autoscale: (\d+) scale-outs, (\d+) scale-ins", elastic).groups()
        assert int(outs) >= 1 and int(ins) >= 1
        composed = golden[f"composed/{seed}"]
        assert composed["snapshot"]["audit_windows"] > 0
        assert any(line.startswith("precompute:") for line in composed["render"])
        adaptive = golden[f"adaptive/{seed}"]["render"][-1]
        assert adaptive.startswith("adaptive: learned deadline(s)")
