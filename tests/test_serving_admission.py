"""Admission through the server: one bound, class-aware eviction.

The deployment's one admission bound is ``queue_capacity`` over queued
plus in-flight requests, summed over every unit; the queues keep no bound
of their own.  A property test drives the whole server — capacities,
replicated units, SLO priorities, bursty arrivals and a scale-out that
re-homes queued requests — and checks the bound after every arrival, one
terminal outcome per request, and that every eviction was made for a
strictly higher-priority arrival.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, ReLU, Sequential
from repro.runtime import DarKnightConfig
from repro.serving import (
    PrivateInferenceServer,
    ServingConfig,
    SloClass,
    SloPolicy,
    TraceRequest,
)
from repro.serving.requests import STATUS_EVICTED, STATUS_OK, STATUS_SHED

TENANTS = [f"tenant{i}" for i in range(8)]


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


@st.composite
def slo_policies(draw):
    """1 to 3 priorities: the default class plus up to two ranked above it."""
    n_priorities = draw(st.integers(1, 3))
    classes = {
        f"class{p}": SloClass(
            name=f"class{p}",
            latency_budget=draw(st.sampled_from([math.inf, 2e-3, 2e-2])),
            priority=p,
        )
        for p in range(1, n_priorities)
    }
    names = ["standard", *classes]
    assignments = {
        tenant: name
        for tenant in TENANTS
        if (name := draw(st.sampled_from(names))) != "standard"
    }
    return SloPolicy(classes=classes, assignments=assignments)


# Bursty: runs of simultaneous arrivals between short and long gaps.
_ARRIVALS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1e-5, 2e-4, 3e-3]), st.sampled_from(TENANTS)),
    min_size=1,
    max_size=40,
)


def _serve(capacity, n_units, slo, arrivals, provision_at):
    """Replay ``arrivals`` one ``serve_trace`` turn at a time, checking
    admission after each; scale out once before arrival ``provision_at``."""
    server = PrivateInferenceServer(
        _tiny_net(),
        ServingConfig(
            darknight=DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=n_units),
            queue_capacity=capacity,
            slo=slo,
        ),
    )
    rng = np.random.default_rng(0)
    now = 0.0
    for index, (gap, tenant) in enumerate(arrivals):
        now += gap
        if index == provision_at:
            server.provision_shard(now)
        server._run_batches(server.scheduler.collect_expired(now), now)
        ended = len(server._outcomes)
        server._admit(TraceRequest(now, tenant, rng.normal(size=16)), now)
        for victim in server._outcomes[ended:]:
            if victim.status == STATUS_EVICTED:
                assert slo.priority_for(victim.tenant) < slo.priority_for(tenant)
        server._run_batches(server.scheduler.collect_ready(now), now)
        assert server._inflight_at(now) + server.scheduler.queued <= capacity
    server._run_batches(server.scheduler.collect_expired(math.inf), now)
    return server.report()


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(2, 8),
    n_units=st.integers(1, 3),
    slo=slo_policies(),
    arrivals=_ARRIVALS,
    data=st.data(),
)
def test_property_admission_holds_one_bound_and_evicts_only_downward(
    capacity, n_units, slo, arrivals, data
):
    provision_at = data.draw(st.one_of(st.none(), st.integers(0, len(arrivals) - 1)))
    report = _serve(capacity, n_units, slo, arrivals, provision_at)
    ids = sorted(o.request_id for o in report.outcomes)
    assert ids == list(range(len(arrivals)))
    assert {o.status for o in report.outcomes} <= {STATUS_OK, STATUS_SHED, STATUS_EVICTED}


def test_a_burst_beyond_capacity_sheds_the_rest_and_evicts_for_premium():
    """Four default-class arrivals fill a capacity-4 deployment of two
    units; a fifth sheds, a premium arrival evicts the newest of them."""
    slo = SloPolicy(
        classes={"premium": SloClass(name="premium", priority=1)},
        assignments={"tenant0": "premium"},
    )
    arrivals = [(0.0, "tenant1"), (0.0, "tenant2"), (0.0, "tenant3"), (0.0, "tenant4")]
    arrivals += [(1e-5, "tenant1"), (1e-5, "tenant0")]
    report = _serve(4, 2, slo, arrivals, provision_at=None)
    status = {o.request_id: o.status for o in report.outcomes}
    assert status[4] == STATUS_SHED and status[5] == STATUS_OK
    assert [rid for rid, s in status.items() if s == STATUS_EVICTED] == [3]
