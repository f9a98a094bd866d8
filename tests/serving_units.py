"""Serving units around hand-provisioned shards, for white-box tests.

``PrivateInferenceServer._add_unit`` is the production path; tests that
drive a worker pool, session manager or sharded scheduler directly build
the same per-unit state here without a server around it.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.serving import (
    RequestQueue,
    ServingUnit,
    SessionManager,
    VirtualBatchScheduler,
)
from repro.sharding import PipelineGroup


def make_units(shards):
    """One replicated unit (a one-member group) per shard, sharing a
    batch-id counter."""
    ids = itertools.count()
    units = []
    for shard in shards:
        queue = RequestQueue(64)
        whole_plan = (0, len(shard.engine.network.execution_plan()))
        units.append(
            ServingUnit(
                # No hops, so no mesh to consult.
                executor=PipelineGroup(shard.shard_id, [shard], [whole_plan], mesh=None),
                queue=queue,
                scheduler=VirtualBatchScheduler(
                    queue, 4, shard_id=shard.shard_id, id_source=ids
                ),
                sessions=SessionManager(
                    shard.enclave,
                    rng=np.random.default_rng(shard.shard_id),
                    shard_id=shard.shard_id,
                ),
            )
        )
    return units
