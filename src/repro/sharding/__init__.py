"""Multi-enclave sharding: parallel trusted timelines behind one scheduler.

DarKnight serializes every encode/decode on one enclave clock; past a
modest pipeline depth that single timeline is the whole bottleneck.  This
package scales *out* instead of up: a deployment runs ``num_shards``
:class:`EnclaveShard` s — each a full enclave + GPU cluster + pipeline
executor on its own simulated timeline — with a
:class:`ShardRouter` pinning tenants to shards (consistent hashing,
load-aware for new tenants) and an :class:`AttestationMesh` of pairwise
local-attestation links so sessions can migrate to a surviving shard when
one fails.  Shard counts never change served values: per-sample
normalization makes every logit independent of batch composition, so any
routing is bit-identical to any other.
"""

from repro.sharding.mesh import AttestationMesh
from repro.sharding.partition import (
    LayerPartitionPlanner,
    PartitionSpec,
    PipelineGroup,
    SealedActivations,
    open_activations,
    seal_activations,
)
from repro.sharding.router import ShardRouter
from repro.sharding.shard import EnclaveShard

__all__ = [
    "AttestationMesh",
    "EnclaveShard",
    "LayerPartitionPlanner",
    "PartitionSpec",
    "PipelineGroup",
    "SealedActivations",
    "ShardRouter",
    "open_activations",
    "seal_activations",
]
