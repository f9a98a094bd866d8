"""Layer partitioning: cut the execution plan across enclave shards.

A replicated deployment gives every shard the whole model; throughput
scales but each shard still pays the full per-batch enclave time.  Layer
partitioning instead cuts the flattened
:meth:`~repro.nn.Sequential.execution_plan` into contiguous *stage
ranges* and pins each range to its own :class:`EnclaveShard`, forming a
pipeline: shard 0 runs steps ``[0, c1)``, seals the live activations at
the cut, and hands them to shard 1 over an
:class:`~repro.sharding.mesh.AttestationMesh`-verified
:class:`~repro.comm.secure_channel.SecureChannel`.  The host relays
only sealed envelopes — AEAD-authenticated per hop, decrypted inside the
consumer enclave — so the privacy boundary is exactly the single-shard
one.  Because masking decodes exactly and normalization is per-sample,
logits are bit-identical for *every* legal cut placement.

Three pieces live here:

* :class:`PartitionSpec` — the serving-config surface
  (``replicated`` / ``layered:N``; ``replicated`` *is* ``layered:1``).
* :class:`LayerPartitionPlanner` — balances contiguous ranges by
  per-step enclave cost (priced from :meth:`plan_shapes` symbolic
  shapes via :class:`~repro.pipeline.timing.StageCostModel`) with a
  bottleneck-minimizing DP.
* :class:`PipelineGroup` — the executor of every serving unit: ``N >= 1``
  member shards chained over the plan.  A window dispatched to the
  group chains stage-major through the members, and a member failure
  surfaces as a *group* failure carrying the completed batch prefix, so
  per-batch retry semantics upstream are the same at every ``N``.  A
  one-member group has no hops and runs the whole plan on its shard.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from repro.comm import LinkModel
from repro.comm.secure_channel import Envelope, SecureChannel
from repro.errors import ConfigurationError, ShardFailedError
from repro.nn import PLAN_INPUT, Sequential
from repro.pipeline.executor import GroupResult
from repro.pipeline.stages import PipelineStats, WindowItem
from repro.pipeline.timing import DEFAULT_STAGE_COSTS, StageCostModel

#: Bytes per activation element (float64 everywhere in the repro).
_ELEM_BYTES = 8


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PartitionSpec:
    """Parsed ``partition`` serving-config value.

    ``layered:N`` cuts the plan into ``N`` stage ranges and groups every
    ``N`` consecutive shards into one :class:`PipelineGroup`;
    ``replicated`` — the classic full-model-per-shard deployment — is the
    same thing with ``N = 1`` (``mode`` only remembers which spelling to
    print).
    """

    mode: str
    n_stages: int = 1

    @classmethod
    def parse(cls, text: str) -> "PartitionSpec":
        """Parse ``"replicated"`` or ``"layered:N"`` (N >= 1)."""
        if not isinstance(text, str):
            raise ConfigurationError(f"partition must be a string, got {text!r}")
        if text == "replicated":
            return cls(mode="replicated", n_stages=1)
        if text.startswith("layered:"):
            raw = text.split(":", 1)[1]
            try:
                n = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"bad partition stage count {raw!r} in {text!r}"
                ) from None
            if n < 1:
                raise ConfigurationError(
                    f"layered partition needs >= 1 stage, got {n}"
                )
            return cls(mode="layered", n_stages=n)
        raise ConfigurationError(
            f"unknown partition mode {text!r}; expected 'replicated' or 'layered:N'"
        )

    def __str__(self) -> str:
        if self.mode == "replicated":
            return "replicated"
        return f"layered:{self.n_stages}"


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class LayerPartitionPlanner:
    """Cut the flattened plan into enclave-cost-balanced stage ranges.

    Each plan step is priced in *enclave seconds per sample* from the
    symbolic shapes :meth:`~repro.nn.Sequential.plan_shapes` provides:
    offloaded steps cost their encode + decode traffic (the GPU kernel
    overlaps and is not the serialized resource), TEE-resident steps
    cost their local pass.  The planner then minimizes the *bottleneck*
    range cost over contiguous cuts — the pipeline's steady-state period
    is its slowest stage, so the balanced bottleneck is exactly the
    partitioned deployment's per-batch enclave floor.
    """

    def __init__(
        self,
        network: Sequential,
        costs: StageCostModel | None = None,
    ) -> None:
        self.network = network
        self.costs = costs or DEFAULT_STAGE_COSTS
        self._plan = network.execution_plan()
        if not self._plan:
            raise ConfigurationError("cannot partition an empty network")

    # -- per-step pricing ------------------------------------------------
    @functools.cached_property
    def _shapes(self) -> list[tuple[int, ...]]:
        # Priced lazily: the one-range plan every replicated deployment
        # asks for needs no costs, so it never walks the shapes.
        return self.network.plan_shapes()

    def _shape_of(self, producer: int) -> tuple[int, ...]:
        if producer == PLAN_INPUT:
            return self.network.input_shape
        return self._shapes[producer]

    def step_costs(self) -> list[float]:
        """Enclave seconds per sample for every plan step."""
        out = []
        for step in self._plan:
            in_bytes = sum(
                math.prod(self._shape_of(dep)) * _ELEM_BYTES
                for dep in step.deps
            )
            out_bytes = math.prod(self._shapes[step.index]) * _ELEM_BYTES
            if step.offloaded:
                cost = self.costs.encode_time(in_bytes) + self.costs.decode_time(
                    out_bytes
                )
            else:
                cost = self.costs.local_time(in_bytes)
            out.append(cost)
        return out

    # -- partitioning ----------------------------------------------------
    def plan(self, n_partitions: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` ranges covering the plan, balanced.

        Classic linear-partition DP: minimize the maximum range cost.
        Among bottleneck-optimal cuts, ties break toward later cuts,
        which keeps early (activation-heavy) stages from absorbing extra
        steps and so keeps hand-off envelopes small.
        """
        n_steps = len(self._plan)
        if n_partitions < 1:
            raise ConfigurationError(
                f"need >= 1 partition, got {n_partitions}"
            )
        if n_partitions > n_steps:
            raise ConfigurationError(
                f"cannot cut a {n_steps}-step plan into {n_partitions}"
                " partitions; each range needs at least one step"
            )
        if n_partitions == 1:
            return [(0, n_steps)]
        costs = self.step_costs()
        prefix = [0.0]
        for c in costs:
            prefix.append(prefix[-1] + c)

        def range_cost(lo: int, hi: int) -> float:
            return prefix[hi] - prefix[lo]

        # best[p][i]: minimal bottleneck covering steps [0, i) with p ranges.
        inf = math.inf
        best = [[inf] * (n_steps + 1) for _ in range(n_partitions + 1)]
        back = [[0] * (n_steps + 1) for _ in range(n_partitions + 1)]
        best[0][0] = 0.0
        for p in range(1, n_partitions + 1):
            for i in range(p, n_steps + 1):
                for j in range(p - 1, i):
                    cand = max(best[p - 1][j], range_cost(j, i))
                    if cand <= best[p][i]:
                        best[p][i] = cand
                        back[p][i] = j
        ranges: list[tuple[int, int]] = []
        hi = n_steps
        for p in range(n_partitions, 0, -1):
            lo = back[p][hi]
            ranges.append((lo, hi))
            hi = lo
        ranges.reverse()
        return ranges


# ----------------------------------------------------------------------
# sealed activation hand-off
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SealedActivations:
    """The live value set at a cut, sealed per array for one hop.

    The host sees only this — AEAD ciphertext plus shape metadata.  Each
    envelope is MAC'd under the hop's channel key with the consumer's
    name as associated data, so a relay cannot splice envelopes between
    hops or tamper without the consumer enclave rejecting the window.
    """

    envelopes: tuple[tuple[int, Envelope], ...]

    @property
    def nbytes(self) -> int:
        """Total sealed wire bytes for the hop."""
        return sum(env.nbytes for _, env in self.envelopes)


def seal_activations(
    channel: SecureChannel, values: dict[int, np.ndarray]
) -> SealedActivations:
    """Seal a live value set (``{producer step: batch}``) for the peer."""
    return SealedActivations(
        envelopes=tuple(
            (int(step), channel.send_array(np.asarray(values[step])))
            for step in sorted(values)
        )
    )


def open_activations(
    channel: SecureChannel, sealed: SealedActivations
) -> dict[int, np.ndarray]:
    """Authenticate + unseal a hand-off inside the consumer enclave.

    Raises :class:`~repro.errors.CommunicationError` when any envelope
    fails authentication — a tampered hop kills the window rather than
    feeding the next shard attacker-chosen activations.
    """
    return {step: channel.recv_array(env) for step, env in sealed.envelopes}


# ----------------------------------------------------------------------
# pipeline group
# ----------------------------------------------------------------------
def _flat_rows(output) -> np.ndarray:
    """Canonical per-batch rows for audit leaves: final logits pass
    through; a mid-cut live dict flattens to ``(n, total)`` in step
    order."""
    if isinstance(output, dict):
        parts = [np.asarray(output[k]) for k in sorted(output)]
        n = parts[0].shape[0]
        return np.concatenate([p.reshape(n, -1) for p in parts], axis=1)
    return np.asarray(output)


class PipelineGroup:
    """``N >= 1`` member shards chained over one partitioned plan.

    The one executor type behind every
    :class:`~repro.serving.unit.ServingUnit`: ``shard_id`` is the *unit*
    id the router and sessions pin to, ``run_window`` chains a flush
    window through the members, and health, lifecycle and occupancy are
    whatever the members say — the group keeps no second copy.

    Parameters
    ----------
    group_id:
        The unit id upstream layers route on.
    members:
        Entry-to-exit :class:`EnclaveShard` s, one per stage range.
    ranges:
        Contiguous ``[lo, hi)`` plan ranges, aligned with ``members``.
    mesh:
        The shard-level attestation mesh; every consecutive member pair
        must hold a verified link before a channel is keyed (a one-member
        group has no hop and never consults it).
    link:
        Host relay the sealed envelopes traverse.
    seed:
        Deterministic channel-handshake randomness.
    """

    def __init__(
        self,
        group_id: int,
        members: list,
        ranges: list[tuple[int, int]],
        mesh,
        link: LinkModel | None = None,
        seed: int = 0,
    ) -> None:
        if not members:
            raise ConfigurationError("pipeline group needs >= 1 member shard")
        if len(members) != len(ranges):
            raise ConfigurationError(
                f"{len(members)} member shards but {len(ranges)} stage ranges"
            )
        for (_, hi), (lo2, _) in zip(ranges, ranges[1:]):
            if hi != lo2:
                raise ConfigurationError(
                    f"stage ranges must be contiguous, got cut {hi} != {lo2}"
                )
        self.shard_id = group_id
        self.members = list(members)
        self.ranges = [tuple(r) for r in ranges]
        self.link = link or LinkModel()
        #: Each interior member's canonical rows from the last window, for
        #: audit fan-out onto its own chain (the exit member's are the
        #: final outputs, see :meth:`sub_outputs`).
        self.last_sub_outputs: dict[int, list] = {}
        # A (re)built group re-maps stage ranges onto members, so any
        # weight encodings a member cached for its *previous* range are
        # stale; drop them before the first window (mask pools keep
        # their counters — bit-identity needs the draw order intact).
        for member in self.members:
            member.backend.invalidate_precompute()
        # Key one verified channel per hop; the mesh gates every pair.
        self._hops: list[tuple[SecureChannel, SecureChannel]] = []
        for a, b in zip(self.members, self.members[1:]):
            mesh.assert_verified(a.shard_id, b.shard_id)
            rng = np.random.default_rng(
                seed + 7919 * (a.shard_id + 1) + b.shard_id
            )
            tx, rx = SecureChannel.establish_pair(
                f"shard{a.shard_id}", f"shard{b.shard_id}", self.link, rng
            )
            self._hops.append((tx, rx))

    @property
    def enclave(self):
        """The entry member's trust anchor (session handshakes)."""
        return self.members[0].enclave

    @property
    def free_at(self) -> float:
        """The latest member clock: where a failed window's work stops."""
        return max(m.timeline.free_at for m in self.members)

    @property
    def busy_time(self) -> float:
        """Enclave-occupied simulated seconds summed over the members."""
        return sum(m.busy_time for m in self.members)

    # -- lifecycle: the members', read and driven as one -----------------
    @property
    def healthy(self) -> bool:
        """A pipeline with a dead stage cannot serve."""
        return all(m.healthy for m in self.members)

    @property
    def retired(self) -> bool:
        return all(m.retired for m in self.members)

    @property
    def state(self) -> str:
        """``active`` / ``retired`` / ``failed``."""
        if self.retired:
            return "retired"
        if not self.healthy:
            return "failed"
        return "active"

    def decommission(self, now: float = 0.0) -> None:
        """Planned retirement of the whole unit at ``now``."""
        for member in self.members:
            member.decommission(now)

    # -- dispatch --------------------------------------------------------
    def run_window(self, items: list[WindowItem]):
        """Chain one flush window stage-major through the members.

        Each member runs its stage range for the *whole* window, then
        every batch's live value set is sealed and handed to the next
        member as the item's payload, released at the batch's finish and
        carrying its sealed bytes, which the consumer prices as a transfer
        op on its own timeline.  Returns ``(groups, stats)`` shaped exactly
        like a single shard's window.

        Raises
        ------
        ShardFailedError
            With ``shard_id`` set to the *group* id and the failing
            member's own message when any member is down or dies
            mid-window.  The completed prefix — batches that cleared the
            failing member — continues through the remaining stages so
            their responses survive, and the error carries it as one
            ``(groups, stats)`` account (``None`` when it is empty); the
            worker pool's failover then re-runs only the lost suffix on a
            replacement group.
        """
        for member in self.members:
            if not member.healthy:
                # Before any stage runs: a dead stage anywhere means the
                # window would only burn the stages ahead of it.
                raise ShardFailedError(
                    f"shard {member.shard_id} is down", shard_id=self.shard_id
                )
        self.last_sub_outputs = {m.shard_id: [] for m in self.members}
        current = list(items)
        groups: list = []
        starts: list[float] = []
        parts: list[PipelineStats] = []
        failure: str | None = None
        for hop, (member, (lo, hi)) in enumerate(zip(self.members, self.ranges)):
            if not current:
                break
            try:
                groups, stats = member.run_window(current, step_range=(lo, hi))
            except ShardFailedError as exc:
                # Keep the member's completed prefix moving through the
                # rest of the chain; the suffix fails at group granularity.
                failure = str(exc)
                groups, stats = exc.completed or ([], None)
            if stats is not None:
                parts.append(stats)
            if hop == 0:
                starts = [g.start for g in groups]
            if hop < len(self.members) - 1:
                self.last_sub_outputs[member.shard_id] = [
                    _flat_rows(g.output) for g in groups
                ]
                tx, rx = self._hops[hop]
                handed = []
                for g, item in zip(groups, current):
                    sealed = seal_activations(tx, g.output)
                    values = open_activations(rx, sealed)
                    handed.append(WindowItem(values, g.finish, item.deadline, sealed.nbytes))
                current = handed

        finals = [GroupResult(g.output, s, g.finish) for g, s in zip(groups, starts)]
        stats = PipelineStats.merge(parts)
        if failure is not None:
            raise ShardFailedError(
                failure,
                shard_id=self.shard_id,
                completed=(finals, stats) if finals else None,
            )
        return finals, stats

    def sub_outputs(self, member_id: int, final_outputs: list):
        """Per-batch canonical rows for one member's audit chain.

        The exit member commits the actual response logits; interior
        members commit the flattened live values their stage produced.
        A batch with no final output (an aborted or re-routed window's
        marker) or that never reached the member is ``None`` on every
        chain, so the caller can skip it.
        """
        if member_id == self.members[-1].shard_id:
            return list(final_outputs)
        outs = self.last_sub_outputs.get(member_id, [])
        return [
            outs[i] if i < len(outs) and final is not None else None
            for i, final in enumerate(final_outputs)
        ]
