"""The serving configuration and its one JSON layout.

:class:`ServingConfig` describes a deployment — the masking parameters
the paper's guarantees are stated in (``K``, ``M``, the integrity share,
the field) plus every serving section — and only this module knows how
that tree is written down.  The dict form (what ``serve --config`` reads
and ``--set`` edits) is derived from the dataclass fields and their type
hints, so a new field needs no edit here or in the CLI.  It is strict
JSON: a section is an object (``null`` where optional), and an infinite
float — an SLO class without a contract — ``null``.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field

from repro.audit import AuditConfig
from repro.enclave import DEFAULT_CODE_IDENTITY
from repro.errors import ConfigurationError
from repro.pipeline.timing import StageCostModel
from repro.runtime.config import DarKnightConfig
from repro.serving.autoscale import AutoscaleConfig
from repro.serving.slo import SloPolicy


def _to_json(value):
    """A config value in its strict-JSON form (see the module docstring)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _to_json(value[key]) for key in sorted(value)}
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def _expect(value, kind, what: str, path: str) -> None:
    # ``bool`` is an ``int`` in Python; JSON's true is not a number.
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigurationError(
            f"bad serving config: {path or 'top level'}: expected {what},"
            f" got {value!r}"
        )


def _from_json(hint, value, path: str):
    """Build what a field annotated ``hint`` holds from its JSON form.

    Driven entirely by the annotation.  This is the check on outside
    input: every mismatch is a :class:`ConfigurationError` naming the
    dotted ``path`` of the offending value, never a later ``AttributeError``.
    """
    if typing.get_origin(hint) in (types.UnionType, typing.Union):  # X | None
        if value is None:
            return None
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        _expect(value, dict, f"an object of {hint.__name__} fields (a section)", path)
        hints = typing.get_type_hints(hint)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigurationError(
                f"unknown serving config keys {unknown}"
                + (f" in {path}" if path else "")
                + f" (known: {sorted(hints)})"
            )
        return hint(
            **{k: _from_json(hints[k], v, f"{path}.{k}".lstrip(".")) for k, v in value.items()}
        )
    if origin is dict:
        _expect(value, dict, "an object", path)
        named = dataclasses.is_dataclass(args[1]) and "name" in args[1].__dataclass_fields__
        return {
            key: _from_json(
                args[1],
                # A keyed section is named by its key unless it says otherwise.
                {"name": key, **spec} if named and isinstance(spec, dict) else spec,
                f"{path}.{key}",
            )
            for key, spec in value.items()
        }
    if hint is float and value is None:
        return math.inf
    _expect(value, (int, float) if hint is float else hint, f"a JSON {hint.__name__}", path)
    return float(value) if hint is float else value


@dataclass(frozen=True)
class ServingConfig:
    """Everything that parameterises a serving deployment.

    Parameters
    ----------
    darknight:
        The masking/session parameters shared by all tenants (the
        virtual-batch size ``K`` doubles as the coalescing target, and
        ``num_shards`` sets how many enclave shards the deployment runs).
        How a shard serves (one reused coefficient set, per-slot
        normalisation) is not a field: every shard's backend runs in
        the serving mode (:meth:`~repro.sharding.EnclaveShard.provision`).
    max_batch_wait:
        Deadline (simulated seconds) before a partial batch is forced out.
    queue_capacity:
        Bound on *admitted-but-incomplete* requests — queued plus in
        flight behind busy workers, summed over every shard; beyond it
        the server sheds load, so sustained overload surfaces as shed
        requests instead of unbounded latency.
    coalesce:
        ``False`` dispatches every request alone (the naive baseline the
        serving benchmark measures against); the enclave still pads each
        lone sample to ``K`` slots, which is exactly the waste coalescing
        recovers.
    stage_costs:
        Simulated-time pricing for the pipeline stages.  Batch service
        times come from each shard's staged executor's real per-stage
        timings (bytes masked, MACs run) on that shard's persistent
        enclave/GPU timeline.
    adaptive:
        ``True`` learns each shard's flush deadline (EWMA of
        inter-arrival gaps, steered by fill-ratio feedback, floored by
        the measured per-batch enclave occupancy, never above
        ``max_batch_wait``; :mod:`repro.serving.adaptive`, whose module
        constants are the controller's settings).  ``False`` — the
        default — keeps the static ``max_batch_wait``.  Either way the
        virtual-batch size is the one fitted to the EPC budget at
        provisioning.
    slo:
        The :class:`~repro.serving.slo.SloPolicy` threading per-tenant
        service classes through the whole request path: class-aware
        eviction at admission, minimum-remaining-budget flush deadlines,
        deadline-carrying dispatch windows (the pipeline executor runs
        the tightest-budget window first among equally early stages),
        SLO-aware shard placement, and per-class latency metrics.  The
        default is the default class alone: no budget, no eviction.
    audit:
        Optional :class:`~repro.audit.AuditConfig` enabling the
        verifiable serving audit trail: every flush window's requests,
        integrity posture, and decoded-output digests are committed to a
        per-shard hash-chained Merkle log
        (:attr:`PrivateInferenceServer.audit`), from which tenants can
        extract offline-verifiable inclusion proofs and auditors can
        deterministically replay disputed windows.  ``None`` — the
        default — commits nothing and leaves dispatch bit-identical.
    autoscale:
        Optional :class:`~repro.serving.autoscale.AutoscaleConfig`
        enabling elastic membership: the server provisions and
        decommissions whole serving units (one shard each, or ``N``
        under ``partition="layered:N"``) at runtime from queue-depth and
        utilization pressure, between
        ``min_shards`` and ``max_shards`` physical shards (both must be
        multiples of ``N``).  ``darknight.num_shards`` becomes the
        *initial* count (clamped into the bounds).  ``None`` — the
        default — keeps the static deployment.
    precompute:
        Enable the offline/online split on every shard's backend:
        pregenerated mask streams (drawn from counter-based per-shard
        RNG streams, so pooled and inline generation are bit-identical),
        a static per-``(shard, layer)`` weight-encoding cache reused
        across flush windows, and recycled hot-path scratch buffers.
        Refills run only in enclave-timeline idle gaps.  ``True``
        changes *when* work happens, never the bits of any response.
        This is the one precompute switch of a deployment: every shard
        is provisioned with it.
    partition:
        How the model maps onto the deployment's shards.
        ``"layered:N"`` cuts the execution plan into ``N`` balanced
        stage ranges and chains every ``N`` consecutive shards into one
        :class:`~repro.sharding.partition.PipelineGroup`
        (``num_shards`` must be a multiple of ``N``), with activations
        handed between members as sealed, mesh-verified envelopes;
        ``"replicated"`` (the default, every shard runs the full model)
        is ``layered:1``.  Logits are bit-identical in every mode —
        per-sample normalization and exact masking make them
        independent of cut placement — and every mode composes with
        every other option, ``autoscale`` included.
    """

    darknight: DarKnightConfig = field(default_factory=DarKnightConfig)
    max_batch_wait: float = 0.01
    queue_capacity: int = 256
    coalesce: bool = True
    stage_costs: StageCostModel | None = None
    code_identity: str = DEFAULT_CODE_IDENTITY
    adaptive: bool = False
    slo: SloPolicy = field(default_factory=SloPolicy)
    audit: AuditConfig | None = None
    autoscale: AutoscaleConfig | None = None
    precompute: bool = False
    partition: str = "replicated"

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {self.queue_capacity}"
            )

    def to_dict(self) -> dict:
        """The whole tree as a strict-JSON-safe dict.

        Round-trips through :meth:`from_dict`;
        ``json.dumps(cfg.to_dict(), allow_nan=False)`` always succeeds.
        """
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        """Rebuild a config from its :meth:`to_dict` form.

        Missing keys keep their defaults.  Unknown keys — at the top level
        or in any section — and values of the wrong JSON type raise
        :class:`~repro.errors.ConfigurationError` naming their path: a
        typo in a ``--config`` file must not quietly serve with defaults.
        """
        return _from_json(cls, data, "")

    @classmethod
    def preset(cls, name: str, **overrides) -> "ServingConfig":
        """A named starting point: ``latency``, ``throughput``, ``audited``.

        ``latency`` learns per-shard flush deadlines with a tight static
        ceiling and a 2-deep pipeline; ``throughput`` doubles ``K`` and
        relaxes the deadline so size triggers dominate; ``audited`` turns
        on integrity shares plus the verifiable audit trail.  Keyword
        ``overrides`` replace any top-level field after the preset.
        """
        if name not in PRESETS:
            raise ConfigurationError(
                f"unknown serving preset {name!r} (available: {list(PRESETS)})"
            )
        return dataclasses.replace(PRESETS[name](), **overrides)


#: The named presets :meth:`ServingConfig.preset` builds, by name.
PRESETS = {
    "latency": lambda: ServingConfig(
        darknight=DarKnightConfig(pipeline_depth=2),
        max_batch_wait=2e-3,
        adaptive=True,
    ),
    "throughput": lambda: ServingConfig(
        darknight=DarKnightConfig(virtual_batch_size=8, pipeline_depth=2),
        max_batch_wait=2e-2,
    ),
    "audited": lambda: ServingConfig(
        darknight=DarKnightConfig(integrity=True), audit=AuditConfig()
    ),
}
