"""The unified serving-config surface: dict round-trip and presets.

``ServingConfig`` threads its sub-configs (DarKnight, stage costs, SLO
policy, audit trail, autoscale) behind one
strict-JSON surface derived from the dataclass fields
(``repro.serving.config``): ``to_dict``/``from_dict`` must round-trip
every combination, refuse typos and mistyped sections with the offending
path, and encode infinite SLO budgets as ``null``.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.pipeline.timing import StageCostModel
from repro.runtime import DarKnightConfig
from repro.serving import (
    PRESETS,
    AuditConfig,
    AutoscaleConfig,
    ServingConfig,
    SloClass,
    SloPolicy,
    build_slo_policy,
)

GOLDEN = Path(__file__).parent / "golden" / "serving_config_dicts.json"


def _full_config():
    return ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=8,
            integrity=True,
            pipeline_depth=2,
            num_shards=2,
            seed=7,
        ),
        max_batch_wait=5e-3,
        queue_capacity=128,
        coalesce=True,
        stage_costs=StageCostModel(),
        adaptive=True,
        slo=build_slo_policy({"premium": 5e-3}, {"tenant0": "premium"}),
        audit=AuditConfig(log_dir="/tmp/audit", model="tiny"),
        autoscale=AutoscaleConfig(min_shards=1, max_shards=3),
    )


def test_default_config_round_trips():
    cfg = ServingConfig()
    assert cfg.slo == SloPolicy() and cfg.slo.is_default
    assert ServingConfig.from_dict(cfg.to_dict()) == cfg


def test_full_config_round_trips_every_sub_config():
    cfg = _full_config()
    rebuilt = ServingConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg
    assert rebuilt.darknight == cfg.darknight
    assert rebuilt.adaptive == cfg.adaptive
    assert rebuilt.audit == cfg.audit
    assert rebuilt.autoscale == cfg.autoscale
    assert rebuilt.slo.classes == cfg.slo.classes
    assert rebuilt.slo.assignments == cfg.slo.assignments


def test_to_dict_is_strict_json_safe_with_infinite_budgets():
    cfg = _full_config()
    # The default SLO class carries an infinite budget; it must encode
    # as null, not the non-strict Infinity literal.
    assert math.isinf(cfg.slo.classes["standard"].latency_budget)
    text = json.dumps(cfg.to_dict(), allow_nan=False, sort_keys=True)
    rebuilt = ServingConfig.from_dict(json.loads(text))
    assert math.isinf(rebuilt.slo.classes["standard"].latency_budget)
    assert rebuilt == cfg


#: Every option a test alone used to set, by its dotted path in the layout.
#: ``adaptive`` is now a switch, so its six former fields sit under a bool.
#: The three ``darknight`` ones are the backend's serving mode, which every
#: provisioned shard runs in.
DELETED_OPTIONS = [
    "reuse_coefficients",
    "encrypt_requests",
    "shard_weights",
    "darknight.precompute",
    "darknight.fresh_coefficients",
    "darknight.per_sample_normalization",
    *(
        f"adaptive.{name}"
        for name in (
            "target_fill", "min_wait", "max_wait", "ewma_alpha", "epc_headroom",
            "warmup_arrivals",
        )
    ),
    *(
        f"autoscale.{name}"
        for name in (
            "utilization_high", "utilization_low", "ewma_alpha", "attainment_floor",
            "max_session_migrations", "epc_pool_bytes",
        )
    ),
    *(f"slo.classes.x.{name}" for name in ("shed_weight", "drain_weight", "admission_share")),
]


def _nested(path: str, value) -> dict:
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("deleted", DELETED_OPTIONS)
def test_from_dict_rejects_unknown_keys_and_non_dicts(deleted, capsys):
    with pytest.raises(ConfigurationError, match="unknown serving config"):
        ServingConfig.from_dict({"batch_wait": 0.01})
    with pytest.raises(ConfigurationError):
        ServingConfig.from_dict(["not", "a", "dict"])
    with pytest.raises(ConfigurationError, match=r"\['typo_knob'\] in autoscale"):
        ServingConfig.from_dict({"autoscale": {"min_shards": 1, "typo_knob": 1}})
    # The executor has one rank order; a config naming another is a typo.
    with pytest.raises(ConfigurationError, match=r"\['stage_ranker'\] in darknight"):
        ServingConfig.from_dict({"darknight": {"stage_ranker": "deadline"}})
    # An old config naming a deleted option fails loudly, naming where it is,
    # whether it comes from a file or from ``serve --set``.
    *parents, leaf = deleted.split(".")
    with pytest.raises(ConfigurationError) as raised:
        ServingConfig.from_dict(_nested(deleted, 1))
    assert f"'{leaf}'" in str(raised.value) and ".".join(parents) in str(raised.value)
    assert main(["serve", "--requests", "4", "--set", f"{deleted}=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {raised.value}\n"


def test_from_dict_validates_sub_config_values():
    with pytest.raises(ConfigurationError):
        ServingConfig.from_dict({"autoscale": {"min_shards": 0}})
    with pytest.raises(ConfigurationError):
        ServingConfig.from_dict({"darknight": {"virtual_batch_size": 0}})


@pytest.mark.parametrize("name", PRESETS)
def test_every_preset_builds_and_round_trips(name):
    cfg = ServingConfig.preset(name)
    assert ServingConfig.from_dict(cfg.to_dict()) == cfg


def test_presets_carry_their_posture():
    assert ServingConfig.preset("latency").adaptive is True
    assert ServingConfig.preset("latency").darknight.pipeline_depth == 2
    assert ServingConfig.preset("throughput").darknight.virtual_batch_size == 8
    audited = ServingConfig.preset("audited")
    assert audited.darknight.integrity and audited.audit is not None


def test_preset_overrides_and_unknown_name():
    cfg = ServingConfig.preset("latency", queue_capacity=64)
    assert cfg.queue_capacity == 64
    with pytest.raises(ConfigurationError, match="unknown serving preset"):
        ServingConfig.preset("speed")


# ----------------------------------------------------------------------
# the layout is derived, not enumerated
# ----------------------------------------------------------------------
def test_to_dict_is_byte_for_byte_the_hand_written_layout():
    """``golden/serving_config_dicts.json`` was dumped by the last commit
    whose ``to_dict`` named every field by hand (key order included); its
    ``slo`` sections were re-dumped when the policy stopped being
    optional (the default one is the default class alone)."""
    golden = json.loads(GOLDEN.read_text())
    configs = {"default": ServingConfig(), "full": _full_config()}
    configs.update({name: ServingConfig.preset(name) for name in PRESETS})
    assert sorted(configs) == sorted(golden)
    for name, cfg in configs.items():
        assert json.dumps(cfg.to_dict(), allow_nan=False) == json.dumps(golden[name]), name
        assert ServingConfig.from_dict(golden[name]) == cfg, name


def _assert_every_field_dumped(value, dumped, path="config"):
    assert set(dumped) == {f.name for f in dataclasses.fields(value)}, path
    for f in dataclasses.fields(value):
        child = getattr(value, f.name)
        if dataclasses.is_dataclass(child):
            _assert_every_field_dumped(child, dumped[f.name], f"{path}.{f.name}")


def test_every_field_of_every_section_is_dumped():
    """A field added to any section later cannot be forgotten."""
    cfg = _full_config()
    dumped = cfg.to_dict()
    sections = [f.name for f in dataclasses.fields(cfg) if dataclasses.is_dataclass(getattr(cfg, f.name))]
    assert sections == ["darknight", "stage_costs", "slo", "audit", "autoscale"]
    _assert_every_field_dumped(cfg, dumped)
    for name, cls in cfg.slo.classes.items():
        _assert_every_field_dumped(cls, dumped["slo"]["classes"][name], f"slo.classes.{name}")


@pytest.mark.parametrize(
    "data,path",
    [
        ({"darknight": None}, "darknight"),
        ({"adaptive": [1]}, "adaptive"),
        ({"audit": True}, "audit"),
        ({"slo": "premium"}, "slo"),
        ({"autoscale": 3}, "autoscale"),
        ({"partition": 2}, "partition"),
        ({"queue_capacity": True}, "queue_capacity"),
        ({"max_batch_wait": "soon"}, "max_batch_wait"),
        ({"slo": {"classes": {"gold": 5}}}, r"slo\.classes\.gold"),
        ({"slo": {"classes": {"gold": {"priority": 1.5}}}}, r"slo\.classes\.gold\.priority"),
        ({"autoscale": {"queue_high": {"x": 1}}}, r"autoscale\.queue_high"),
    ],
)
def test_from_dict_refuses_a_mistyped_value_naming_its_path(data, path):
    with pytest.raises(ConfigurationError, match=rf"bad serving config: {path}: expected"):
        ServingConfig.from_dict(data)


def test_from_dict_fills_what_a_hand_written_file_leaves_out():
    cfg = ServingConfig.from_dict(
        {"slo": {"classes": {"gold": {"latency_budget": 0.005, "priority": 2}}}, "max_batch_wait": 1}
    )
    assert cfg.slo.classes["gold"] == SloClass("gold", latency_budget=0.005, priority=2)
    assert cfg.max_batch_wait == 1.0 and isinstance(cfg.max_batch_wait, float)
    assert cfg.darknight == DarKnightConfig()


# ----------------------------------------------------------------------
# the config surface, by generator
# ----------------------------------------------------------------------
_seconds = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)
_names = st.text("abcdefgh", min_size=1, max_size=6)


@st.composite
def slo_policies(draw):
    classes = {}
    for name in draw(st.lists(_names, max_size=3, unique=True)):
        classes[name] = SloClass(
            name=name,
            # An infinite budget (no contract) is the case JSON cannot spell.
            latency_budget=draw(st.one_of(st.just(math.inf), _seconds)),
            priority=draw(st.integers(0, 3)),
        )
    assignments = {}
    if classes:
        assignments = draw(st.dictionaries(_names, st.sampled_from(sorted(classes)), max_size=3))
    return SloPolicy(classes=classes, assignments=assignments)


@st.composite
def serving_configs(draw):
    def optional(strategy):
        return draw(st.one_of(st.none(), strategy))

    return ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=draw(st.integers(1, 8)),
            collusion_tolerance=draw(st.integers(1, 3)),
            integrity=draw(st.booleans()),
            pipeline_depth=draw(st.integers(1, 4)),
            num_shards=draw(st.integers(1, 4)),
            epc_budget_bytes=optional(st.integers(1, 10**8)),
            seed=optional(st.integers(0, 2**31)),
        ),
        max_batch_wait=draw(_seconds),
        queue_capacity=draw(st.integers(1, 1024)),
        coalesce=draw(st.booleans()),
        stage_costs=optional(st.builds(StageCostModel, stage_overhead=_seconds)),
        adaptive=draw(st.booleans()),
        slo=draw(slo_policies()),
        audit=optional(st.builds(AuditConfig, log_dir=st.one_of(st.none(), _names))),
        autoscale=optional(
            st.builds(AutoscaleConfig, min_shards=st.integers(1, 2), max_shards=st.integers(2, 6))
        ),
        precompute=draw(st.booleans()),
        partition=draw(st.sampled_from(["replicated", "layered:2"])),
    )


@settings(max_examples=60, deadline=None)
@given(serving_configs())
def test_generated_configs_round_trip_through_strict_json(cfg):
    text = json.dumps(cfg.to_dict(), allow_nan=False)
    assert ServingConfig.from_dict(json.loads(text)) == cfg
