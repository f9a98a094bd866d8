"""Smoke tests for the ``python -m repro`` command-line entry points.

``serve`` takes trace flags plus ``--config``/``--set``: the deployment is
a :class:`~repro.serving.ServingConfig`, and nothing about its layout (or
its rules) may live in the CLI.
"""

import dataclasses
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _serve_parser, _serving_config, main, parse_seed_flag
from repro.perf import fig5_series, headline_speedups, table1_rows
from repro.pipeline.timing import StageCostModel
from repro.runtime import DarKnightConfig
from repro.serving import AuditConfig, AutoscaleConfig, ServingConfig


def test_module_entry_point_prints_report(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["repro"])
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Headline" in out


#: Every exhibit title the report prints, in paper order.
EXHIBIT_TITLES = (
    "Table 1 —", "Table 2 —", "Table 3 —", "Table 4 —", "Fig 3 —", "Fig 5 —",
    "Fig 6a —", "Fig 6b —", "Fig 7 —", "Headline claims",
)


def _report(cwd, src):
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "repro", "report"],
        cwd=cwd, env=env, capture_output=True, check=True,
    ).stdout


def test_report_is_the_same_from_a_copy_of_src_alone(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    shutil.copytree(
        repo / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = _report(repo, repo / "src")
    assert _report(tmp_path, tmp_path / "src") == out
    text = out.decode()
    positions = [text.find(title) for title in EXHIBIT_TITLES]
    assert -1 not in positions and positions == sorted(positions), positions

    def row(title, label):
        section = text[text.index(title):]
        return next(line for line in section.splitlines() if line.startswith(label))

    forward = table1_rows()[0]
    line = row("Table 1 —", "Forward Pass")
    assert f"| {forward['total']:.2f}x" in line and "| 119.03x" in line
    vgg = fig5_series()["VGG16"]
    line = row("Fig 5 —", "VGG16")
    assert f"| {vgg['non_pipelined']:.1f}x" in line and "| 8.0x" in line
    headline = headline_speedups()
    line = row("Headline claims", "avg training speedup")
    assert f"| 6.5x  | {headline['training_speedup_avg']:.1f}x" in line
    line = row("Headline claims", "avg inference speedup")
    assert f"| 12.5x | {headline['inference_speedup_avg']:.1f}x" in line


@pytest.mark.parametrize(
    "argv", [["serv", "--model", "tiny"], ["report", "--seed", "1"], ["-q"]]
)
def test_an_unknown_subcommand_is_an_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: python -m repro")


def test_serve_subcommand_smoke(capsys):
    """Tier-1 end-to-end: the serving subsystem behind the CLI."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "16",
            "--tenants", "2",
            "--set", "darknight.virtual_batch_size=4",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "served 16 requests from 2 tenants" in out
    assert "Serving metrics" in out
    assert "completed requests  | 16" in out
    assert "attestation handshakes" in out


def test_serve_subcommand_with_integrity(capsys):
    rc = main(
        [
            "serve", "--model", "tiny", "--requests", "8",
            "--set", "darknight.integrity=true", "--seed", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "integrity=on" in out
    assert "integrity failures  | 0" in out


def test_serve_subcommand_with_pipeline_depth(capsys):
    """darknight.pipeline_depth threads to the staged executor and serves cleanly."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "16",
            "--tenants", "2",
            "--set", "darknight.pipeline_depth=3",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline depth 3" in out
    assert "completed requests  | 16" in out


def test_serve_rejects_pipeline_depth_below_one(capsys):
    rc = main(["serve", "--model", "tiny", "--set", "darknight.pipeline_depth=0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pipeline depth must be >= 1" in err


def test_pipelined_serve_completes_the_same_trace(capsys):
    """Same trace, same seed: depth 3 completes every request depth 1 does.

    (Bit-identity of the served logits across depths is asserted at the
    server level in test_serving_server.py; the CLI only prints counts.)
    """
    import re

    outputs = []
    for depth in ("1", "3"):
        rc = main(
            [
                "serve",
                "--model", "tiny",
                "--requests", "12",
                "--set", f"darknight.pipeline_depth={depth}",
                "--seed", "4",
            ]
        )
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    counts = [
        re.search(r"completed requests\s+\|\s+(\d+)", out).group(1) for out in outputs
    ]
    assert counts == ["12", "12"]


def test_serve_subcommand_with_shards(capsys):
    """darknight.num_shards provisions parallel enclave shards and serves cleanly."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "16",
            "--tenants", "4",
            "--set", "darknight.num_shards=2",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 shard(s)" in out
    assert "completed requests  | 16" in out
    assert "2 enclave shard(s)" in out


def test_serve_rejects_num_shards_below_one(capsys):
    rc = main(["serve", "--model", "tiny", "--set", "darknight.num_shards=0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "num shards must be >= 1" in err


def test_serve_rejects_bad_virtual_batch_cleanly(capsys):
    rc = main(["serve", "--model", "tiny", "--set", "darknight.virtual_batch_size=0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "virtual batch size" in err


def test_explicit_report_subcommand(capsys):
    assert main(["report"]) == 0
    assert "Table 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,expected",
    [
        ([], 0),
        (["--seed", "7"], 7),
        (["--seed=9"], 9),
        (["--other", "--seed", "3", "x"], 3),
        (["--seed", "not-a-number"], 0),
    ],
)
def test_parse_seed_flag(argv, expected):
    assert parse_seed_flag(argv) == expected


def test_serve_subcommand_with_slo_classes(capsys):
    rc = main(
        [
            "serve", "--model", "tiny", "--requests", "24",
            "--slo-budget", "premium=5",
            "--slo-class", "tenant0=premium",
            "--set", "darknight.pipeline_depth=2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "SLO classes: " in out
    assert "premium=5.0ms <- tenant0" in out
    assert "SLO attainment" in out


def test_serve_prints_slo_classes_for_any_policy_but_the_default(capsys):
    """A class defined but assigned to nobody still makes a policy other
    than the default one, so the class line and rows print; the default
    policy prints neither."""
    assert main(["serve", "--model", "tiny", "--requests", "8", "--slo-budget", "premium=8"]) == 0
    out = capsys.readouterr().out
    assert "SLO classes: premium=8.0ms, standard (no budget)\n" in out
    assert "SLO attainment" in out
    assert main(["serve", "--model", "tiny", "--requests", "8"]) == 0
    out = capsys.readouterr().out
    assert "SLO classes" not in out and "SLO attainment" not in out


def test_serve_refuses_a_null_slo_section(capsys):
    """Every deployment has a policy: ``slo=null`` is refused, naming it."""
    assert main(["serve", "--model", "tiny", "--requests", "4", "--set", "slo=null"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad serving config: slo: expected an object")
    assert captured.err.count("\n") == 1


def test_serve_rejects_slo_class_without_budget(capsys):
    rc = main(["serve", "--model", "tiny", "--slo-class", "tenant0=premium"])
    assert rc == 2
    assert "class budget" in capsys.readouterr().err


def test_serve_rejects_malformed_slo_flags(capsys):
    rc = main(["serve", "--model", "tiny", "--slo-budget", "premium"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err
    rc = main(["serve", "--model", "tiny", "--slo-budget", "premium=fast"])
    assert rc == 2
    assert "milliseconds" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the audit trail behind the CLI
# ----------------------------------------------------------------------
def _audited_serve(tmp_path, capsys, n=12):
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", str(n),
            "--tenants", "3",
            "--set", "darknight.virtual_batch_size=4",
            "--set", "darknight.num_shards=2",
            "--seed", "0",
            "--set", f"audit.log_dir={tmp_path}",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit chain heads" in out and "audit windows" in out
    return out


def test_serve_audit_then_check_chain(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chain OK" in out
    assert "shard 0" in out and "shard 1" in out


def test_prove_then_verify_roundtrip_and_tamper(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    proof_path = tmp_path / "proof.json"
    rc = main(
        [
            "audit", "prove",
            "--log-dir", str(tmp_path),
            "--request-id", "5",
            "--out", str(proof_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert proof_path.exists()

    rc = main(["audit", "verify", "--proof", str(proof_path)])
    assert rc == 0
    assert "PROOF OK" in capsys.readouterr().out

    # Verifying against the wrong root must fail with a nonzero exit.
    import json as _json

    blob = _json.loads(proof_path.read_text())
    blob["shard_root"] = "0" * 64
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(_json.dumps(blob))
    rc = main(["audit", "verify", "--proof", str(bad_path)])
    assert rc == 1
    assert "PROOF FAILED" in capsys.readouterr().out


def test_audit_replay_matches_committed_digests(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    # No audit.model was set: the manifest names the model --model served.
    assert json.loads((tmp_path / "manifest.json").read_text())["model"] == "tiny"
    rc = main(
        ["audit", "replay", "--log-dir", str(tmp_path), "--request-id", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "MATCH" in out


def test_audit_replay_by_request_takes_the_exit_member_under_layered(tmp_path, capsys):
    """Under ``layered:2`` the entry member's leaves commit activations at
    the cut; replay by request id must take the exit member's window."""
    rc = main(
        [
            "serve", "--model", "tiny", "--requests", "32", "--seed", "0",
            "--set", "darknight.num_shards=2",
            "--set", "partition=layered:2",
            "--set", f"audit.log_dir={tmp_path}",
        ]
    )
    assert rc == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["partition"] == "layered:2"
    capsys.readouterr()
    for request_id in (0, 8, 30):
        rc = main(
            ["audit", "replay", "--log-dir", str(tmp_path), "--request-id", str(request_id)]
        )
        assert rc == 0 and "(shard 1): " in capsys.readouterr().out
    rc = main(["audit", "replay", "--log-dir", str(tmp_path), "--shard", "0", "--window", "0"])
    assert rc == 2
    assert "exit shard 1" in capsys.readouterr().err
    # A flipped committed output digest on the exit member still fails.
    exit_log = tmp_path / "shard1.audit.jsonl"
    lines = exit_log.read_text().splitlines()
    record = json.loads(lines[0])
    digest = record["leaves"][0]["output_digest"]
    record["leaves"][0]["output_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    exit_log.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    rc = main(["audit", "replay", "--log-dir", str(tmp_path), "--request-id", "0"])
    assert rc != 0
    assert capsys.readouterr().err


def test_tampered_log_fails_check_chain_and_recovers(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    log_path = next(tmp_path.glob("shard*.audit.jsonl"))
    lines = log_path.read_text().splitlines()
    # Truncate the final line mid-record: strict check fails...
    log_path.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err
    # ...and --recover keeps the longest valid prefix, reporting the drop.
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path), "--recover"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dropped" in out


def test_audit_unknown_request_errors_cleanly(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    rc = main(
        ["audit", "prove", "--log-dir", str(tmp_path), "--request-id", "999"]
    )
    assert rc == 2
    assert "appears in no shard" in capsys.readouterr().err


def test_audit_empty_dir_errors_cleanly(tmp_path, capsys):
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path)])
    assert rc == 2
    assert "no shard" in capsys.readouterr().err


_SCHEMA1 = Path(__file__).parent / "golden" / "audit_schema1"


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "--log-dir", str(_SCHEMA1), "--request-id", "3"],
        ["replay", "--log-dir", str(_SCHEMA1), "--shard", "0", "--window", "0"],
        ["check-chain", "--log-dir", str(_SCHEMA1)],
        ["check-chain", "--log-dir", str(_SCHEMA1), "--recover"],
        ["prove", "--log-dir", str(_SCHEMA1), "--request-id", "3"],
        ["verify", "--proof", str(_SCHEMA1 / "proof.json")],
    ],
    ids=["replay-request", "replay-window", "check-chain", "recover", "prove", "verify"],
)
def test_a_trail_in_the_previous_format_exits_naming_both_schemas(argv, capsys):
    """A trail the schema-1 format wrote is refused with one error line —
    never a ``KeyError``/``TypeError`` from reading it as the new one."""
    rc = main(["audit", *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "schema 1" in err and "schema 2" in err


# ----------------------------------------------------------------------
# the unified config surface: --config, --set, and what from_dict refuses
# ----------------------------------------------------------------------
def test_serve_with_config_preset(capsys):
    rc = main(["serve", "--config", "throughput", "--requests", "16", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    # The preset's K=8 took effect with nothing else said.
    assert "coalesced K=8" in out
    assert "completed requests  | 16" in out


def test_serve_with_config_file_round_trips(tmp_path, capsys):
    cfg = ServingConfig.preset("latency")
    path = tmp_path / "serving.json"
    path.write_text(json.dumps(cfg.to_dict()))
    rc = main(["serve", "--config", str(path), "--requests", "16", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adaptive K=" in out  # the file's adaptive switch took effect
    assert "completed requests  | 16" in out


def test_serve_config_rejects_unknown_preset_and_bad_file(tmp_path, capsys):
    rc = main(["serve", "--config", "warp-speed", "--requests", "4"])
    assert rc == 2
    assert "neither a preset" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 1}')
    rc = main(["serve", "--config", str(bad), "--requests", "4"])
    assert rc == 2
    assert "unknown serving config keys" in capsys.readouterr().err


def test_serve_flags_override_the_config_they_are_given_with(capsys, recwarn):
    rc = main(
        [
            "serve",
            "--config", "throughput",
            "--set", "darknight.virtual_batch_size=2",
            "--requests", "8",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "coalesced K=2" in out  # --set beat the preset's K=8 ...
    assert "pipeline depth 2" in out  # ... and only the field it names
    assert not recwarn.list  # a plain override, nothing deprecated about it


def test_serve_flags_not_given_leave_a_config_file_alone(tmp_path, capsys):
    cfg = ServingConfig(
        darknight=DarKnightConfig(virtual_batch_size=2, integrity=True, num_shards=2),
        coalesce=False,
        queue_capacity=32,
    )
    path = tmp_path / "serving.json"
    path.write_text(json.dumps(cfg.to_dict()))
    rc = main(
        ["serve", "--config", str(path), "--requests", "8", "--set", "darknight.num_shards=1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # Every line of the file survives except the one field --set named.
    assert "per-request, integrity=on" in out
    assert "1 shard(s)" in out
    assert "completed requests  | 8" in out
    # A file written before n_workers was dropped is refused like any typo.
    path.write_text(json.dumps({**cfg.to_dict(), "n_workers": 2}))
    assert main(["serve", "--config", str(path), "--requests", "8"]) == 2
    assert "unknown serving config keys ['n_workers']" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["serve", "--requests", "8", "--workers", "3"])
    # The flags that used to mirror config fields are gone, not deprecated.
    for flag in (["--integrity"], ["--num-shards", "2"], ["--gpus", "8"], ["--audit-log", "x"]):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "8", *flag])


def test_serve_autoscale_smoke(capsys):
    rc = main(
        [
            "serve",
            "--requests", "48",
            "--rate", "20000",
            "--set", "autoscale.max_shards=3",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "elastic 1-3 shard(s)" in out
    assert "completed requests  | 48" in out
    assert "autoscale:" in out
    assert "shard-seconds" in out


@pytest.mark.parametrize(
    "section",
    [
        '{"darknight": null}',
        '{"adaptive": [1]}',
        '{"audit": true}',
        '{"slo": "premium"}',
        '{"autoscale": 3}',
        '{"partition": 2}',
        '["not", "an", "object"]',
    ],
)
def test_serve_refuses_a_mistyped_section_at_the_door(tmp_path, capsys, section):
    """Exit 2 with one ``error:`` line — never a traceback, never served."""
    path = tmp_path / "bad.json"
    path.write_text(section)
    for extra in ([], ["--set", "queue_capacity=8"]):
        assert main(["serve", "--config", str(path), "--requests", "4", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad serving config: ")
        assert captured.err.count("\n") == 1


def test_serve_config_serves_what_the_library_serves(tmp_path, capsys):
    """An EPC budget sizes every enclave's EPC model, adaptive or not."""
    path = tmp_path / "epc.json"
    path.write_text('{"darknight": {"epc_budget_bytes": 50000000}}')
    assert main(["serve", "--config", str(path), "--requests", "8"]) == 0
    assert "completed requests  | 8" in capsys.readouterr().out


def _configured(*argv) -> ServingConfig:
    return _serving_config(_serve_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "section,cls,name,value",
    [
        ("darknight", DarKnightConfig, "virtual_batch_size", 6),
        ("darknight", DarKnightConfig, "integrity", True),
        ("darknight", DarKnightConfig, "epc_budget_bytes", 4096),
        ("stage_costs", StageCostModel, "stage_overhead", 0.5),
        ("autoscale", AutoscaleConfig, "queue_high", 8.0),
        ("audit", AuditConfig, "log_dir", "some/dir"),
        ("autoscale", AutoscaleConfig, "max_shards", 6),
        (None, ServingConfig, "partition", "layered:2"),
        (None, ServingConfig, "coalesce", False),
        (None, ServingConfig, "adaptive", False),
    ],
)
def test_set_is_dataclasses_replace_on_the_same_field(section, cls, name, value):
    base = ServingConfig.preset("latency")
    spelled = value if isinstance(value, str) else json.dumps(value)
    path = name if section is None else f"{section}.{name}"
    if section is None:
        expected = dataclasses.replace(base, **{name: value})
    else:
        # Setting a field of an absent section creates the section.
        current = getattr(base, section) or cls()
        expected = dataclasses.replace(
            base, **{section: dataclasses.replace(current, **{name: value})}
        )
    assert _configured("--config", "latency", "--set", f"{path}={spelled}") == expected


def test_set_applies_in_order_and_null_removes_a_section():
    assert _configured("--set", "audit={}").audit == AuditConfig()
    assert _configured("--config", "audited", "--set", "audit=null").audit is None
    cfg = _configured(
        "--set", "audit.log_dir=trail", "--set", "audit=null",
        "--set", "audit.model=tiny",
    )
    assert cfg.audit == AuditConfig(model="tiny")


def test_presets_can_be_switched_off(capsys):
    rc = main(
        ["serve", "--config", "audited", "--requests", "8", "--set", "darknight.integrity=false"]
    )
    out = capsys.readouterr().out
    assert rc == 0 and "integrity=off" in out and "audit chain heads" in out
    rc = main(["serve", "--config", "latency", "--requests", "8", "--set", "adaptive=false"])
    out = capsys.readouterr().out
    assert rc == 0 and "coalesced K=4" in out and "adaptive" not in out


@pytest.mark.parametrize(
    "assignment,needle",
    [
        ("darknight.typo=1", "['typo'] in darknight"),
        # The deployment's precompute switch is top-level, not darknight's.
        ("darknight.precompute=true", "['precompute'] in darknight"),
        ("autoscale.queue_high.x=1", "autoscale.queue_high: expected"),
        ("no_such_section.field=1", "['no_such_section']"),
        ("darknight.integrity=yes", "darknight.integrity: expected"),
        ("darknight.integrity", "expects key=value"),
    ],
)
def test_set_cannot_reach_what_the_layout_does_not_have(capsys, assignment, needle):
    assert main(["serve", "--requests", "4", "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


def test_serve_parser_mirrors_no_config_field():
    """The mirror cannot grow back: a deployment field is reached by --set.

    ``--model`` and ``--seed`` name the *trace* (which network the requests
    are for, which stream they are drawn from); ``audit.model`` and
    ``darknight.seed`` default from them, not the other way round.
    """
    sections = (
        ServingConfig, DarKnightConfig, AutoscaleConfig, AuditConfig,
        StageCostModel,
    )
    fields = {
        "--" + f.name.replace("_", "-") for cls in sections for f in dataclasses.fields(cls)
    }
    options = {
        opt for action in _serve_parser()._actions for opt in action.option_strings
    } - {"-h", "--help"}
    assert options & fields == {"--model", "--seed"}
    assert len(options) <= 9


def test_the_composed_example_is_the_deployment_the_ruler_measures(capsys):
    """examples/configs/composed.json == bench-e2e's serve-resnet-composed."""
    path = Path(__file__).parent.parent / "examples" / "configs" / "composed.json"
    assert _configured("--config", str(path)) == ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=4, integrity=True, num_shards=4, pipeline_depth=2
        ),
        partition="layered:2",
        precompute=True,
        audit=AuditConfig(),
    )
    rc = main(
        ["serve", "--model", "mini-resnet", "--config", str(path), "--requests", "16"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "partition layered:2" in out and "precompute:" in out and "audit chain heads" in out
