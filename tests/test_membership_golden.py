"""Membership facts pinned to a golden file.

``golden/membership.json`` holds, for seven deployments whose membership
moves (two autoscaled phased traces, the CLI's autoscaled ``layered:2``
smoke, and the three schedules the membership property test shrank), what
every membership reader reports at the end of the run: the whole
``report.autoscale`` dict, the mesh's handshake and link counts, the
router's pins, each unit's state, each shard's ``retired_at``, the
session migrations and the rendered report.  The report's wall-clock
"audit commit (ms)" row is left out; every other byte must match,
whichever object owns each fact.

Regenerate (only when a change is meant to move a membership fact) with::

    PYTHONPATH=src:tests python -c "import test_membership_golden as t; t.dump()"
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import _serve_parser, _serving_config, build_serving_model
from repro.serving import PrivateInferenceServer, phased_trace, synthetic_trace
from test_serving_autoscale import _elastic_autoscale, _run_membership_schedule, _server

GOLDEN = Path(__file__).parent / "golden" / "membership.json"


def _autoscale(seed):
    """The autoscaled deployment of ``test_serving_reports``."""
    trace = phased_trace(
        [(60, 2e-5), (30, 2e-2), (60, 2e-5)], (16,), n_tenants=8, seed=seed + 11
    )
    server = _server(num_shards=1, autoscale=_elastic_autoscale())
    return server, server.serve_trace(trace)


def _cli_layered_autoscale():
    """CI's "layered:2 under the autoscaler" smoke, as ``serve`` builds it."""
    args = _serve_parser().parse_args(
        [
            "--set", "darknight.num_shards=2",
            "--set", "partition=layered:2",
            "--set", "autoscale.min_shards=2",
            "--set", "autoscale.max_shards=4",
            "--requests", "200",
            "--rate", "4000",
        ]
    )
    config = _serving_config(args)
    config = dataclasses.replace(
        config, darknight=dataclasses.replace(config.darknight, seed=0)
    )
    network, input_shape = build_serving_model(args.model, seed=0)
    trace = synthetic_trace(
        n_requests=args.requests,
        input_shape=input_shape,
        n_tenants=args.tenants,
        mean_interarrival=1.0 / args.rate,
        seed=0,
    )
    server = PrivateInferenceServer(network, config)
    return server, server.serve_trace(trace)


_SCHEDULES = {
    "scale-out-past-dead-peer": [(0, "provision", 0), (0, "kill", 1), (2, "provision", 0)],
    "scale-in-to-nothing": [
        (0, "provision", 0), (0, "kill", 0), (0, "decommission", 0), (0, "decommission", 0)
    ],
    "outage-then-recover": [(0, "kill", 0), (4, "provision", 0)],
}

DEPLOYMENTS = {
    "autoscale/0": lambda: _autoscale(0),
    "autoscale/1": lambda: _autoscale(1),
    "cli-layered-autoscale": _cli_layered_autoscale,
    **{
        f"schedule/{name}": (lambda steps=steps: _run_membership_schedule(steps))
        for name, steps in _SCHEDULES.items()
    },
}


def _observe(server, report) -> dict:
    return {
        "autoscale": report.autoscale,
        "handshakes": server.mesh.handshakes,
        "n_links": len(server.mesh._links),
        "pins": server.router.pins(),
        "unit_states": [u.state for u in server.units],
        "retired_at": [s.retired_at for s in server.shards],
        "migrations": server.membership.migrations,
        "render": [
            line
            for line in report.render().splitlines()
            if "audit commit (ms)" not in line
        ],
    }


def dump() -> None:
    observed = {name: _observe(*run()) for name, run in DEPLOYMENTS.items()}
    GOLDEN.write_text(json.dumps(observed, indent=1, allow_nan=False) + "\n")


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_membership_matches_the_golden(name):
    golden = json.loads(GOLDEN.read_text())
    observed = json.loads(json.dumps(_observe(*DEPLOYMENTS[name]()), allow_nan=False))
    assert observed == golden[name]


def test_the_golden_moves_membership():
    """Each autoscaled run scales, and each schedule changes membership."""
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(DEPLOYMENTS)
    for name in ("autoscale/0", "autoscale/1", "cli-layered-autoscale"):
        assert golden[name]["autoscale"]["scale_outs"] >= 1
    assert golden["cli-layered-autoscale"]["render"][-1] == (
        "autoscale: 1 scale-outs, 0 scale-ins, peak 4 shards, 0.234 shard-seconds"
    )
    for name in _SCHEDULES:
        assert golden[f"schedule/{name}"]["autoscale"] is None
        assert "failed" in golden[f"schedule/{name}"]["unit_states"]
