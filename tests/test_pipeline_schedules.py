"""Schedules without deadlines are pinned span for span.

``tests/golden/pipeline_schedules.json`` holds, per case, every stage span
``(job, layer, stage, start, end)`` and every group's ``(start, finish)``
that :meth:`~repro.pipeline.PipelineExecutor.run_grouped` produced for a
window of budget-less batches.  The cases cover both serving models at
depths 1–3, one to three groups released at staggered times, a
``layered:2`` cut whose consumer prices a sealed hand-off, and precompute
with a priced mask-generation bandwidth (so weight staging and idle-gap
refills are on the clock).  Every job carries ``deadline = inf``, so the
rank order reduces to earliest start, decode first, oldest job — a change
to the scheduler that moves any of these floats moves a deployment that
never asked for SLO ranking.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_serving_model
from repro.pipeline import PipelineExecutor, StageCostModel, WindowItem
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.sharding.partition import LayerPartitionPlanner

GOLDEN = Path(__file__).parent / "golden" / "pipeline_schedules.json"


def _record(groups, stats) -> dict:
    return {
        "spans": [[s.job, s.layer, s.stage, s.start, s.end] for s in stats.spans],
        "groups": [[g.start, g.finish] for g in groups],
    }


def schedule(case: dict) -> list[list[dict]]:
    """Run one case; per window, one ``_record`` per partition member."""
    network, input_shape = build_serving_model(case["model"], seed=case["seed"])
    n_members = case.get("partition", 1)
    ranges = LayerPartitionPlanner(network).plan(n_members)
    costs = StageCostModel(maskgen_bandwidth=case.get("maskgen_bandwidth"))
    executors = [
        PipelineExecutor(
            network,
            DarKnightBackend(
                DarKnightConfig(virtual_batch_size=case["k"], seed=case["seed"] + member),
                serving=True,
                precompute=case.get("precompute", False),
            ),
            pipeline_depth=case["depth"],
            costs=costs,
        )
        for member in range(n_members)
    ]
    windows = []
    for w, window in enumerate(case["windows"]):
        rng = np.random.default_rng(case["seed"] + 100 * w)
        items = [
            WindowItem(rng.normal(size=(group["rows"],) + input_shape), group["release"])
            for group in window
        ]
        records = []
        for executor, step_range in zip(executors, ranges):
            groups, stats = executor.run_grouped(items, step_range=step_range)
            records.append(_record(groups, stats))
            # The consumer unseals what the producer handed over: price it
            # by the live values' bytes.
            items = [
                WindowItem(
                    g.output,
                    g.finish,
                    transfer_bytes=sum(int(v.nbytes) for v in g.output.values()),
                )
                for g in groups
                if isinstance(g.output, dict)
            ]
        windows.append(records)
    return windows


_GOLDEN = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _GOLDEN["cases"], ids=lambda case: case["name"])
def test_schedule_reproduces_every_span(case):
    assert schedule(case) == case["expected"]


def test_the_cases_cover_what_they_claim():
    cases = _GOLDEN["cases"]
    assert {c["model"] for c in cases} == {"tiny", "mini-resnet"}
    assert {c["depth"] for c in cases} == {1, 2, 3}
    assert {len(window) for c in cases for window in c["windows"]} == {1, 2, 3}
    stages = {
        span[2]
        for c in cases
        for window in c["expected"]
        for record in window
        for span in record["spans"]
    }
    assert {"transfer", "stage_weights", "precompute"} <= stages
