"""``benchmarks/trajectory.py`` folds canned driver lines into one row.

``run_once`` is the only place the script starts a child; stubbing it with
fixed JSON result lines pins what a trajectory row is made of without
running the benchmark.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", _SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

MANIFEST = {
    "command": ["python3", "benchmarks/e2e/run.py"],
    "run_seconds": 20,
    "workloads": [{"name": "serve"}, {"name": "train"}],
    "end_to_end": [{"name": "norm_items_per_s"}, {"name": "setup_s"}],
}

#: name -> unit of the per-layer metrics every canned line carries.
LAYER_UNITS = {
    "serving.queue.busy_s": "s",
    "serving.batches": "count",
    "gpu.bytes_moved": "bytes",
    "fieldmath.matmul.macs": "MACs",
    "serving.batch_fill_ratio": "share",
    "runtime.train_step.ms_p50": "ms",
    "sim_req_per_s": "req/s",
    "pipeline.sim_stage_s.encode": "s",
    "serving.sim_queue_wait_ms_p50": "ms",
    "bench.sim.ratio": "share",  # a part named ``sim`` is not ``sim_*``
    "simulated_s": "s",  # nor is a name that only begins with ``sim``
}


def _line(workload, seed, trace):
    """The JSON result line a ``run.py`` child would print."""
    base = 100.0 if workload == "serve" else 10.0
    metrics = {
        "norm_items_per_s": {"value": base * (4 - seed), "unit": "items/s"},
        "setup_s": {"value": 0.001 * seed * seed, "unit": "s"},
    }
    for i, (name, unit) in enumerate(LAYER_UNITS.items()):
        metrics[name] = {"value": float(i + 1), "unit": unit}
    correct = not (workload == "train" and trace == 1)
    failed = 2 if (workload == "train" and trace == 1) else int(workload == "serve" and seed == 2)
    return {"correct": correct, "failed": failed, "metrics": metrics}


@pytest.fixture()
def measured(monkeypatch):
    calls = []

    def run_once(repo, manifest, workload, seed, trace):
        calls.append((workload, seed, trace))
        return _line(workload, seed, trace)

    monkeypatch.setattr(trajectory, "run_once", run_once)
    return trajectory.measure(Path("."), MANIFEST), calls


def test_runs_are_round_robin_then_one_traced_run_per_workload(measured):
    _, calls = measured
    assert calls == [
        ("serve", 1, 0), ("train", 1, 0),
        ("serve", 2, 0), ("train", 2, 0),
        ("serve", 3, 0), ("train", 3, 0),
        ("serve", 1, 1), ("train", 1, 1),
    ]


def test_each_end_to_end_metric_gets_median_quartiles_and_iqr(measured):
    rows, _ = measured
    # items/s over seeds 1-3 is 3b, 2b, b; setup_s is 0.001, 0.004, 0.009.
    for workload, base in (("serve", 100.0), ("train", 10.0)):
        items = rows[workload]["norm_items_per_s"]
        assert items == {"median": 2 * base, "q1": base, "q3": 3 * base,
                         "iqr": 2 * base, "n": 3}
        setup = rows[workload]["setup_s"]
        assert setup["median"] == pytest.approx(0.004)
        assert (setup["q1"], setup["q3"]) == pytest.approx((0.001, 0.009))
        assert setup["iqr"] == pytest.approx(0.008) and setup["n"] == 3


def test_counts_keep_only_count_bytes_and_macs_units(measured):
    rows, _ = measured
    for entry in rows.values():
        assert set(entry["counts"]) == {
            "serving.batches", "gpu.bytes_moved", "fieldmath.matmul.macs"
        }
        assert entry["counts"]["gpu.bytes_moved"] == 3.0


def test_sim_keeps_only_names_with_a_sim_part(measured):
    rows, _ = measured
    for entry in rows.values():
        assert set(entry["sim"]) == {
            "sim_req_per_s", "pipeline.sim_stage_s.encode", "serving.sim_queue_wait_ms_p50"
        }


def test_correct_and_failed_fold_over_untraced_and_traced_runs(measured):
    rows, _ = measured
    # serve: seed 2's untraced run failed one item; all runs correct.
    assert rows["serve"]["correct"] is True and rows["serve"]["failed"] == 1
    # train: only the traced run is wrong, and it alone failed two items.
    assert rows["train"]["correct"] is False and rows["train"]["failed"] == 2


def test_append_row_round_trips_as_strict_json(tmp_path, measured):
    rows, _ = measured
    path = tmp_path / "BENCH_e2e.json"
    first = {"commit": "a" * 40, "note": "counts unchanged", "workloads": rows}
    trajectory.append_row(path, first)
    trajectory.append_row(path, {"commit": "b" * 40, "workloads": {}})

    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert [row["commit"] for row in doc["rows"]] == ["a" * 40, "b" * 40]
    assert doc["rows"][0] == json.loads(json.dumps(first))
    with pytest.raises(ValueError):
        trajectory.append_row(path, {"commit": "c" * 40, "value": math.nan})
    assert len(json.loads(path.read_text())["rows"]) == 2
