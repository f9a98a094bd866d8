"""``benchmarks/check_regression.py`` judges kernels pair by pair.

``run_round`` is the only place the gate starts children; stubbing it with
synthetic pytest-benchmark documents pins the verdict (a kernel fails only
when it is slower than the bound in a majority of pairs) without timing
anything.  One test runs it for real on two tiny trees to pin the lockstep.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("check_regression")
validate_artifacts = _load("validate_artifacts")

SLOW = "test_quantize_speed"


def _document(mins: dict) -> dict:
    return {
        "datetime": "2026-10-19T00:00:00+00:00",
        "benchmarks": [{"name": name, "stats": {"min": t}} for name, t in mins.items()],
    }


def _mins(scale: dict | None = None, drop: str | None = None) -> dict:
    scale = scale or {}
    return {
        name: 1e-4 * (1 + i) * scale.get(name, 1.0)
        for i, name in enumerate(gate.TRACKED)
        if name != drop
    }


@pytest.fixture()
def trees(tmp_path):
    baseline, candidate = tmp_path.resolve() / "baseline", tmp_path.resolve() / "candidate"
    baseline.mkdir()
    candidate.mkdir()
    return baseline, candidate


def _stub(monkeypatch, trees, baseline_docs, candidate_docs):
    """Serve the ``i``-th document of a side on that side's ``i``-th run;
    returns the sides in the order they ran."""
    baseline, candidate = trees
    monkeypatch.setattr(gate, "REPO", candidate)
    queues = {baseline: list(baseline_docs), candidate: list(candidate_docs)}
    ran = []

    def run_round(round_trees, outs):
        for tree, out in zip(round_trees, outs):
            ran.append("baseline" if tree == baseline else "candidate")
            doc = queues[tree].pop(0)
            out.write_text(doc if isinstance(doc, str) else json.dumps(doc))

    monkeypatch.setattr(gate, "run_round", run_round)
    return ran


def _main(trees, tmp_path, *extra):
    return gate.main([str(tmp_path / "out" / "mb.json"), "--baseline", str(trees[0]), *extra])


def test_identical_pairs_pass_and_sides_alternate(monkeypatch, trees, tmp_path, capsys):
    docs = [_document(_mins())] * gate.ROUNDS
    ran = _stub(monkeypatch, trees, docs, docs)
    assert _main(trees, tmp_path) == 0
    assert "gate passed" in capsys.readouterr().out
    assert ran[:4] == ["baseline", "candidate", "candidate", "baseline"]
    assert len(ran) == 2 * gate.ROUNDS
    written = json.loads((tmp_path / "out" / "mb.json").read_text())
    assert written == docs[-1]


def test_a_kernel_slower_in_every_pair_fails_by_name(monkeypatch, trees, tmp_path, capsys):
    slow = [_document(_mins({SLOW: 1.5}))] * gate.ROUNDS
    _stub(monkeypatch, trees, [_document(_mins())] * gate.ROUNDS, slow)
    assert _main(trees, tmp_path) == 1
    regressions = [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("REGRESSION")
    ]
    assert len(regressions) == 1
    assert regressions[0].startswith(f"REGRESSION: {SLOW}: candidate/baseline 1.50")
    assert f"in {gate.ROUNDS} of {gate.ROUNDS} pairs" in regressions[0]


def test_a_kernel_slower_in_a_minority_of_pairs_passes(monkeypatch, trees, tmp_path):
    minority = gate.ROUNDS // 2
    candidate = [_document(_mins({SLOW: 1.5}))] * minority + [_document(_mins())] * (
        gate.ROUNDS - minority
    )
    _stub(monkeypatch, trees, [_document(_mins())] * gate.ROUNDS, candidate)
    assert _main(trees, tmp_path) == 0


def test_the_bound_is_exclusive_and_follows_threshold():
    at_bound = {SLOW: [1.25] * gate.ROUNDS}
    assert gate.check(at_bound, 0.25) == []
    assert len(gate.check(at_bound, 0.2)) == 1


def test_a_kernel_new_in_the_candidate_is_reported_not_gated(
    monkeypatch, trees, tmp_path, capsys
):
    new = "test_served_step_speed"
    _stub(
        monkeypatch, trees,
        [_document(_mins(drop=new))] * gate.ROUNDS,
        [_document(_mins({new: 3.0}))] * gate.ROUNDS,
    )
    assert _main(trees, tmp_path) == 0
    assert f"{new}: not in the baseline, not gated" in capsys.readouterr().out


def test_a_kernel_missing_from_the_candidate_is_an_error(monkeypatch, trees, tmp_path):
    _stub(
        monkeypatch, trees,
        [_document(_mins())] * gate.ROUNDS,
        [_document(_mins(drop=SLOW))] * gate.ROUNDS,
    )
    with pytest.raises(SystemExit, match=f"missing from the candidate: \\['{SLOW}'\\]"):
        _main(trees, tmp_path)


def test_a_non_strict_document_is_rejected(monkeypatch, trees, tmp_path):
    text = json.dumps(_document(_mins())).replace("0.0001", "NaN", 1)
    _stub(monkeypatch, trees, [text], [text])
    with pytest.raises(ValueError, match="non-strict JSON constant 'NaN'"):
        _main(trees, tmp_path)


def test_an_appended_entry_is_strict_json_with_every_pair(monkeypatch, trees, tmp_path):
    trajectory = tmp_path / "BENCH_kernels.json"
    monkeypatch.setattr(gate, "TRAJECTORY", trajectory)
    docs = [_document(_mins())] * gate.ROUNDS
    _stub(monkeypatch, trees, docs, docs)
    assert _main(trees, tmp_path, "--append") == 0
    assert validate_artifacts.validate_tree(trajectory) == [trajectory]
    (entry,) = json.loads(trajectory.read_text())["entries"]
    assert set(entry["pair_ratios"]) == set(gate.TRACKED)
    assert all(series == [1.0] * gate.ROUNDS for series in entry["pair_ratios"].values())


_FAKE_BENCH = """
import os

def _step(benchmark, name):
    with open(os.environ["TURNS_LOG"], "a") as log:
        log.write(f"{os.path.basename(os.getcwd())} {name}\\n")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

def test_field_matmul_speed(benchmark):
    _step(benchmark, "field")

def test_quantize_speed(benchmark):
    _step(benchmark, "quantize")

def test_untracked_speed(benchmark):
    _step(benchmark, "untracked")
"""


def test_a_round_runs_the_two_trees_in_lockstep(tmp_path, monkeypatch):
    """Each side runs one benchmark per turn, the first tree first, and
    only the tracked benchmarks run."""
    log = tmp_path / "turns.log"
    monkeypatch.setenv("TURNS_LOG", str(log))
    trees = []
    for name in ("one", "two"):
        bench = tmp_path / name / "benchmarks"
        bench.mkdir(parents=True)
        (tmp_path / name / "src").mkdir()
        (bench / "conftest.py").write_text(
            "def pytest_addoption(parser):\n    parser.addoption('--quick', action='store_true')\n"
        )
        (bench / "bench_microbench_kernels.py").write_text(_FAKE_BENCH)
        trees.append(tmp_path / name)
    outs = [tmp_path / "one.json", tmp_path / "two.json"]
    gate.run_round(trees, outs)
    assert log.read_text().splitlines() == [
        "one field", "two field", "one quantize", "two quantize",
    ]
    for out in outs:
        names = {b["name"] for b in json.loads(out.read_text())["benchmarks"]}
        assert names == {"test_field_matmul_speed", "test_quantize_speed"}


def test_a_tree_whose_run_fails_is_an_error(tmp_path):
    trees = []
    for name in ("one", "two"):
        (tmp_path / name / "benchmarks").mkdir(parents=True)
        trees.append(tmp_path / name)
    with pytest.raises(SystemExit, match="kernel run exited"):
        gate.run_round(trees, [tmp_path / "one.json", tmp_path / "two.json"])
