"""Tier-1 tests of the end-to-end benchmark harness itself.

Fast unit tests cover the catalogue/contract file, the span recorder's
arithmetic and its clean uninstall, the correctness checker and the
comparison verdicts; one ``--smoke`` run (tiny sizes, every check, the
traced pass, canary and sweep) covers the rest end to end.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(HERE), str(REPO / "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalog  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from validate_artifacts import validate_tree  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _strict(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant!r}")

    return json.loads(text, parse_constant=reject)


# ----------------------------------------------------------------------
# catalogue and contract file
# ----------------------------------------------------------------------
def test_workload_and_metric_names_match_the_issue():
    assert catalog.WORKLOAD_NAMES == (
        "serve-tiny-plain",
        "serve-resnet-integrity",
        "serve-resnet-composed",
        "train-vgg-integrity",
    )
    assert [m.name for m in catalog.END_TO_END] == [
        "setup_s", "norm_items_per_s", "peak_rss_mb", "failed_share",
        "tamper_detected_share", "sim_req_per_s", "sim_latency_p50_ms",
        "sim_latency_p95_ms", "sim_slo_miss_share", "sim_max_rate_ok_req_per_s",
    ]
    layers = {name.split(".")[0] for name in catalog.PER_LAYER_NAMES if "." in name}
    assert layers == {
        "serving", "sharding", "pipeline", "runtime", "masking", "fieldmath", "quantization",
        "gpu", "enclave", "comm", "audit", "precompute", "nn", "bench",
    }


def test_names_units_and_whys_fit_the_contract_alphabet():
    names = [n for n, _ in catalog.WORKLOADS]
    names += [m.name for m in catalog.END_TO_END] + list(catalog.PER_LAYER_NAMES)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(catalog.PER_LAYER_NAMES)) == len(catalog.PER_LAYER_NAMES) <= 128
    units = [m.unit for m in catalog.END_TO_END] + [u for _, u, *_ in catalog.PER_LAYER]
    assert all(UNIT.match(u) for u in units), [u for u in units if not UNIT.match(u)]
    for _, why in catalog.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    moved = {m.name for m in catalog.END_TO_END}
    assert {moves for *_, moves in catalog.PER_LAYER} <= moved


def test_benchmark_json_is_strict_and_is_the_catalogue():
    text = (REPO / "BENCHMARK.json").read_text()
    doc = _strict(text)
    assert doc == catalog.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(text.encode()) <= 64 * 1024
    gated = {m["name"]: m for m in doc["end_to_end"]}
    assert gated["setup_s"]["unit"] == "s" and gated["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in gated.values())
    assert max(m["bound"] for m in gated.values()) == gated["setup_s"]["bound"]
    assert 1 <= doc["run_seconds"] <= 60


def test_committed_baseline_is_strict_and_clean():
    doc = _strict((HERE / "baseline.json").read_text())
    assert doc["mode"] == "full" and set(doc["workloads"]) == set(catalog.WORKLOAD_NAMES)
    for name, entry in doc["workloads"].items():
        assert entry["correct"] and not entry["messages"]
        assert entry["end_to_end"]["failed_share"]["median"] == 0
        if name in catalog.INTEGRITY_WORKLOADS:
            assert entry["end_to_end"]["tamper_detected_share"]["median"] == 1.0
        assert entry["per_layer"]["bench.layer_partition_error"] <= 0.01
        assert set(entry["per_layer"]) == set(catalog.PER_LAYER_NAMES)
    a, b = (doc["workloads"][n]["identity"] for n in catalog.WORKLOAD_NAMES[1:3])
    assert a["shared_digest"] == b["shared_digest"]
    assert doc["workloads"]["train-vgg-integrity"]["identity"]["loss_trajectory"]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = _Clock()
    rec = tracing.Recorder(clock=clock)

    def leaf(cost):
        clock.now += cost
        return cost

    t_leaf = rec.wrap(leaf, tracing.Target("b.leaf", None, "leaf", amount=lambda a, k, r: r * 10))

    def mid():
        clock.now += 1.0
        t_leaf(2.0)
        t_mid_again()  # same-name nesting: busy must not double count
        clock.now += 0.5

    def mid_again():
        t_leaf(0.25)

    t_mid = rec.wrap(mid, tracing.Target("a.mid", None, "mid", bumps_context=True))
    t_mid_again = rec.wrap(mid_again, tracing.Target("a.mid", None, "mid_again"))

    def root():
        clock.now += 3.0
        t_mid()
        t_leaf(4.0)

    rec.wrap(root, tracing.Target("a.root", None, "root"))()
    t_leaf(100.0)  # outside the root: not part of its partition

    summary = tracing.Summary(rec)
    mid_stats = summary.stats("a.mid")
    assert mid_stats.calls == 2
    assert mid_stats.busy_s == pytest.approx(3.75)  # outer span only
    assert mid_stats.self_s == pytest.approx(1.5)  # 1.0 + 0.5; inner self is 0
    leaf_in_mid = summary.stats("b.leaf", inside=["a.mid"])
    assert (leaf_in_mid.calls, leaf_in_mid.busy_s) == (2, pytest.approx(2.25))
    assert summary.stats("b.leaf", outside=["a.root"]).busy_s == pytest.approx(100.0)
    assert summary.stats("b.leaf", under="a.root").busy_s == pytest.approx(6.25)
    assert summary.stats("a.root", under="a.root").calls == 1
    assert summary.stats("b.leaf").amount == pytest.approx(1062.5)
    total, by_layer = summary.layer_self_s("a.root")
    assert total == pytest.approx(10.75)
    assert by_layer == {"a": pytest.approx(4.5), "b": pytest.approx(6.25)}
    assert sum(by_layer.values()) == pytest.approx(total)
    # context: bumped on entering a.mid, inherited by what ran after
    contexts = {rec.names[s[0]]: s[4] for s in rec.spans}
    assert contexts["a.root"] == 0 and contexts["a.mid"] == 1


def test_generator_targets_time_their_consumption():
    clock = _Clock()
    rec = tracing.Recorder(clock=clock)

    def subsets(n):
        for i in range(n):
            clock.now += 1.0  # work happens inside next()
            yield i

    traced = rec.wrap(subsets, tracing.Target("m.enum", None, "subsets", generator=True))
    got = []
    for item in traced(5):
        clock.now += 10.0  # the consumer's own time is not the generator's
        got.append(item)
        if item == 2:
            break
    assert got == [0, 1, 2]
    assert list(traced(1)) == [0]
    stats = tracing.Summary(rec).stats("m.enum")
    assert stats.busy_s == pytest.approx(4.0)
    assert stats.calls == 5  # 3 + (1 item, 1 StopIteration)
    assert stats.amount == 2  # enumerations started


def test_install_rebinds_every_binding_and_uninstall_restores_src():
    sys.path.insert(0, str(REPO / "src"))
    import layers
    from repro.fieldmath import PrimeField, linalg
    from repro.gpu import kernels as gpu_kernels
    from repro.masking import CoefficientSet, forward

    targets = layers.targets()
    before = [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets]
    original = linalg.field_matmul
    assert forward.field_matmul is original and gpu_kernels.field_matmul is original

    rec = tracing.Recorder()
    rec.install(targets)
    try:
        assert forward.field_matmul is not original
        assert forward.field_matmul is gpu_kernels.field_matmul is linalg.field_matmul
        field = PrimeField()
        eye = np.eye(3, dtype=np.int64)
        assert np.array_equal(gpu_kernels.FieldKernels(field).matmul(eye, eye), eye)
        assert isinstance(vars(CoefficientSet)["generate"], classmethod)
        with pytest.raises(RuntimeError):
            rec.install(targets)
    finally:
        rec.uninstall()
    stats = tracing.Summary(rec).stats("fieldmath.matmul")
    assert (stats.calls, stats.amount) == (1, 27)
    assert forward.field_matmul is original and gpu_kernels.field_matmul is original
    for owner, attr, raw in before:
        assert vars(owner)[attr] is raw, f"{owner}.{attr} was not restored"


# ----------------------------------------------------------------------
# correctness checker and comparison
# ----------------------------------------------------------------------
def _outcomes(reference, skip=(), corrupt=()):
    rows = []
    for i, row in enumerate(reference):
        if i in skip:
            continue
        logits = row + 0.01
        if i in corrupt:
            logits = logits.copy()
            logits[0] += 1.0
        rows.append(SimpleNamespace(request_id=i, ok=True, logits=logits))
    return rows


def test_checker_flags_a_corrupted_row_and_a_dropped_request():
    reference = np.random.default_rng(0).normal(size=(50, 4))
    failed, messages, logits = checks.check_serving(_outcomes(reference), 50, reference)
    assert not failed and not messages and logits.shape == (50, 4)

    failed, messages, logits = checks.check_serving(
        _outcomes(reference, corrupt={7}), 50, reference
    )
    assert failed == {7} and "deviate" in messages[0]
    assert checks.logits_digest(logits) != checks.logits_digest(reference + 0.01)

    failed, messages, logits = checks.check_serving(
        _outcomes(reference, skip={3}), 50, reference
    )
    assert failed == {3} and "no terminal outcome" in messages[0] and logits is None

    doubled = _outcomes(reference) + _outcomes(reference)[:1]
    assert checks.check_serving(doubled, 50, reference)[0] == {0}

    # Within the logit tolerance (0.1 at this scale) yet the wrong class on a
    # clear margin: only the argmax bar sees it.  Near-ties are not counted.
    clear = np.tile([1.0, 0.85, 0.0, -2.0], (50, 1))
    wrong = [SimpleNamespace(request_id=i, ok=True, logits=np.array([0.91, 0.94, 0.0, -2.0]))
             for i in range(50)]
    failed, messages, _ = checks.check_serving(wrong, 50, clear)
    assert len(failed) == 50 and "argmax agreement" in messages[-1]
    ties = np.tile([1.0, 0.95, 0.0, -2.0], (50, 1))
    assert checks.check_serving(wrong, 50, ties)[0] == set()
    assert checks.logit_tolerance(reference * 4) > checks.logit_tolerance(clear) == 0.1


def test_training_checker_flags_drift_and_missing_steps():
    twin = [2.3, 2.2, 2.1]
    assert checks.check_training([2.31, 2.25, 2.01], twin) == (set(), [])
    assert checks.check_training([2.31, 2.6, float("nan")], twin)[0] == {1, 2}
    assert checks.check_training([2.31], twin)[0] == {1, 2}
    assert checks.loss_tolerance(0) == 0.1 < checks.loss_tolerance(8) < 0.26


def _doc(norm, q1, q3, p95=16.0, digest="d"):
    def cell(median, lo=None, hi=None):
        return {"median": median, "q1": lo or median, "q3": hi or median, "n": 9}

    entry = {
        "end_to_end": {"norm_items_per_s": cell(norm, q1, q3), "sim_latency_p95_ms": cell(p95)},
        "identity": {"logits_digest": digest},
    }
    return {"env": {"seed": 1}, "mode": "full", "workloads": {"serve-resnet-integrity": entry}}


def test_compare_verdicts_use_bounds_and_quartiles():
    base = _doc(100.0, 98.0, 102.0)

    def verdicts(other):
        return {r["metric"]: r["verdict"] for r in compare.compare(base, other)}

    assert verdicts(_doc(99.0, 97.5, 101.0)) == {
        "norm_items_per_s": "same", "sim_latency_p95_ms": "same", "identity": "same",
    }
    assert verdicts(_doc(75.0, 74.0, 76.0))["norm_items_per_s"] == "worse"
    assert verdicts(_doc(125.0, 120.0, 130.0))["norm_items_per_s"] == "better"
    assert verdicts(_doc(96.0, 80.0, 112.0))["norm_items_per_s"] == "unresolved"
    assert verdicts(_doc(100.0, 98.0, 102.0, p95=16.5))["sim_latency_p95_ms"] == "worse"
    assert verdicts(_doc(100.0, 98.0, 102.0, digest="x"))["identity"].startswith("differs")
    assert not compare.compare(base, _doc(75.0, 74.0, 76.0))[0]["agrees"]


def test_driver_line_has_exactly_the_contract_keys():
    result = {
        "workload": "train-vgg-integrity", "correct": True, "attempted": 64, "failed": 0,
        "setup_s_samples": [0.01, 0.02, 0.03], "peak_rss_mb": 48.5, "canary": None, "sim": {},
        "passes": [{"norm_items_per_s": 90.0}, {"norm_items_per_s": 110.0}],
    }
    line = bench_run.driver_line(result, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        "norm_items_per_s": {"value": 100.0, "unit": "items/s"},
        "peak_rss_mb": {"value": 48.5, "unit": "MB"},
        "setup_s": {"value": 0.02, "unit": "s"},
    }


# ----------------------------------------------------------------------
# the smoke run, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_e2e_out")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return SimpleNamespace(out=out, stdout=proc.stdout, doc=_strict((out / "latest.json").read_text()))


def test_smoke_prints_and_records_every_metric(smoke):
    validate_tree(smoke.out)  # every artifact, span traces included, is strict JSON
    for name in catalog.WORKLOAD_NAMES:
        entry = smoke.doc["workloads"][name]
        assert entry["correct"] and not entry["messages"]
        expected = {m.name for m in catalog.END_TO_END if m.applies_to(name)}
        assert set(entry["end_to_end"]) == expected
        assert set(entry["per_layer"]) == set(catalog.PER_LAYER_NAMES)
        assert entry["end_to_end"]["failed_share"]["median"] == 0
        assert entry["per_layer"]["bench.layer_partition_error"] <= 0.01
        assert entry["child_wall_s"] > 0
        trace = json.loads((smoke.out / f"{name}.trace.json").read_text())
        assert trace["columns"][:4] == ["name", "start_s", "end_s", "parent"]
        assert all(len(span) == 6 for span in trace["spans"])
    for name in [m.name for m in catalog.END_TO_END] + list(catalog.PER_LAYER_NAMES):
        assert name in smoke.stdout
    env = smoke.doc["env"]
    assert env["nproc"] and env["python"] and env["numpy"] and env["thread_env"]


def test_smoke_integrity_canaries_and_shared_digest(smoke):
    w = smoke.doc["workloads"]
    for name in catalog.INTEGRITY_WORKLOADS:
        assert w[name]["end_to_end"]["tamper_detected_share"]["median"] == 1.0
        assert w[name]["canary"]["tampered_outputs"] > 0
    assert w["serve-tiny-plain"]["canary"] is None
    shared = {w[n]["identity"]["shared_digest"] for n in catalog.WORKLOAD_NAMES[1:3]}
    assert len(shared) == 1
    for name in catalog.SERVING_WORKLOADS:
        assert [row["rate_req_per_s"] for row in w[name]["rate_sweep"]] == sorted(
            row["rate_req_per_s"] for row in w[name]["rate_sweep"]
        )
        assert len(w[name]["rate_sweep"]) == 3


def test_smoke_zero_call_predictions_hold(smoke):
    layer = {n: smoke.doc["workloads"][n]["per_layer"] for n in catalog.WORKLOAD_NAMES}
    tiny, integrity, composed, train = (layer[n] for n in catalog.WORKLOAD_NAMES)
    # integrity machinery does no work on the plain workload
    for metric in ("masking.verify_forward.calls", "masking.verify_backward.calls",
                   "masking.subset_enum.calls", "masking.decodes_per_verify"):
        assert tiny[metric] == 0
    assert integrity["masking.decodes_per_verify"] >= 2
    # serving, pipeline and session crypto never run while training
    for metric in ("enclave.aead.calls", "serving.session_crypto.calls",
                   "serving.dispatch_window.calls", "pipeline.run_grouped.calls"):
        assert train[metric] == 0 and tiny[metric] > 0
    # precompute, audit and hop layers work on the composed workload only
    for metric in ("precompute.scratch.calls", "audit.commit_window.calls",
                   "sharding.hop.calls", "precompute.pool.draw.busy_s"):
        assert composed[metric] > 0
        assert tiny[metric] == integrity[metric] == train[metric] == 0
    # coefficients are reused when serving, fresh per virtual batch in training
    assert tiny["masking.coeff_generate.calls"] <= 1
    assert integrity["masking.coeff_generate.calls"] <= 1
    assert composed["masking.coeff_generate.calls"] <= 4
    assert train["masking.coeff_generate.calls"] >= 2 * 16 // 4
    assert train["masking.verify_backward.calls"] > 0
    assert train["runtime.train_step.ms_p50"] > 0 and tiny["runtime.train_step.ms_p50"] == 0
    assert train["sim_req_per_s"] == 0 and tiny["sim_req_per_s"] > 0


def test_driver_mode_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-tiny-plain", "--smoke",
         "--seed", "5", "--seconds", "0.5", "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = _strict(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(catalog.PER_LAYER_NAMES)
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_benchmark_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve-tiny-plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
