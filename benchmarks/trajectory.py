"""Append one row of the end-to-end trajectory to ``BENCH_e2e.json``.

Drives bench-e2e the way the gating driver does — one fresh ``run.py
--workload W --seed S --seconds T`` child per run, with the workloads, run
length and end-to-end metrics the measured checkout's ``BENCHMARK.json``
declares — and records what it prints for one commit:

* ``--trace 0`` runs at seeds 1-3, taken round-robin across the workloads
  (seed 1 of every workload, then seed 2, ...) so a slow phase of the
  machine spreads over all of them: per workload the median, quartiles
  and IQR of every end-to-end metric;
* one ``--trace 1`` run per workload at seed 1: its deterministic counters
  (every per-layer metric counted in calls, bytes or MACs) and every
  simulated-clock (``sim_*``) value.

Usage::

    python benchmarks/trajectory.py                     # this checkout
    python benchmarks/trajectory.py --repo OTHER_CHECKOUT --note "why counts moved"

``--repo`` measures another checkout (say, a clone of the parent commit)
with that checkout's own ``run.py``; the row still goes to this
checkout's ``BENCH_e2e.json``.  About 7 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY = REPO / "BENCH_e2e.json"
SEEDS = (1, 2, 3)
COUNT_UNITS = ("count", "bytes", "MACs")
#: The directories a run builds from, hashed into every row.
TREES = ("src", "benchmarks/e2e")
#: bench-e2e kills its own child at 170 s; this bounds the parent process.
RUN_TIMEOUT_S = 240


def run_once(repo: Path, manifest: dict, workload: str, seed: int, trace: int) -> dict:
    """One driver-style run: its parsed JSON result line."""
    cmd = [
        sys.executable, *manifest["command"][1:],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def identity(repo: Path, label: str | None) -> dict:
    """What was measured: the commit, and the content hashes of the trees the
    benchmark builds from.  A checkout with uncommitted changes is measured
    as it stands (``worktree`` true); its trees are hashed through a scratch
    index, so they equal ``git rev-parse C:src`` of the commit that lands it."""

    def git(*args: str, **env: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True,
            env={**os.environ, **env},
        ).stdout.strip()

    with tempfile.TemporaryDirectory() as scratch:
        index = {"GIT_INDEX_FILE": str(Path(scratch) / "index")}
        git("read-tree", "HEAD", **index)
        git("add", "-A", "--", *TREES, **index)
        tree = git("write-tree", **index)
    trees = {path: git("rev-parse", f"{tree}:{path}") for path in TREES}
    head = git("rev-parse", "HEAD")
    worktree = any(trees[path] != git("rev-parse", f"HEAD:{path}") for path in TREES)
    return {
        "commit": head,
        "worktree": worktree,
        "label": label or git("log", "-1", "--format=%s"),
        "trees": trees,
    }


def measure(repo: Path, manifest: dict) -> dict:
    """Every workload's entry of one trajectory row."""
    workloads = [workload["name"] for workload in manifest["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in SEEDS:
        for name in workloads:
            print(f"[trajectory] {name} seed {seed} --trace 0", flush=True)
            runs[name].append(run_once(repo, manifest, name, seed, trace=0))
    out = {}
    for name in workloads:
        print(f"[trajectory] {name} seed {SEEDS[0]} --trace 1", flush=True)
        traced = run_once(repo, manifest, name, SEEDS[0], trace=1)
        metrics = traced["metrics"]
        entry = {
            metric["name"]: spread([run["metrics"][metric["name"]]["value"] for run in runs[name]])
            for metric in manifest["end_to_end"]
        }
        entry["correct"] = all(run["correct"] for run in runs[name] + [traced])
        entry["failed"] = sum(run["failed"] for run in runs[name] + [traced])
        entry["counts"] = {
            metric: row["value"] for metric, row in metrics.items()
            if row["unit"] in COUNT_UNITS
        }
        entry["sim"] = {
            metric: row["value"] for metric, row in metrics.items()
            if any(part.startswith("sim_") for part in metric.split("."))
        }
        out[name] = entry
    return out


def append_row(path: Path, row: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {
        "description": "bench-e2e trajectory, one row per commit (see benchmarks/trajectory.py)",
        "rows": [],
    }
    doc["rows"].append(row)
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=REPO,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--label", default=None,
                        help="the row's name (default: the commit's subject)")
    parser.add_argument("--note", default=None,
                        help="why this row's counts moved, if they did")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    manifest = json.loads((repo / "BENCHMARK.json").read_text())
    row = {**identity(repo, args.label), "seeds": list(SEEDS), "seconds": manifest["run_seconds"]}
    if args.note:
        row["note"] = args.note
    row["workloads"] = measure(repo, manifest)
    append_row(TRAJECTORY, row)
    print(f"[trajectory] appended {row['commit'][:12]} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
