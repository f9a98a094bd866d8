"""Gate CI on the kernel microbenchmarks, paired against the parent commit.

Runs the tracked kernels of ``bench_microbench_kernels.py`` (``--quick``)
in a checkout of the baseline commit and in this tree, ``ROUNDS`` times.
In each round the two sides run in lockstep, one benchmark at a time, and
the side that goes first alternates by round.  Each round is a *pair*: for
every tracked kernel the candidate's best-of-run (``min``) time over the
baseline's.  A kernel fails when that ratio exceeds ``1 + --threshold``
(default 25%) in a majority of pairs: the limb backend quietly losing its
BLAS speedup is a regression even while every correctness test stays
green.  Both sides run on the same box at the same time, so the host's
speed and its neighbours' load cancel in each ratio, and no in-run
normaliser is needed.  A tracked kernel the baseline lacks is reported and
not gated; one the candidate lacks is an error.

Usage::

    git worktree add --detach ../baseline HEAD^1   # the PR's base commit
    OPENBLAS_NUM_THREADS=1 python benchmarks/check_regression.py \
        bench-results/microbench_kernels.json --baseline ../baseline
    ... --append                            # record the pairs in BENCH_kernels.json

The first argument is where the candidate's last pytest-benchmark
document is written.  Both sides inherit the environment; about 4 minutes
on 2 cores.  ``--append`` adds the pair ratios to ``BENCH_kernels.json`` on a passing
run.  All JSON I/O is strict: non-finite constants are rejected on read
and refused on write.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY = REPO / "BENCH_kernels.json"
BENCH_FILE = "benchmarks/bench_microbench_kernels.py"
#: Pairs per invocation: odd, so a majority is never a tie.
ROUNDS = 5
#: One ``--quick`` run of the tracked kernels takes ~18 s on 2 cores.
RUN_TIMEOUT_S = 300

#: Kernel timings gated against the baseline, keyed by benchmark name.
TRACKED = (
    "test_field_matmul_speed",
    "test_field_matmul_limb_speed_n256",
    "test_forward_encode_speed[limb]",
    "test_forward_decode_speed[limb]",
    "test_backward_decode_many_speed[limb]",
    "test_backward_reference_aggregate_speed",
    "test_coefficient_generation_speed",
    "test_coefficient_material_speed",
    "test_coefficient_stack_speed",
    "test_conv2d_batched_gemm_speed",
    "test_quantize_speed",
    "test_dequantize_product_speed",
    "test_forward_encode_hot_path_speed[scratch]",
    "test_forward_decode_hot_path_speed[scratch]",
    "test_cluster_forward_launch_speed",
    "test_public_gemm_speed",
    "test_cluster_backward_launch_speed",
    "test_launch_accounting_speed",
    "test_small_contraction_matmul_speed",
    "test_layer_step_forward_speed",
    "test_layer_step_backward_speed",
    "test_session_roundtrip_speed",
    "test_restage_linear_speed",
    "test_mask_pool_refill_speed",
    "test_served_step_speed",
    "test_served_dense_step_speed",
)


def _reject(constant: str):
    raise ValueError(f"non-strict JSON constant {constant!r}")


def _load_strict(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject)


def _selection() -> str:
    """A ``-k`` expression picking the tracked benchmarks (and, unlike node
    ids, not failing on a tree that lacks one of them)."""
    terms = []
    for name in TRACKED:
        base, _, param = name.rstrip("]").partition("[")
        terms.append(f"({base} and {param})" if param else base)
    return " or ".join(terms)


def run_round(trees: list[Path], outs: list[Path]) -> None:
    """Time each tree's tracked kernels on its own ``src``, in lockstep: the
    trees take turns one benchmark at a time, ``trees[0]`` first, so a burst
    of host load that lasts seconds lands on both sides of a pair.  Each
    pytest-benchmark document goes to its ``outs`` entry.  The only place
    the gate starts children."""
    procs, turns = [], []
    try:
        for tree, out in zip(trees, outs):
            go_read, go_write = os.pipe()
            ready_read, ready_write = os.pipe()
            cmd = [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "check_regression", f"--lockstep={go_read},{ready_write}", BENCH_FILE,
                "--quick", "-k", _selection(), f"--benchmark-json={out}",
            ]
            path = os.pathsep.join([str(tree / "src"), str(Path(__file__).resolve().parent)])
            with open(out.with_suffix(".log"), "w") as log:
                procs.append(subprocess.Popen(
                    cmd, cwd=tree, env={**os.environ, "PYTHONPATH": path},
                    stdout=log, stderr=subprocess.STDOUT, pass_fds=(go_read, ready_write),
                ))
            os.close(go_read)
            os.close(ready_write)
            turns.append((go_write, ready_read))
        live = [i for i, (_, ready) in enumerate(turns) if os.read(ready, 1) == b"r"]
        while live:
            for i in list(live):
                go, ready = turns[i]
                os.write(go, b"g")
                if os.read(ready, 1) != b"r":  # b"e" at the end, b"" if it died
                    live.remove(i)
        for proc, tree, out in zip(procs, trees, outs):
            if proc.wait(timeout=RUN_TIMEOUT_S) != 0:
                log = out.with_suffix(".log").read_text()[-4000:]
                raise SystemExit(f"{tree}: kernel run exited {proc.returncode}\n{log}")
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()  # reaped here, not by a garbage-collected Popen
        for fd in (fd for turn in turns for fd in turn):
            os.close(fd)


# The children load this module as a pytest plugin (``-p check_regression``):
# before each benchmark a child reports ready and waits for its turn.
_LOCKSTEP: tuple[int, int] | None = None


def pytest_addoption(parser):
    parser.addoption("--lockstep", default=None, help="GO_FD,READY_FD: take turns with the gate")


def pytest_configure(config):
    global _LOCKSTEP
    spec = config.getoption("lockstep")
    _LOCKSTEP = tuple(int(fd) for fd in spec.split(",")) if spec else None


def pytest_runtest_logstart(nodeid, location):
    if _LOCKSTEP is not None:
        go, ready = _LOCKSTEP
        os.write(ready, b"r")
        if os.read(go, 1) != b"g":
            raise SystemExit("the regression gate went away")


def pytest_sessionfinish(session, exitstatus):
    if _LOCKSTEP is not None:
        os.write(_LOCKSTEP[1], b"e")


def run_pairs(baseline: Path, candidate: Path, results: Path) -> list[tuple[dict, dict]]:
    """``ROUNDS`` ``(baseline, candidate)`` document pairs, the side that goes
    first alternating by round; the candidate's last document is copied to
    ``results``."""
    sides = {"baseline": baseline, "candidate": candidate}
    pairs = []
    with tempfile.TemporaryDirectory() as scratch:
        for index in range(ROUNDS):
            order = list(sides) if index % 2 == 0 else list(sides)[::-1]
            outs = [Path(scratch) / f"{side}-{index}.json" for side in order]
            run_round([sides[side] for side in order], outs)
            docs = {side: _load_strict(out) for side, out in zip(order, outs)}
            print(f"round {index + 1}/{ROUNDS}: {' first, '.join(order)}", flush=True)
            pairs.append((docs["baseline"], docs["candidate"]))
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(pairs[-1][1], indent=2, allow_nan=False) + "\n")
    return pairs


def _min_seconds(bench_json: dict) -> dict:
    return {b["name"]: float(b["stats"]["min"]) for b in bench_json["benchmarks"]}


def pair_ratios(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """``{kernel: [candidate min / baseline min, one per pair]}`` and the
    tracked kernels the baseline lacks (not gated)."""
    mins = [(_min_seconds(base), _min_seconds(cand)) for base, cand in pairs]
    missing = sorted({name for _, cand in mins for name in TRACKED if name not in cand})
    if missing:
        raise SystemExit(f"tracked benchmarks missing from the candidate: {missing}")
    new = [name for name in TRACKED if any(name not in base for base, _ in mins)]
    ratios = {
        name: [cand[name] / base[name] for base, cand in mins]
        for name in TRACKED
        if name not in new
    }
    return ratios, new


def check(ratios: dict, threshold: float) -> list[str]:
    """Human-readable failures: kernels slower than ``1 + threshold`` times
    the baseline in a majority of pairs."""
    failures = []
    for name, series in ratios.items():
        over = sum(ratio > 1.0 + threshold for ratio in series)
        if 2 * over > len(series):
            failures.append(
                f"{name}: candidate/baseline {_series(series)} exceeds"
                f" {1.0 + threshold:.2f} in {over} of {len(series)} pairs"
            )
    return failures


def _series(series: list[float]) -> str:
    return " ".join(f"{ratio:.2f}" for ratio in series)


def _commit(tree: Path) -> str | None:
    proc = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def append_entry(pairs: list[tuple[dict, dict]], ratios: dict, baseline: Path) -> None:
    """Add one paired entry to ``TRAJECTORY``: each kernel's ratio per pair."""
    history = (
        _load_strict(TRAJECTORY)
        if TRAJECTORY.exists()
        else {"description": "kernel microbench trajectory (see"
              " benchmarks/check_regression.py)", "entries": []}
    )
    history["entries"].append(
        {
            "datetime": pairs[-1][1].get("datetime"),
            "baseline": _commit(baseline),
            "pair_ratios": ratios,
        }
    )
    TRAJECTORY.write_text(json.dumps(history, indent=2, allow_nan=False) + "\n")
    print(f"appended entry #{len(history['entries'])} to {TRAJECTORY}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", type=Path, help="where the candidate's pytest-benchmark JSON is written"
    )
    parser.add_argument(
        "--baseline", type=Path, required=True, metavar="DIR",
        help="a checkout of the baseline commit (e.g. a git worktree of the parent)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="max allowed slowdown vs the baseline in a majority of pairs (default 0.25)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="append this run's pair ratios to BENCH_kernels.json when the gate passes",
    )
    args = parser.parse_args(argv)

    pairs = run_pairs(args.baseline.resolve(), REPO, args.results)
    ratios, new = pair_ratios(pairs)
    for name, series in ratios.items():
        print(f"{name}: candidate/baseline {_series(series)}")
    for name in new:
        print(f"{name}: not in the baseline, not gated")

    failures = check(ratios, args.threshold)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1

    if args.append:
        append_entry(pairs, ratios, args.baseline)
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
