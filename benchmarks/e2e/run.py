"""bench-e2e: the repo's two-clock end-to-end benchmark.

One command, four workloads, each in its own fresh child process::

    python benchmarks/e2e/run.py                 # full run, ~4 min on 2 cores
    python benchmarks/e2e/run.py --smoke         # tiny sizes, < 15 s
    python benchmarks/e2e/run.py --self-check    # two full sets must agree
    python benchmarks/e2e/run.py --record        # also rewrite baseline.json

and, for the driver that gates later PRs (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

which prints one JSON result line.  Every number says which clock it is
on: *host* wall time of the real numpy/BLAS execution, or *sim* time of
the modelled SGX+GPU deployment.  This file's parent role imports neither
numpy nor ``repro``; the child role (``--child``) does the work.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
import compare

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: The environment every workload child runs under.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: A child that takes longer than this is killed (the driver allows 180 s).
DRIVER_CHILD_TIMEOUT_S = 170
FULL_CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES,
                        help="run one workload and print the driver's result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS),
                        help="with --workload: how long the timed passes measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--passes", type=int, default=None,
                        help="timed passes per workload (default 9; 2 with --smoke)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all checks")
    parser.add_argument("--self-check", action="store_true",
                        help="run two full sets; fail unless they agree within bounds")
    parser.add_argument("--record", action="store_true",
                        help="also write the results to baseline.json")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json's contents and exit")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results and span traces")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# child role
# ----------------------------------------------------------------------
def child_main(args) -> int:
    """Run one workload in this process and print its result as one line."""
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    result = workloads.run_workload(
        args.workload,
        args.seed,
        smoke=args.smoke,
        passes=args.passes,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_path=args.out / f"{args.workload}.trace.json" if args.trace else None,
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def run_child(workload: str, args, *, passes, seconds, trace: bool, timeout: float) -> dict:
    """Spawn the child for one workload, wait for it, parse its result."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--out", str(args.out),
    ]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    else:
        cmd += ["--seconds", str(seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **CHILD_ENV)
    # Bytecode goes under out/, never beside the (tracked) sources.
    env["PYTHONPYCACHEPREFIX"] = str(args.out / "pycache")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: child exceeded {timeout:.0f} s and was killed")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["process_wall_s"] = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def spread(values) -> dict:
    """Median, quartiles and count of a sample (one value: all equal)."""
    values = [float(v) for v in values]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(result: dict) -> dict:
    """The issue's end-to-end metrics for one workload's child result."""
    name = result["workload"]
    values = {
        "setup_s": result["setup_s_samples"],
        "norm_items_per_s": [row["norm_items_per_s"] for row in result["passes"]],
        "peak_rss_mb": [result["peak_rss_mb"]],
        "failed_share": [result["failed"] / result["attempted"]],
    }
    if result["canary"] is not None:
        values["tamper_detected_share"] = [result["canary"]["tamper_detected_share"]]
    for metric, value in result["sim"].items():
        values[metric] = [value]
    out = {}
    for metric in catalog.END_TO_END:
        if metric.applies_to(name) and metric.name in values:
            out[metric.name] = dict(
                spread(values[metric.name]), unit=metric.unit, clock=metric.clock
            )
    return out


def diagnostics(result: dict) -> dict:
    """Raw host-clock numbers recorded beside the end-to-end metrics, not gated."""
    samples = {
        "wall_items_per_s": [row["wall_items_per_s"] for row in result["passes"]],
        "ref_s": result["ref_s_samples"],
        "setup_wall_s": result["setup_wall_s_samples"],
    }
    return {
        name: dict(spread(samples[name]), unit=unit, clock="host")
        for name, unit in catalog.DIAGNOSTICS
    }


def driver_line(result: dict, trace: bool) -> dict:
    """The driver contract's result object for one run."""
    if trace:
        units = {name: unit for name, unit, *_ in catalog.PER_LAYER}
        metrics = {
            name: {"value": result["per_layer"][name], "unit": units[name]}
            for name in catalog.PER_LAYER_NAMES
        }
    else:
        e2e = end_to_end(result)
        metrics = {
            name: {"value": e2e[name]["median"], "unit": unit}
            for name, unit, _better, _bound in catalog.DRIVER_END_TO_END
        }
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def environment(args, versions: dict) -> dict:
    """Where and how this run happened (recorded with every result file)."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "seed": args.seed,
        "thread_env": CHILD_ENV,
        "load_generator": "one process, one thread",
    }


# ----------------------------------------------------------------------
# the full run
# ----------------------------------------------------------------------
def full_run(args) -> dict:
    """All four workloads, each in a fresh child; returns the results doc."""
    passes = args.passes or (2 if args.smoke else 9)
    doc = {
        "schema": 1,
        "mode": "smoke" if args.smoke else "full",
        "ref_nominal_s": catalog.REF_NOMINAL_S,
        "env": None,
        "workloads": {},
    }
    for name in catalog.WORKLOAD_NAMES:
        print(f"[bench-e2e] {name}: {passes} timed passes + traced pass + probes ...",
              flush=True)
        result = run_child(
            name, args, passes=passes, seconds=None, trace=True,
            timeout=FULL_CHILD_TIMEOUT_S,
        )
        doc["env"] = doc["env"] or environment(args, result["versions"])
        doc["workloads"][name] = {
            "end_to_end": end_to_end(result),
            "diagnostics": diagnostics(result),
            "per_layer": result["per_layer"],
            "passes": result["passes"],
            "rate_sweep": result["rate_sweep"],
            "canary": result["canary"],
            "identity": result["identity"],
            "items_per_pass": result["items_per_pass"],
            "item": result["item"],
            "child_wall_s": result["process_wall_s"],
            "correct": result["correct"],
            "messages": result["messages"],
        }
    # Same model, seed and request tensors: partitioning, pooling and audit
    # may change when work happens, never a bit of any response.
    a = doc["workloads"]["serve-resnet-integrity"]
    b = doc["workloads"]["serve-resnet-composed"]
    if a["identity"].get("shared_digest") != b["identity"].get("shared_digest"):
        b["messages"].append(
            "logits digest differs from serve-resnet-integrity on the shared requests"
        )
        b["correct"] = False
    return doc


def print_report(doc: dict) -> None:
    units = {name: unit for name, unit, *_ in catalog.PER_LAYER}
    for name, entry in doc["workloads"].items():
        print(f"\n== {name}  ({entry['items_per_pass']} {entry['item']}s per pass,"
              f" child {entry['child_wall_s']:.1f} s) ==")
        print(f"  {'end-to-end metric':<28}{'unit':<9}{'clock':<6}"
              f"{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
        for metric, row in {**entry["end_to_end"], **entry["diagnostics"]}.items():
            print(f"  {metric:<28}{row['unit']:<9}{row['clock']:<6}"
                  f"{row['median']:>14.6g}{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}")
        for row in entry["rate_sweep"] or []:
            print(f"  sweep @ {row['rate_req_per_s']:.0f} req/s (sim): p50 {row['p50_ms']:.3f} ms,"
                  f" p95 {row['p95_ms']:.3f} ms, completed {row['completed']},"
                  f" failed {row['failed']}, {'ok' if row['ok'] else 'over limit'}")
        if entry["canary"]:
            c = entry["canary"]
            print(f"  canary: {c['detected']}/{c['attempted']} tampered items detected"
                  f" ({c['tampered_outputs']} GPU outputs corrupted)")
        print(f"  {'per-layer metric (traced pass)':<40}{'unit':<8}{'value':>16}")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<40}{units[metric]:<8}{value:>16.6g}")
        for message in entry["messages"]:
            print(f"  FAILED CHECK: {message}")


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.child:
        return child_main(args)
    if args.workload:
        result = run_child(
            args.workload, args,
            # A traced run needs untraced passes only to price the tracing.
            passes=2 if args.trace else args.passes,
            seconds=args.seconds, trace=bool(args.trace),
            timeout=DRIVER_CHILD_TIMEOUT_S,
        )
        for message in result["messages"]:
            print(f"FAILED CHECK: {message}", file=sys.stderr)
        print(json.dumps(driver_line(result, bool(args.trace)), allow_nan=False))
        return 0

    doc = full_run(args)
    print_report(doc)
    write_json(args.out / "latest.json", doc)
    ok = all(entry["correct"] for entry in doc["workloads"].values())
    if args.self_check:
        print("\n[bench-e2e] self-check: second set of runs ...", flush=True)
        second = full_run(args)
        write_json(args.out / "latest.second.json", second)
        rows = compare.compare(doc, second)
        print(compare.render(rows))
        disagree = [r for r in rows if not r["agrees"]]
        ok = ok and not disagree and all(
            entry["correct"] for entry in second["workloads"].values()
        )
        print(f"[bench-e2e] self-check: {len(disagree)} of {len(rows)} rows disagree")
    if args.record:
        write_json(HERE / "baseline.json", doc)
    print(f"\n[bench-e2e] results: {args.out / 'latest.json'}"
          f" — {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
