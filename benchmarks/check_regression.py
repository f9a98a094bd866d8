"""Gate CI on the kernel microbenchmarks' performance trajectory.

Reads one pytest-benchmark JSON artifact (the ``--benchmark-json`` output
of ``bench_microbench_kernels.py``), normalizes each tracked kernel's
best-of-run (``min``) time by a reference measured in the *same* run, and
compares those machine-independent ratios against the median of the last
few entries in the repo's trajectory file (``BENCH_kernels.json``).  A
tracked kernel whose ratio grew by more than ``--threshold`` (default 25%)
fails the build: the limb backend quietly losing its BLAS speedup is a
regression even while every correctness test stays green.

Normalizing by an in-run reference cancels the host's speed, CPU
frequency, and noisy-neighbour load — but only against a reference that
wanders the way the kernel does.  The BLAS-bound kernels are divided by a
plain float GEMM ("how many float matmuls does this field kernel cost?");
the interpreter-bound ones (coefficient material, launch accounting, the
quantize chains, the session AEAD round trip, weight re-staging, the mask
pool's refill/draw cycle) by a fixed
loop of Python integer arithmetic and small-array ufunc calls,
because on a shared box the interpreter's speed and the GEMM's move
independently and a ratio across the two flaps on unchanged code.  Each
trajectory entry records which reference every ratio used, and a baseline
only pools ratios taken against the kernel's current reference (an entry
without the record predates the split: all float GEMM).  ``min`` (not
mean) is compared because the best rep is the least contaminated by
scheduling noise.

Usage::

    python benchmarks/check_regression.py bench-results/microbench_kernels.json
    python benchmarks/check_regression.py results.json --append  # extend history
    python benchmarks/check_regression.py results.json \
        --autoscale bench-results/autoscale.json  # also gate elastic serving

``--autoscale`` additionally validates the autoscale exhibit's artifact:
its ``extra_info`` ratios (elastic p99 vs static max provisioning, and
elastic shard-seconds vs the static bill) must stay inside the fixed
bounds asserted by ``bench_autoscale.py``.  ``--partition`` does the same
for the layer-partition exhibit (``bench_layer_partition.py``): its
``p99_ratio`` (3-stage pipeline group vs single enclave) must stay at or
below 0.75.  ``--precompute`` gates the offline/online-split exhibit
(``bench_precompute_overlap.py``): ``p99_ratio`` (precompute on vs off)
is bounded from above and ``pool_hit_rate`` from below.

``--append`` adds the new entry to the trajectory file on a passing run
(and seeds the file when it does not exist yet), so the history grows one
point per CI run.  All JSON I/O is strict: non-finite constants are
rejected on read and refused on write.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Kernel timings gated against the trajectory, keyed by benchmark name.
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
    "test_cluster_backward_launch_speed",
    "test_launch_accounting_speed",
    "test_small_contraction_matmul_speed",
    "test_layer_step_forward_speed",
    "test_layer_step_backward_speed",
    "test_session_roundtrip_speed",
    "test_restage_linear_speed",
    "test_mask_pool_refill_speed",
)

#: The default in-run normalizer: a plain float64 GEMM at the same N=256 size.
REFERENCE = "test_float_matmul_reference_speed_n256"

#: The normalizer of kernels that never reach the BLAS: Python-level field
#: arithmetic and small-array ufunc dispatch.
INTERPRETER_REFERENCE = "test_interpreter_reference_speed"
INTERPRETER_BOUND = frozenset(
    {
        "test_coefficient_generation_speed",
        "test_coefficient_material_speed",
        "test_coefficient_stack_speed",
        "test_launch_accounting_speed",
        "test_quantize_speed",
        "test_dequantize_product_speed",
        "test_session_roundtrip_speed",
        "test_restage_linear_speed",
        "test_mask_pool_refill_speed",
    }
)

#: Trajectory entries consulted for the baseline median.
HISTORY_WINDOW = 5

#: The autoscale exhibit's name and the bounds its artifact must meet
#: (mirrors the assertions inside ``bench_autoscale.py``).
AUTOSCALE_BENCH = "test_autoscale_matches_static_p99_at_fraction_of_shard_seconds"
AUTOSCALE_BOUNDS = {"p99_ratio": 1.10, "shard_seconds_ratio": 0.70}

#: The layer-partition exhibit's name and bound: p99 at 3 partitions must
#: stay at <= 0.75x the single-enclave baseline (``bench_layer_partition.py``
#: itself asserts the tighter >= 1.5x improvement; the gate keeps slack for
#: noisy CI neighbours).
PARTITION_BENCH = "test_layer_partition_cuts_p99_with_bit_identical_logits"
PARTITION_BOUNDS = {"p99_ratio": 0.75}

#: The precompute-overlap exhibit's name and bounds: its ``p99_ratio``
#: (precompute on vs off) must stay at <= 0.77 (i.e. the offline/online
#: split keeps cutting p99 by >= 1.3x; measured ~0.38) and the mask pool
#: must sustain a >= 0.9 hit rate on the steady-state integrity trace.
PRECOMPUTE_BENCH = "test_precompute_overlap_on_integrity_trace"
PRECOMPUTE_UPPER_BOUNDS = {"p99_ratio": 0.77}
PRECOMPUTE_LOWER_BOUNDS = {"pool_hit_rate": 0.9}


def _reject(constant: str):
    raise ValueError(f"non-strict JSON constant {constant!r}")


def _load_strict(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject)


def reference_for(name: str) -> str:
    """The in-run benchmark a tracked kernel's time is divided by."""
    return INTERPRETER_REFERENCE if name in INTERPRETER_BOUND else REFERENCE


def _min_seconds(bench_json: dict) -> dict:
    return {b["name"]: float(b["stats"]["min"]) for b in bench_json["benchmarks"]}


def extract_ratios(bench_json: dict) -> dict:
    """``{kernel name: min_seconds / its reference's min_seconds}`` for one run."""
    mins = _min_seconds(bench_json)
    for reference in (REFERENCE, INTERPRETER_REFERENCE):
        if reference not in mins:
            raise SystemExit(f"reference benchmark {reference!r} missing from run")
        if not mins[reference] > 0:
            raise SystemExit(f"reference time must be > 0, got {mins[reference]}")
    missing = [name for name in TRACKED if name not in mins]
    if missing:
        raise SystemExit(f"tracked benchmarks missing from run: {missing}")
    return {name: mins[name] / mins[reference_for(name)] for name in TRACKED}


def baseline_ratios(history: dict) -> dict:
    """Median ratio per kernel over the last ``HISTORY_WINDOW`` entries,
    counting only ratios taken against the kernel's current reference."""
    window = history.get("entries", [])[-HISTORY_WINDOW:]
    out = {}
    for name in TRACKED:
        samples = [
            e["ratios"][name]
            for e in window
            if name in e.get("ratios", {})
            and e.get("references", {}).get(name, REFERENCE) == reference_for(name)
        ]
        if samples:
            out[name] = statistics.median(samples)
    return out


def check(ratios: dict, baseline: dict, threshold: float) -> list[str]:
    """Human-readable failures for kernels slower than baseline allows."""
    failures = []
    for name, ratio in ratios.items():
        base = baseline.get(name)
        if base is None:
            continue  # first sighting: nothing to regress against
        allowed = base * (1.0 + threshold)
        if ratio > allowed:
            failures.append(
                f"{name}: ratio {ratio:.3f} exceeds baseline median"
                f" {base:.3f} by more than {threshold:.0%}"
                f" (allowed {allowed:.3f})"
            )
    return failures


def check_autoscale(path: Path) -> list[str]:
    """Validate the autoscale artifact's ratios against the fixed bounds.

    The elastic-serving exhibit records ``p99_ratio`` (elastic tail vs
    the static max-provisioned deployment) and ``shard_seconds_ratio``
    (elastic bill vs the static bill) in ``extra_info``; either one
    drifting past its bound means autoscaling stopped paying for itself.
    """
    data = _load_strict(path)
    rows = [b for b in data["benchmarks"] if b["name"] == AUTOSCALE_BENCH]
    if not rows:
        return [f"autoscale benchmark {AUTOSCALE_BENCH!r} missing from {path}"]
    info = rows[0].get("extra_info", {})
    failures = []
    for key, bound in AUTOSCALE_BOUNDS.items():
        value = info.get(key)
        if value is None:
            failures.append(f"autoscale artifact lacks extra_info[{key!r}]")
        elif float(value) > bound:
            failures.append(
                f"autoscale {key} {float(value):.3f} exceeds bound {bound:.2f}"
            )
        else:
            print(f"autoscale {key}: {float(value):.3f} (bound {bound:.2f})")
    return failures


def check_partition(path: Path) -> list[str]:
    """Validate the layer-partition artifact's p99 ratio against its bound.

    The exhibit records ``p99_ratio`` (3-stage pipeline-group tail vs the
    single whole-model enclave) in ``extra_info``; drifting past the bound
    means partitioning stopped cutting per-request latency.
    """
    data = _load_strict(path)
    rows = [b for b in data["benchmarks"] if b["name"] == PARTITION_BENCH]
    if not rows:
        return [f"partition benchmark {PARTITION_BENCH!r} missing from {path}"]
    info = rows[0].get("extra_info", {})
    failures = []
    for key, bound in PARTITION_BOUNDS.items():
        value = info.get(key)
        if value is None:
            failures.append(f"partition artifact lacks extra_info[{key!r}]")
        elif float(value) > bound:
            failures.append(
                f"partition {key} {float(value):.3f} exceeds bound {bound:.2f}"
            )
        else:
            print(f"partition {key}: {float(value):.3f} (bound {bound:.2f})")
    return failures


def check_precompute(path: Path) -> list[str]:
    """Validate the precompute-overlap artifact against both bound kinds.

    The offline/online-split exhibit records ``p99_ratio`` (precompute on
    vs off, lower is better — gated from above) and ``pool_hit_rate``
    (steady-state mask-pool hits, higher is better — gated from below) in
    ``extra_info``; either drifting past its bound means the split stopped
    hiding offline work in the enclave's idle gaps.
    """
    data = _load_strict(path)
    rows = [b for b in data["benchmarks"] if b["name"] == PRECOMPUTE_BENCH]
    if not rows:
        return [f"precompute benchmark {PRECOMPUTE_BENCH!r} missing from {path}"]
    info = rows[0].get("extra_info", {})
    failures = []
    for bounds, too_far, side in (
        (PRECOMPUTE_UPPER_BOUNDS, lambda v, b: v > b, "exceeds upper"),
        (PRECOMPUTE_LOWER_BOUNDS, lambda v, b: v < b, "falls below lower"),
    ):
        for key, bound in bounds.items():
            value = info.get(key)
            if value is None:
                failures.append(f"precompute artifact lacks extra_info[{key!r}]")
            elif too_far(float(value), bound):
                failures.append(
                    f"precompute {key} {float(value):.3f} {side} bound {bound:.2f}"
                )
            else:
                print(f"precompute {key}: {float(value):.3f} (bound {bound:.2f})")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON file")
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
        help="trajectory file (default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max allowed slowdown vs the baseline median (default 0.25)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append this run to the trajectory file when the gate passes",
    )
    parser.add_argument(
        "--autoscale",
        type=Path,
        default=None,
        metavar="PATH",
        help="also gate the autoscale exhibit's JSON artifact"
             " (p99_ratio / shard_seconds_ratio bounds)",
    )
    parser.add_argument(
        "--partition",
        type=Path,
        default=None,
        metavar="PATH",
        help="also gate the layer-partition exhibit's JSON artifact"
             " (p99_ratio at 3 partitions vs the single-enclave baseline)",
    )
    parser.add_argument(
        "--precompute",
        type=Path,
        default=None,
        metavar="PATH",
        help="also gate the precompute-overlap exhibit's JSON artifact"
             " (p99_ratio upper bound and pool_hit_rate lower bound)",
    )
    args = parser.parse_args(argv)

    bench_json = _load_strict(args.results)
    ratios = extract_ratios(bench_json)
    history = (
        _load_strict(args.history)
        if args.history.exists()
        else {"description": "kernel microbench trajectory (see"
              " benchmarks/check_regression.py)", "entries": []}
    )
    baseline = baseline_ratios(history)

    for name in TRACKED:
        base_txt = f"{baseline[name]:.3f}" if name in baseline else "none"
        versus = "interpreter" if name in INTERPRETER_BOUND else "GEMM"
        print(f"{name}: ratio {ratios[name]:.3f} vs {versus} (baseline median {base_txt})")

    failures = check(ratios, baseline, args.threshold)
    if args.autoscale is not None:
        failures += check_autoscale(args.autoscale)
    if args.partition is not None:
        failures += check_partition(args.partition)
    if args.precompute is not None:
        failures += check_precompute(args.precompute)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1

    if args.append:
        mins = _min_seconds(bench_json)
        history["entries"].append(
            {
                "datetime": bench_json.get("datetime"),
                "reference_seconds": mins[REFERENCE],
                "interpreter_reference_seconds": mins[INTERPRETER_REFERENCE],
                "ratios": ratios,
                "references": {name: reference_for(name) for name in TRACKED},
            }
        )
        args.history.write_text(
            json.dumps(history, indent=2, allow_nan=False) + "\n"
        )
        print(f"appended entry #{len(history['entries'])} to {args.history}")
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
