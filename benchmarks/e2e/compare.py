"""Compare two bench-e2e result files, one row per (workload, metric).

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the reference (the parent commit, or ``baseline.json``), ``B``
the candidate.  Each end-to-end metric has a bound in ``catalog.py``: the
share of A's median (plus an absolute floor for a few) by which B's
median may be worse.  Verdicts:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — better by more than the bound *and* the two quartile
  ranges do not overlap;
* ``unresolved`` — the medians are within the bound but the run-to-run
  spread (either side's interquartile range) is wider than the bound, so
  "unchanged" cannot be claimed — unless B's whole range is on the good
  side of A's;
* ``same`` — within the bound, spread within the bound.

Simulated-clock metrics, counts, the logits digests and the loss
trajectory are deterministic for a seed; the ``identity`` rows compare
them exactly.  Exit status is 1 if any row is ``worse`` or any identity
differs, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import catalog


def _row(workload: str, metric: catalog.EndToEnd, a: dict, b: dict) -> dict:
    sign = 1.0 if metric.better == "higher" else -1.0
    base = abs(a["median"])
    allowed = metric.bound * base + metric.floor
    gain = sign * (b["median"] - a["median"])  # > 0: B is better
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if metric.better == "higher":
        b_clear_of_a = b["q1"] > a["q3"]
        b_no_worse = b["q1"] >= a["q1"]
    else:
        b_clear_of_a = b["q3"] < a["q1"]
        b_no_worse = b["q3"] <= a["q3"]
    if gain < -allowed:
        verdict = "worse"
    elif gain > allowed and b_clear_of_a:
        verdict = "better"
    elif spread > allowed and not b_no_worse:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "workload": workload,
        "metric": metric.name,
        "unit": metric.unit,
        "clock": metric.clock,
        "a": a["median"],
        "b": b["median"],
        "change": (b["median"] - a["median"]) / base if base else 0.0,
        "allowed": allowed / base if base else 0.0,
        "verdict": verdict,
        "agrees": abs(gain) <= allowed,
    }


def compare(a_doc: dict, b_doc: dict) -> list[dict]:
    """Rows for every workload and end-to-end metric both files hold."""
    rows = []
    for workload in catalog.WORKLOAD_NAMES:
        a_entry = a_doc["workloads"].get(workload)
        b_entry = b_doc["workloads"].get(workload)
        if a_entry is None or b_entry is None:
            continue
        for metric in catalog.END_TO_END:
            a = a_entry["end_to_end"].get(metric.name)
            b = b_entry["end_to_end"].get(metric.name)
            if a is not None and b is not None:
                rows.append(_row(workload, metric, a, b))
        same_inputs = a_doc["env"]["seed"] == b_doc["env"]["seed"] and (
            a_doc["mode"] == b_doc["mode"]
        )
        if same_inputs:
            differing = sorted(
                key
                for key in set(a_entry["identity"]) | set(b_entry["identity"])
                if a_entry["identity"].get(key) != b_entry["identity"].get(key)
            )
            rows.append(
                {
                    "workload": workload, "metric": "identity", "unit": "-", "clock": "-",
                    "a": 0.0, "b": 0.0, "change": 0.0, "allowed": 0.0,
                    "verdict": "differs: " + ", ".join(differing) if differing else "same",
                    "agrees": not differing,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<24}{'metric':<28}{'clock':<6}{'A':>13}{'B':>13}"
        f"{'change':>9}{'bound':>8}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<24}{r['metric']:<28}{r['clock']:<6}{r['a']:>13.6g}{r['b']:>13.6g}"
            f"{r['change']:>+9.1%}{r['allowed']:>8.1%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a_doc, b_doc)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] == "worse" or r["verdict"].startswith("differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
