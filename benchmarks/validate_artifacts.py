"""Assert every benchmark JSON artifact parses as *strict* JSON.

``json.dumps`` happily emits the non-standard ``Infinity``/``NaN``
literals (and ``json.loads`` accepts them back), so a metric leaking a
non-finite float produces an artifact most other tooling rejects.  CI
runs this after the benchmark-smoke jobs: parsing with a
``parse_constant`` rejector fails the build the moment any artifact
carries a non-finite constant.

Each argument is a directory (every ``*.json`` under it) or one file, such
as the committed trajectories.  Usage::

    python benchmarks/validate_artifacts.py bench-results/ BENCH_kernels.json BENCH_e2e.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _reject(constant: str):
    raise ValueError(f"non-strict JSON constant {constant!r}")


def validate_tree(root: Path) -> list[Path]:
    """Strict-parse the file ``root``, or every ``*.json`` under the
    directory ``root``; return the files."""
    if root.is_dir():
        files = sorted(root.rglob("*.json"))
    else:
        files = [root] if root.is_file() else []
    if not files:
        raise SystemExit(f"no JSON artifacts found at {root}")
    for path in files:
        try:
            json.loads(path.read_text(), parse_constant=_reject)
        except ValueError as exc:
            raise SystemExit(f"{path}: not strict JSON ({exc})") from exc
    return files


def main(argv: list[str]) -> int:
    files = [path for root in argv or ["bench-results"] for path in validate_tree(Path(root))]
    print(f"{len(files)} artifact(s) are strict JSON:")
    for path in files:
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
