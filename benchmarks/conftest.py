"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure from the paper's evaluation
section and prints it (visible even under pytest).  Timing uses
pytest-benchmark; heavyweight functional experiments (Fig. 4's real masked
training) run a single round via ``benchmark.pedantic``.

Passing ``--quick`` shrinks the serving/pipeline/sharding benchmarks to a
smoke-sized workload (small model, few requests) so CI's benchmark-smoke
job finishes in a couple of minutes; every acceptance assertion still runs.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks in fast smoke mode (small model, few requests)",
    )


@pytest.fixture()
def quick(request) -> bool:
    """True when the run should use the smoke-sized workload."""
    return bool(request.config.getoption("--quick"))


def show(capsys, text: str) -> None:
    """Print a rendered exhibit, bypassing pytest capture."""
    with capsys.disabled():
        print("\n" + text + "\n")
