"""Smoke tests: every shipped example runs to completion."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_directory_is_populated():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "private_training", "integrity_verification",
            "collusion_attack", "full_cloud_session"} <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.stem} printed nothing"
