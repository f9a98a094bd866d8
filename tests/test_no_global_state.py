"""Structural check: no module of ``repro`` rebinds module-level state.

A ``global`` statement is how a function switches something for the whole
process — a field backend, a layer counter, a pool — which every caller
then shares whether it asked to or not.  State belongs to the object that
uses it, so the package has none, with one named exception.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Files allowed a ``global`` statement, each with the reason it stays.
ALLOWED = {
    # The scratch pool's process switch is imported and counted by the
    # frozen end-to-end benchmark; it goes with bench-e2e v2.
    "precompute/scratch.py",
}


def _globals_in(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}: global {', '.join(node.names)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]


def test_no_module_of_the_package_rebinds_a_global():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50  # the walk found the package
    found = [
        line
        for path in files
        if path.relative_to(SRC).as_posix() not in ALLOWED
        for line in _globals_in(path)
    ]
    assert not found, "\n".join(found)
    for name in ALLOWED:  # an exemption nothing needs any more goes
        assert _globals_in(SRC / name), f"{name} no longer needs its exemption"
