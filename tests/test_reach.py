"""``benchmarks/reach.py`` classes functions by the entry points that run them.

A synthetic two-module package with stub entry points: one script calls
``a.served``, one "example" calls ``b.shown``, and nothing the probe runs
calls ``a.tests_only``.  The probe runs the two scripts under its recorder
for real, so these tests pin the whole chain from ``sitecustomize`` to
verdict.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
_spec = importlib.util.spec_from_file_location("reach", _BENCHMARKS / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULES = {
    "__init__.py": "",
    "a.py": '''
        def served():
            return 1


        def tests_only():
            return 2


        def refuse():
            """Refuses, always."""
            raise ValueError("no")


        class Proto:
            def run(self):
                ...
        ''',
    "b.py": '''
        from pkg.a import served


        def shown():
            return served() + 1
        ''',
}


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    root = tmp_path_factory.mktemp("reach")
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    for name, text in MODULES.items():
        (package / name).write_text(textwrap.dedent(text))
    (root / "entry.py").write_text("import pkg.a\npkg.a.served()\n")
    (root / "example.py").write_text("import pkg.b\npkg.b.shown()\n")
    reached = reach.probe(
        {"entry point": [["entry.py"]], "examples only": [["example.py"]]},
        root / "src", root,
    )
    return reach.functions(package), reached


def _verdict(probed, exempt=None):
    funcs, reached = probed
    return reach.report(funcs, reached, exempt or {})


def test_a_function_only_tests_call_is_flagged(probed):
    lines, errors = _verdict(probed)
    assert errors == ["no entry point runs a.tests_only"]
    assert any(line.split()[-1] == "a.tests_only" and "no entry point" in line for line in lines)


def test_a_function_an_entry_point_calls_passes(probed):
    lines, errors = _verdict(probed)
    assert not any("a.served" in e for e in errors)
    assert not any(line.endswith("a.served") for line in lines)  # counted, not listed
    assert lines[1].split() == ["entry", "point", "1", "2"]  # a.served's two lines


def test_a_function_only_an_example_reaches_is_reported_and_passes(probed):
    lines, errors = _verdict(probed)
    assert "  examples only      2  b.shown" in lines
    assert not any("b.shown" in e for e in errors)


def test_a_raise_only_body_and_a_stub_are_not_counted(probed):
    funcs, _ = probed
    assert {f.qualname for f in funcs if f.stub} == {"a.refuse", "a.Proto.run"}
    lines, errors = _verdict(probed)
    assert not any("refuse" in line or "Proto" in line for line in lines + errors)


def test_a_stale_exemption_is_an_error(probed):
    _, errors = _verdict(
        probed, {"a.tests_only": "an oracle", "a.served": "reached now", "a.gone": "deleted"}
    )
    assert errors == ["stale exemption: a.gone", "stale exemption: a.served"]
