"""Structural check: every public symbol of ``repro`` has a caller.

A public function, class or export that no module of the package, no
benchmark and no example names is not part of the reproduction: it is code
a reader has to read and the suite has to run for nothing.  This walks
``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast`, collects every
name they use, and requires each top-level ``def``/``class`` and each
``__all__`` export of ``src/repro`` to be among them.  ``tests/`` do not
count: a symbol only a test calls goes, or gets a caller.

A symbol's own definition, its ``import`` lines and its ``__all__`` entry
are not uses (none of them is a ``Name`` or an ``Attribute``); any other use
in its own module is.  String constants count under ``benchmarks/`` only,
where the end-to-end benchmark wraps some callables by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples")


def _trees(directory: str):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names() -> set[str]:
    used = set()
    for directory in CALLER_DIRS:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (
                    directory == "benchmarks"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    used.add(node.value)
    return used


def _exports(tree: ast.Module) -> list[ast.Constant]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [elt for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def _public_symbols():
    """Yield ``(module:line, name)`` for every public symbol of the package."""
    for path, tree in _trees("src/repro"):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix().replace("/", ".")
        where = module.removesuffix(".__init__")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{where}:{node.lineno}", node.name
        for elt in _exports(tree):
            if not elt.value.startswith("__"):
                yield f"{where}:{elt.lineno}", elt.value


def test_every_public_symbol_is_reached_outside_the_tests():
    symbols = list(_public_symbols())
    assert len(symbols) > 300  # the walk found the package
    used = _used_names()
    unreached = sorted({f"{where} {name}" for where, name in symbols if name not in used})
    assert not unreached, "\n".join(unreached)
