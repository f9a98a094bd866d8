"""Structural checks: every public symbol and every serving option has a caller.

A public function, class or export that no module of the package, no
benchmark and no example names is not part of the reproduction: it is code
a reader has to read and the suite has to run for nothing.  This walks
``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast`, collects every
name they use, and requires each top-level ``def``/``class`` and each
``__all__`` export of ``src/repro`` to be among them.  ``tests/`` do not
count: a symbol only a test calls goes, or gets a caller.

A name counts only where it is read: a ``Name`` or an ``Attribute`` in
load context.  A symbol's own definition, its ``import`` lines, its
``__all__`` entry and a module constant's own assignment are not uses; any
other use in its own module is.  String constants count under
``benchmarks/`` only, where the end-to-end benchmark wraps some callables
by name.

The same holds for state: a public dataclass field or ``self.<name>``
attribute of a package class that nothing under those directories reads is
a counter nobody looks at (see
:func:`test_every_public_attribute_is_read_outside_the_tests`).

The same rule holds for options: a field of the serving configuration that
only a test sets is a knob nobody turns (see
:func:`test_every_serving_option_is_set_outside_the_tests`).
"""

import ast
import dataclasses
import inspect
import re
import typing
from pathlib import Path

from repro.pipeline.timing import StageCostModel
from repro.runtime.config import DarKnightConfig
from repro.serving.config import ServingConfig

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
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


# ----------------------------------------------------------------------
# every public attribute is read by a caller
# ----------------------------------------------------------------------
def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _public_attributes():
    """Yield ``(module:line, class, name)`` for each field and ``self.<name> =``."""
    for path, tree in _trees("src/repro"):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix().replace("/", ".")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield f"{module}:{stmt.lineno}", cls.name, stmt.target.id
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(method):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        yield f"{module}:{node.lineno}", cls.name, node.attr


def test_every_public_attribute_is_read_outside_the_tests():
    """A field or attribute that only tests read goes, or gets a reader.

    Writing it (``self.n += 1`` included) is not a read.  Like the symbol
    walk this matches by name, so a same-named read anywhere counts.
    """
    first_seen = {}
    for where, cls, name in _public_attributes():
        if not name.startswith("_"):
            first_seen.setdefault((cls, name), where)
    assert len(first_seen) > 300  # the walk found the package
    used = _used_names()
    unread = sorted(
        f"{where} {cls}.{name}"
        for (cls, name), where in first_seen.items()
        if name not in used
    )
    assert not unread, "\n".join(unread)


# ----------------------------------------------------------------------
# every serving option is set by a caller
# ----------------------------------------------------------------------
#: Sections the option walk does not enter.  ``DarKnightConfig`` is the
#: paper's parameter set (``K``, ``M``, the integrity share and the field
#: ``p``, Algorithm 2's sealed aggregation, the normalisation mode whose
#: failure the paper demonstrates, and ``validate_decode``, the float
#: reference the tests compare against): its fields state the protocol,
#: not a serving policy.  ``StageCostModel`` is the simulated clock's price
#: list, whose rates are to be fitted from measured stage spans (ROADMAP's
#: exhibits item), not chosen per deployment.
_NOT_SERVING_POLICY = (DarKnightConfig, StageCostModel)


def _sections(hint):
    """Yield the dataclasses a field annotated ``hint`` can hold."""
    if typing.get_origin(hint) is dict:
        hint = typing.get_args(hint)[1]
    for arg in typing.get_args(hint) or (hint,):
        if dataclasses.is_dataclass(arg) and arg not in _NOT_SERVING_POLICY:
            yield arg


def _serving_options():
    """Yield ``(section, field name)`` for every option of the config tree."""
    todo, seen = [ServingConfig], set()
    while todo:
        section = todo.pop()
        if section in seen:
            continue
        seen.add(section)
        hints = typing.get_type_hints(section)
        for f in dataclasses.fields(section):
            yield section, f.name
            todo.extend(_sections(hints[f.name]))


def _settings() -> dict[str, set[Path]]:
    """Each name a caller sets, with the files that set it.

    A keyword argument in a call sets its name; so does ``name=`` inside
    a string constant (a ``--set path=value`` edit or a ``field=value``
    spec).
    """
    assigned = re.compile(r"(?<![\w])(\w+)=")
    found: dict[str, set[Path]] = {}
    for directory in CALLER_DIRS:
        for path, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    found.setdefault(node.arg, set()).add(path)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    for name in assigned.findall(node.value):
                        found.setdefault(name, set()).add(path)
    return found


def test_every_serving_option_is_set_outside_the_tests():
    """A field of the ``ServingConfig`` tree that only tests set goes.

    Each field must be set by a call or a ``--set``-style string somewhere
    under ``src/``, ``benchmarks/`` or ``examples/`` other than the module
    that defines it.  A field whose default carries live behaviour becomes
    a constant; one whose default is the off value goes with the code path
    it alone switches on.
    """
    settings = _settings()
    unset = sorted(
        f"{section.__name__}.{name}"
        for section, name in _serving_options()
        if not settings.get(name, set()) - {Path(inspect.getsourcefile(section))}
    )
    assert not unset, "\n".join(unset)


def test_the_option_walk_stops_at_the_paper_and_the_clock():
    """The walk covers every serving section and neither excluded one."""
    sections = {section for section, _ in _serving_options()}
    assert {s.__name__ for s in sections} == {
        "ServingConfig", "AutoscaleConfig", "SloPolicy", "SloClass", "AuditConfig",
    }
    assert not sections & set(_NOT_SERVING_POLICY)
