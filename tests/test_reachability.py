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
:func:`test_every_serving_option_is_set_outside_the_tests`), and so is a
defaulted parameter that only a test passes (see
:func:`test_every_defaulted_parameter_is_passed_outside_the_tests`).
"""

import ast
import dataclasses
import inspect
import math
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
#: ``p``, the normalisation mode whose failure the paper demonstrates, and
#: ``validate_decode``, the float reference the tests compare against): its
#: fields state the protocol, not a serving policy.  ``StageCostModel`` is
#: the simulated clock's price list, whose rates are to be fitted from
#: measured stage spans (ROADMAP's exhibits item), not chosen per deployment.
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


# ----------------------------------------------------------------------
# every defaulted parameter is passed by a caller
# ----------------------------------------------------------------------
#: Defaulted parameters that no caller outside the tests passes, kept on
#: purpose: ``(callable, parameter, reason)``.
_UNPASSED_ON_PURPOSE = (
    ("LimbBackend", "one_gemm_cap",
     "the oracle tests reach every kernel tier at small sizes through it"),
    ("LimbBackend", "two_gemm_cap",
     "the oracle tests reach every kernel tier at small sizes through it"),
    ("Enclave", "platform_key", "a credential"),
    ("parse_seed_flag", "argv", "an entry point's argument vector"),
    ("MaskStreamPool", "stream_capacity",
     "ROADMAP item 4 decides precompute's fate; property tests draw over it"),
    ("MaskStreamPool", "max_bytes",
     "ROADMAP item 4 decides precompute's fate; property tests draw over it"),
    ("ScratchPool", "max_entries",
     "ROADMAP item 4 decides precompute's fate; property tests draw over it"),
    ("RecoveringExecutor", "max_retries",
     "it goes with ROADMAP's gated retry item, which folds recovery into serving"),
    ("ResidualBlock", "shortcut",
     "ResNet's projection block is architecture, not policy"),
)


def _defaults(args: ast.arguments):
    """Yield ``(name, position)`` for each defaulted parameter.

    ``position`` indexes the positional parameters, ``None`` marks a
    keyword-only one.
    """
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], start=first):
        yield arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaulted_parameters(module: str, node: ast.AST, cls: ast.ClassDef | None = None):
    """Yield ``(module:line, callable, parameter, position)`` below ``node``.

    A class's ``__init__`` is called by the class's name, and a method's
    positions do not count ``self``/``cls``.  Private callables are skipped.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(module, child, child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = cls.name if cls is not None and child.name == "__init__" else child.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            bound = cls is not None and not static
            if not name.startswith("_"):
                for param, position in _defaults(child.args):
                    if position is not None:
                        position -= bound
                    yield f"{module}:{child.lineno}", name, param, position
            yield from _defaulted_parameters(module, child)
        else:
            yield from _defaulted_parameters(module, child, cls)


def _calls(node: ast.AST, own: frozenset = frozenset()):
    """Yield ``(call, own)``: each call with the defaulted parameter names
    of the function it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _calls(child, frozenset(name for name, _ in _defaults(child.args)))
            continue
        if isinstance(child, ast.Call):
            yield child, own
        yield from _calls(child, own)


def _passed() -> tuple[set[str], dict[str, float]]:
    """What callers pass: the keyword names, and per callee name the most
    positional arguments a call gives it (``inf`` when one unpacks
    ``*``/``**`` into it).

    A forwarding ``x=x`` of the calling function's own defaulted ``x``
    passes nothing new.  A ``name=`` inside a benchmark's string constant
    counts as a keyword, as in :func:`_settings`.
    """
    assigned = re.compile(r"(?<![\w])(\w+)=")
    keywords: set[str] = set()
    positions: dict[str, float] = {}
    for directory in CALLER_DIRS:
        for _, tree in _trees(directory):
            for call, own in _calls(tree):
                func = call.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                reach = len(call.args)
                if any(isinstance(arg, ast.Starred) for arg in call.args):
                    reach = math.inf
                for kw in call.keywords:
                    if kw.arg is None:
                        reach = math.inf
                    elif not (
                        kw.arg in own
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id == kw.arg
                    ):
                        keywords.add(kw.arg)
                positions[callee] = max(positions.get(callee, 0), reach)
            if directory == "benchmarks":
                for node in ast.walk(tree):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        keywords.update(assigned.findall(node.value))
    return keywords, positions


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A defaulted parameter that only tests pass becomes a constant.

    A parameter counts as passed when a call under ``src/``,
    ``benchmarks/`` or ``examples/`` names it as a keyword, reaches its
    position in a call to a same-named callable, or unpacks ``*``/``**``
    into that callable.  Like the other walks this matches by name.  With
    one value in use, the default becomes a module constant, or goes with
    the code path only it switched on.
    """
    keywords, positions = _passed()
    params = [
        entry
        for path, tree in _trees("src/repro")
        for entry in _defaulted_parameters(
            path.relative_to(SRC.parent).with_suffix("").as_posix().replace("/", "."), tree
        )
    ]
    assert len(params) > 300  # the walk found the package
    unpassed = [
        (where, name, param)
        for where, name, param, position in params
        if param not in keywords
        and positions.get(name, 0) != math.inf
        and (position is None or positions.get(name, 0) <= position)
    ]
    exempt = {(name, param) for name, param, _ in _UNPASSED_ON_PURPOSE}
    stale = exempt - {(name, param) for _, name, param in unpassed}
    assert not stale, f"exempt parameters a caller now passes or that are gone: {stale}"
    listed = sorted(
        f"{where} {name}({param})"
        for where, name, param in unpassed
        if (name, param) not in exempt
    )
    assert not listed, "\n".join(listed)
