"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :meth:`Recorder.install` rebinds
*public* callables of the program — class attributes, and module-level
functions at every ``repro.*`` module global that refers to them (a
function imported by name into three modules is looked up through three
bindings) — to thin wrappers that record one span per call into the
:class:`Recorder`; :meth:`Recorder.uninstall` puts every original back.

A span is ``(name, start, end, parent, context, amount)``: ``parent`` is
the index of the span that was open when this one started (``-1`` for a
top-level span), ``context`` is the window/step id current at entry
(bumped by targets marked ``bumps_context``), and ``amount`` is whatever
the target's ``amount`` callback computed from the call (bytes, MACs).
Spans stay in memory; :meth:`Recorder.dump` writes them at the end.

Self time follows the usual definition: a span's duration minus the part
of it covered by its direct children.  The benchmark is single-threaded,
so children never overlap and every span's self time is non-negative;
summed over a root's whole subtree the self times equal the root's
duration exactly, which is what lets per-layer self times partition a
served trace or a training step.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is a class or a module; ``attr`` the attribute to rebind.
    ``generator`` targets return an iterator whose *consumption* is
    timed (one span per ``next()``; the first carries ``amount=1`` so
    the amount total counts enumerations started).
    """

    span: str
    owner: object
    attr: str
    amount: Callable | None = None
    bumps_context: bool = False
    generator: bool = False


class Recorder:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: ``(name_id, start, end, parent, context, amount)`` per span, in
        #: entry order — so a parent always precedes its children.
        self.spans: list = []
        self._stack: list[int] = []
        self.context = 0
        #: ``(namespace, attribute, original)`` for every live rebinding.
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        """The recording wrapper :meth:`install` binds in place of ``fn``."""
        nid = self.name_id(target.span)
        spans, stack, clock = self.spans, self._stack, self.clock
        amount_of, bumps = target.amount, target.bumps_context

        if target.generator:

            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                return self._consume(fn(*args, **kwargs), nid)

            return traced_iter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bumps:
                self.context += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            context = self.context
            spans.append(None)
            stack.append(idx)
            amount = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if amount_of is not None:
                    amount = amount_of(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, context, amount)

        return traced

    def _consume(self, inner, nid: int):
        """Yield from ``inner``, recording the time each ``next()`` takes."""
        spans, stack, clock = self.spans, self._stack, self.clock
        first = 1
        while True:
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.context, first)
                first = 0
            yield item

    # -- install / uninstall ---------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Rebind every target to a recording wrapper (undo: :meth:`uninstall`)."""
        if self._installed:
            raise RuntimeError("tracing is already installed; uninstall() first")
        for target in targets:
            raw = vars(target.owner)[target.attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, target))
            else:
                wrapped = self.wrap(raw, target)
            for namespace, name in _bindings(target.owner, target.attr):
                self._installed.append((namespace, name, vars(namespace)[name]))
                setattr(namespace, name, wrapped)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced, newest first."""
        while self._installed:
            namespace, name, original = self._installed.pop()
            setattr(namespace, name, original)

    # -- output ----------------------------------------------------------
    def dump(self, path, header: dict | None = None) -> None:
        """Write every span as one JSON document (see the README)."""
        doc = dict(header or {})
        doc["names"] = self.names
        doc["columns"] = ["name", "start_s", "end_s", "parent", "context", "amount"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, allow_nan=False)


def _bindings(owner, attr: str):
    """Every ``(namespace, attribute)`` through which the target is reached."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = vars(owner)[attr]
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
@dataclass
class NameStats:
    """Totals for one span name inside the analysed subtree."""

    calls: int = 0
    #: Total span time, counting only spans with no same-name ancestor
    #: (a recursive call is already inside its caller's span).
    busy_s: float = 0.0
    self_s: float = 0.0
    amount: float = 0.0


class Summary:
    """Per-name totals, plus filtered views, over a recorder's spans."""

    def __init__(self, recorder: Recorder) -> None:
        self.names = recorder.names
        self.spans = recorder.spans
        n = len(self.spans)
        self.child_s = [0.0] * n
        #: Bitmask of the name ids of each span's ancestors.
        self.ancestors = [0] * n
        #: Span indices per name id, so a name's totals touch only its spans.
        self.by_name: list[list[int]] = [[] for _ in self.names]
        for i, (nid, start, end, parent, _ctx, _amount) in enumerate(self.spans):
            self.by_name[nid].append(i)
            if parent >= 0:
                self.child_s[parent] += end - start
                self.ancestors[i] = self.ancestors[parent] | (1 << self.spans[parent][0])

    def _mask(self, names) -> int:
        wanted = set(names)
        return sum(1 << i for i, name in enumerate(self.names) if name in wanted)

    def layer_names(self, layer: str) -> list[str]:
        return [n for n in self.names if n.split(".", 1)[0] == layer]

    def stats(self, name: str, inside=(), outside=(), under: str | None = None) -> NameStats:
        """Totals for ``name``.

        ``inside`` keeps spans with an ancestor of any of those names,
        ``outside`` drops spans with one, and ``under`` keeps only spans
        in the subtree of a span named so (that span included).
        """
        out = NameStats()
        if name not in self.names:
            return out
        nid = self.names.index(name)
        own = 1 << nid
        need, avoid = self._mask(inside), self._mask(outside)
        root = self._mask([under]) if under is not None else 0
        for i in self.by_name[nid]:
            _nid, start, end, _parent, _ctx, amount = self.spans[i]
            anc = self.ancestors[i]
            if (need and not anc & need) or anc & avoid:
                continue
            if root and not (anc | own) & root:
                continue
            out.calls += 1
            out.amount += amount
            out.self_s += (end - start) - self.child_s[i]
            if not anc & own:
                out.busy_s += end - start
        return out

    def layer_self_s(self, root_name: str) -> tuple[float, dict[str, float]]:
        """``(root seconds, {layer: self seconds})`` under ``root_name`` roots.

        The layer of a span is the first dotted component of its name.
        Spans outside any such root (set-up, post-run checks) are left out,
        so the layers' self times sum to the roots' total duration.
        """
        root_mask = self._mask([root_name])
        total = 0.0
        layers: dict[str, float] = {}
        for i, (nid, start, end, parent, _ctx, _amount) in enumerate(self.spans):
            name = self.names[nid]
            is_root = parent < 0 and name == root_name
            if is_root:
                total += end - start
            elif not self.ancestors[i] & root_mask:
                continue
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start) - self.child_s[i]
        return total, layers
