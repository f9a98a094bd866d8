"""Dynamic reach: which entry point runs each function of ``src/repro``.

``tests/test_reachability.py`` requires every public name to be *named*
outside the tests; a function can be named and never run.  This script
runs the repository's entry points in child processes, each with a
``sitecustomize`` that records every code object it calls, and sorts each
top-level function and method of ``src/repro`` (its ``def`` or first
decorator line to its end) into one class:

* **entry point**: the CLI (``python -m repro report``, CI's ``serve``
  smokes and ``audit`` walk) or ``benchmarks/e2e/run.py --smoke``;
* **benches only**: ``benchmarks/bench_*.py --quick --benchmark-disable``;
* **examples only**: the five ``examples/*.py``;
* **no entry point**: tests alone, or nothing.

A function with no entry point must be in :data:`EXEMPT` with its reason.
An exemption that something now runs, or that names no function, is
stale.  Either exits 1.  A body that is only ``...`` or a single ``raise``
(protocol stubs, refusals) is not counted.  Stdlib only::

    python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CLASSES = ("entry point", "benches only", "examples only", "no entry point")

_E2E = "benchmarks/e2e (the ruler, not changed with the code) wraps or reads it by name"
_DEBUG = "a test oracle: validate_decode's float cross-check"
#: Functions no entry point runs, kept on purpose: ``{qualname: reason}``.
EXEMPT: dict[str, str] = {
    "fieldmath.linalg.determinant": _E2E,
    "fieldmath.linalg.is_invertible": _E2E,
    "fieldmath.linalg.solve": _E2E,
    "masking.backward.BackwardDecoder.decode_with_matrices": _E2E,
    "nn.functional.avgpool2d": _E2E,
    "nn.functional.avgpool2d_grad": _E2E,
    "precompute.scratch.ScratchPool.pooled_bytes": _E2E,
    "quantization.fixed_point.QuantizationConfig.dequantize": _E2E,
    "quantization.fixed_point.QuantizationConfig.quantize_weights": _E2E,
    "fieldmath.kernels.GenericBackend.matmul_public": "a test oracle: the integer backend's"
    " public-GEMM slot, which declines so the oracle runs its integer product",
    "runtime.darknight.DarKnightBackend._float_conv": _DEBUG,
    "runtime.darknight.DarKnightBackend._validate": _DEBUG,
    "errors.SingularMatrixError.__init__": "an error path: a singular primary block"
    " (probability ~ (k+m)/p) sends generate back to redraw it",
    "runtime.darknight.DarKnightBackend.open_encodings": "an error path:"
    " assert_encodings_released counts the leaked tickets into its message",
    "nn.layers.Layer.backward_params": "the layer contract's default: a network"
    " whose first layer is not a Conv2D or Dense (every bundled model's is) backs"
    " through that layer's backward",
}

#: Installed as ``sitecustomize``: at exit, writes ``file:first line`` of
#: every code object under ``REACH_SRC`` the process (or a thread) called.
RECORDER = """\
import atexit, os, sys, threading

_codes = {}


def _profile(frame, event, _arg):
    if event == "call":
        _codes[id(frame.f_code)] = frame.f_code


def _dump():
    sys.setprofile(None)
    prefix = os.environ["REACH_SRC"]
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as out:
        for code in list(_codes.values()):
            if code.co_filename.startswith(prefix):
                out.write(f"{code.co_filename}:{code.co_firstlineno}\\n")


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
"""

_SERVE = "-m repro serve --model tiny "
_AUDIT = "-m repro audit "
#: The CLI runs of CI's smoke steps, in order (``{tmp}`` is a scratch dir).
CLI = (
    "-m repro report",
    _SERVE + "--set darknight.num_shards=2 --set partition=layered:2 --set autoscale.min_shards=2"
    " --set autoscale.max_shards=4 --requests 200 --rate 4000",
    _SERVE + "--set darknight.pipeline_depth=2 --slo-budget premium=8"
    " --slo-class tenant0=premium --requests 200 --rate 4000",
    _SERVE + "--slo-budget premium=8 --slo-class tenant0=premium --set queue_capacity=8"
    " --requests 400 --rate 8000",
    _SERVE + "--config latency --slo-budget premium=8 --slo-class tenant0=premium"
    " --requests 200 --rate 4000",
    "-m repro serve --model mini-resnet --set darknight.epc_budget_bytes=32768 --requests 32",
    _SERVE + "--set darknight.integrity=true --set precompute=true --requests 200 --rate 4000",
    "-m repro serve --model mini-resnet --config examples/configs/composed.json"
    " --set audit.log_dir={tmp}/composed --requests 64 --rate 800",
    _AUDIT + "replay --log-dir {tmp}/composed --request-id 17",
    _SERVE + "--set audit.log_dir={tmp}/trail --requests 4000 --rate 4000",
    _AUDIT + "check-chain --log-dir {tmp}/trail",
    _AUDIT + "prove --log-dir {tmp}/trail --request-id 17 --out {tmp}/proof.json",
    _AUDIT + "verify --proof {tmp}/proof.json",
    _AUDIT + "replay --log-dir {tmp}/trail --request-id 17",
    _SERVE + "--set darknight.num_shards=2 --set autoscale.min_shards=2"
    " --set autoscale.max_shards=4 --set audit.log_dir={tmp}/elastic --requests 400 --rate 4000",
    _AUDIT + "check-chain --log-dir {tmp}/elastic",
    "benchmarks/e2e/run.py --smoke --out {tmp}/e2e",
)
EXAMPLES = ("quickstart", "private_training", "integrity_verification",
            "full_cloud_session", "collusion_attack")


class Function(NamedTuple):
    qualname: str
    path: str
    start: int
    lines: int
    stub: bool


def _is_stub(node: ast.FunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    only = body[0]
    ellipsis = isinstance(only, ast.Expr) and getattr(only.value, "value", None) is Ellipsis
    return len(body) == 1 and (ellipsis or isinstance(only, ast.Raise))


def _defs(node, prefix: str, path: str):
    for child in node.body:
        if isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.", path)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([d.lineno for d in child.decorator_list] + [child.lineno])
            yield Function(prefix + child.name, path, start,
                           child.end_lineno - start + 1, _is_stub(child))


def functions(package: Path) -> list[Function]:
    """Every top-level function and method under ``package``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        prefix = module.removesuffix("__init__").rstrip(".")
        found += _defs(ast.parse(path.read_text()), prefix + "." if prefix else "", str(path))
    return found


def probe(groups: dict[str, list[list[str]]], src: Path, cwd: Path) -> dict[str, set]:
    """Run each group's commands under the recorder; ``{group: {(file, line)}}``.

    A command is the argument list after ``python``.  Every command must
    exit 0, except a pytest run, whose failed tests (exit 1) the bench
    steps report themselves.
    """
    reached: dict[str, set] = {}
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "sitecustomize.py").write_text(RECORDER)
        for group, commands in groups.items():
            out = Path(scratch, group.replace(" ", "-"))
            out.mkdir()
            env = dict(os.environ, REACH_SRC=str(src), REACH_OUT=str(out),
                       PYTHONPATH=os.pathsep.join([scratch, str(src)]),
                       OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            for argv in commands:
                proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True)
                allowed = (0, 1) if argv[:2] == ["-m", "pytest"] else (0,)
                if proc.returncode not in allowed:
                    sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
            reached[group] = {
                (path, int(line))
                for dump in out.iterdir()
                for path, _, line in (row.rpartition(":") for row in dump.read_text().split())
            }
    return reached


def report(funcs: list[Function], reached: dict[str, set], exempt: dict[str, str]):
    """``(lines, errors)``: the per-class listing and what fails the gate."""
    counted = [f for f in funcs if not f.stub]
    classed = [
        (next((c for c in CLASSES[:-1] if (f.path, f.start) in reached.get(c, ())),
              CLASSES[-1]), f)
        for f in counted
    ]
    lines = [f"{'class':<16}{'functions':>10}{'lines':>8}"]
    for c in CLASSES:
        members = [f for cls, f in classed if cls == c]
        lines.append(f"{c:<16}{len(members):>10}{sum(f.lines for f in members):>8}")
    for cls, f in sorted(classed, key=lambda item: (CLASSES.index(item[0]), item[1].qualname)):
        if cls != CLASSES[0]:
            why = f"  (exempt: {exempt[f.qualname]})" if f.qualname in exempt else ""
            lines.append(f"  {cls:<16}{f.lines:>4}  {f.qualname}{why}")
    unreached = {f.qualname for cls, f in classed if cls == CLASSES[-1]}
    errors = [f"no entry point runs {name}" for name in sorted(unreached - exempt.keys())]
    errors += [f"stale exemption: {name}" for name in sorted(exempt.keys() - unreached)]
    return lines, errors


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        groups = {
            CLASSES[0]: [c.format(tmp=tmp).split() for c in CLI],
            CLASSES[1]: [["-m", "pytest", "-q", "-p", "no:cacheprovider", "--quick",
                          "--benchmark-disable",
                          *sorted(str(p) for p in ROOT.glob("benchmarks/bench_*.py"))]],
            CLASSES[2]: [[f"examples/{name}.py"] for name in EXAMPLES],
        }
        reached = probe(groups, PACKAGE.parent, ROOT)
    lines, errors = report(functions(PACKAGE), reached, EXEMPT)
    print("\n".join(lines + errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
