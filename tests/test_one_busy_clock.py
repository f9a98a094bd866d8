"""Structural check: busy time is booked once, by the clock that spends it.

Every simulated enclave second is reserved on an ``EnclaveTimeline`` and
every GPU second on a ``SimulatedGpu``; anything above them that keeps its
own ``busy_time`` running sum is a second copy that can drift from the
first (an aborted window once went missing from one).  Readers read the
clock, so only the two clocks may add to a ``busy_time``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only files allowed ``<obj>.busy_time += ...``: the two clocks.
ALLOWED = {
    "pipeline/timing.py",  # EnclaveTimeline.reserve
    "gpu/device.py",  # SimulatedGpu.reserve_lineup
}


def _busy_time_bookings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == "busy_time"
    ]


def test_only_the_clocks_add_to_busy_time():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50  # the walk found the package
    found = [
        line
        for path in files
        if path.relative_to(SRC).as_posix() not in ALLOWED
        for line in _busy_time_bookings(path)
    ]
    assert not found, "\n".join(found)
    for name in ALLOWED:  # an exemption nothing needs any more goes
        assert _busy_time_bookings(SRC / name), f"{name} no longer books busy time"
