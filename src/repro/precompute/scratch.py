"""Per-shape scratch buffers for the steady-state masking hot path.

Every flush window re-runs the same encode/decode steps on the same
shapes, yet each call allocates fresh gather/concat staging — allocator
traffic that is pure overhead once shapes stabilise.  A
:class:`ScratchPool` keeps exactly one buffer per ``(tag, shape, dtype)``
and hands it back on every request, so the encoder/decoder staging steps
write into recycled memory instead.  (The field kernels' own float64
temporaries live in a workspace their backend owns —
:class:`repro.fieldmath.kernels.LimbBackend` — pool or no pool.)

Safety contract: a scratch buffer may only hold values *within* one
encode or decode call — nothing returned to a caller may alias pool
memory.  Reuse is therefore value-transparent: enabling the pool cannot
change a single output bit, only where intermediates briefly live.

The pool is process-global and off by default; a precompute-mode
pipeline executor turns it on for exactly the windows it runs
(:func:`scratch_scope`) and puts the previous state back afterwards, so
one precompute server never moves its neighbours onto the pool.  Being
process-global, pool and switch are shared by every thread: two
precompute deployments must not be served from one process on two
threads, or each overwrites the other's staging mid-call (the field
kernels' enclave-side workspace is per thread; this pool is not).  This
module imports nothing from the rest of the package, so any layer can use
it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

#: Distinct (tag, shape, dtype) buffers kept before the pool resets —
#: shape churn past this means the workload is not steady-state and
#: caching would only pin dead memory.
MAX_SCRATCH_ENTRIES = 64


class ScratchPool:
    """One reusable buffer per ``(tag, shape, dtype)`` request site."""

    def __init__(self, max_entries: int = MAX_SCRATCH_ENTRIES) -> None:
        self.max_entries = max_entries
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """A buffer of the requested geometry (contents undefined)."""
        key = (tag, tuple(int(s) for s in shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            if len(self._buffers) >= self.max_entries:
                self._buffers.clear()
            buf = np.empty(key[1], dtype=dtype)
            self._buffers[key] = buf
        return buf

    def cast(self, tag: str, array: np.ndarray, dtype) -> np.ndarray:
        """``array`` copied into a pooled buffer of ``dtype`` (same shape)."""
        buf = self.get(tag, array.shape, dtype)
        np.copyto(buf, array, casting="unsafe")
        return buf

    def clear(self) -> None:
        """Release every pooled buffer."""
        self._buffers.clear()

    @property
    def pooled_bytes(self) -> int:
        """Bytes currently pinned by pooled buffers."""
        return sum(int(buf.nbytes) for buf in self._buffers.values())


_POOL = ScratchPool()
_ENABLED = False


def enable_scratch(on: bool = True) -> bool:
    """Turn the global pool on/off; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    if not _ENABLED:
        _POOL.clear()
    return previous


@contextmanager
def scratch_scope(on: bool):
    """Route the enclosed work through the pool when ``on``, then restore.

    ``on=False`` leaves the current state alone, so a caller can wrap its
    work unconditionally.  Restoring only flips the switch back: pooled
    buffers stay, which is what lets the next window (or an enclosing
    scope) reuse them.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = previous or bool(on)
    try:
        yield
    finally:
        _ENABLED = previous


def active_scratch() -> ScratchPool | None:
    """The global pool when enabled, else ``None`` (callers allocate)."""
    return _POOL if _ENABLED else None
