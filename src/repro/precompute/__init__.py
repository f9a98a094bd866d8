"""Offline precompute: mask streams, weight-encoding reuse, scratch buffers.

The offline/online split from the paper — enclave randomness and static
encodings are produced ahead of the serving critical path, which then
runs nothing but GEMMs.  Three cooperating pieces:

- :class:`MaskStreamPool` — counter-based pregenerated noise tensors,
  bit-identical between pooled and inline generation (``pool``).
- Weight encodings are kept on ``DarKnightBackend`` — validated by value
  against the weights on every staging, in precompute mode or not — and
  dropped through ``invalidate_precompute()`` on membership change; what
  precompute mode adds is leaving them resident on the devices instead of
  re-broadcasting every window.
- :class:`ScratchPool` — per-shape reusable buffers for the encode/
  decode staging steps (``scratch``).
"""

from repro.precompute.pool import (
    DEFAULT_POOL_BYTES,
    DEFAULT_STREAM_CAPACITY,
    MaskStreamPool,
)
from repro.precompute.scratch import (
    MAX_SCRATCH_ENTRIES,
    ScratchPool,
    active_scratch,
    enable_scratch,
    scratch_scope,
)

__all__ = [
    "DEFAULT_POOL_BYTES",
    "DEFAULT_STREAM_CAPACITY",
    "MaskStreamPool",
    "MAX_SCRATCH_ENTRIES",
    "ScratchPool",
    "active_scratch",
    "enable_scratch",
    "scratch_scope",
]
