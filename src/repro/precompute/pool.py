"""Bounded pools of pregenerated mask/noise tensors (the offline phase).

DarKnight's offline/online split generates enclave randomness ahead of
time so the online critical path is pure GEMMs.  The serving hot path
draws one noise tensor per encoded virtual batch; a
:class:`MaskStreamPool` pregenerates those tensors during enclave idle
gaps (the pipeline executor's ``stage_precompute`` op) and hands them
out in draw order.

Bit-identity is the load-bearing property: pooled and inline generation
must produce the *same* tensor for the same logical draw.  Sequential
enclave RNG cannot provide that (pooling reorders draws), so every
stream here is **counter-based**: draw number ``c`` of the stream keyed
by ``(feature_shape, K, M, p)`` is slot ``c mod BLOCK_DRAWS`` of block
``c div BLOCK_DRAWS``, and a block is a pure function of
``(base_key, stream_id, block)`` via a dedicated Philox generator —
seated once per block, not once per tensor (constructing the bit
generator costs more than filling a serving-sized tensor from it).  A
pool hit pops the pregenerated tensor for counter ``c``; a pool miss
reads the very same slot inline — identical bits, no double draw, no
deadlock, regardless of refill timing.  The pool still *accounts* in
single tensors: a refill unit, a hit, a miss and ``max_bytes`` all count
one draw.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

from repro.errors import ConfigurationError

_MASK64 = (1 << 64) - 1
#: Domain-separation constant mixed into every Philox key so mask
#: streams can never collide with other derived randomness.
_DOMAIN_TAG = 0xDA2C_0DE5_0FF1_1E00

#: Pregenerated tensors kept per stream before refills stop.
DEFAULT_STREAM_CAPACITY = 32
#: Draws generated per Philox seat (one ``Generator.integers`` call).
BLOCK_DRAWS = 8
#: Total bytes the pool may pin across all streams.
DEFAULT_POOL_BYTES = 1 << 24


class _MaskStream:
    """One counter-based stream: pregenerated counters ``[drawn, filled)``.

    ``block`` holds the draws of block ``block_index``; the refill and
    miss counters only move forward, so the one kept block serves
    ``BLOCK_DRAWS`` consecutive generations.
    """

    __slots__ = (
        "key", "stream_id", "shape", "nbytes", "drawn", "filled", "ready",
        "block_index", "block",
    )

    def __init__(self, key: tuple, stream_id: int, shape: tuple[int, ...]) -> None:
        self.key = key
        self.stream_id = stream_id
        self.shape = shape
        self.nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        self.drawn = 0
        self.filled = 0
        self.ready: deque[np.ndarray] = deque()
        self.block_index = -1
        self.block: np.ndarray | None = None


class MaskStreamPool:
    """Per-shard pool of mask/noise tensors keyed by ``(feature_shape, K, M, p)``."""

    def __init__(
        self,
        field,
        base_key: int,
        *,
        stream_capacity: int = DEFAULT_STREAM_CAPACITY,
        max_bytes: int = DEFAULT_POOL_BYTES,
    ) -> None:
        if stream_capacity < 1:
            raise ValueError("stream_capacity must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.field = field
        self.base_key = int(base_key) & _MASK64
        self.stream_capacity = int(stream_capacity)
        self.max_bytes = int(max_bytes)
        self._streams: dict[tuple, _MaskStream] = {}
        self.hits = 0
        self.misses = 0
        self.refills = 0
        self._pooled_bytes = 0
        self.peak_bytes = 0

    def _stream_for(self, feature_shape: tuple[int, ...], k: int, m: int) -> _MaskStream:
        key = (tuple(int(s) for s in feature_shape), int(k), int(m))
        stream = self._streams.get(key)
        if stream is None:
            # A function of the (feature_shape, K, M, p) key alone, so a
            # pool rebuilt under the same base key reproduces every
            # stream whatever order it meets its layers in.
            text = repr((key, int(self.field.p))).encode("utf-8")
            stream_id = int.from_bytes(
                hashlib.blake2b(text, digest_size=8).digest(), "big"
            )
            for other in self._streams.values():
                if other.stream_id == stream_id:
                    raise ConfigurationError(
                        f"mask streams {other.key} and {key} share id"
                        f" {stream_id:#x}: their noise would repeat"
                    )
            stream = _MaskStream(key, stream_id, (key[2],) + key[0])
            self._streams[key] = stream
        return stream

    def _generate(self, stream: _MaskStream, counter: int) -> np.ndarray:
        """The tensor for draw ``counter`` — pure function of the key material.

        The block number sits in the *high* word of Philox's 256-bit
        counter; generation advances the low words, so distinct blocks
        can never overlap.  The tensor is a read-only view of its block:
        a caller's write must not reach a neighbouring draw.
        """
        index, slot = divmod(counter, BLOCK_DRAWS)
        if index != stream.block_index:
            bit_gen = np.random.Philox(
                key=[self.base_key ^ _DOMAIN_TAG, stream.stream_id],
                counter=[0, 0, 0, index],
            )
            stream.block = self.field.uniform(
                (BLOCK_DRAWS,) + stream.shape, np.random.Generator(bit_gen)
            )
            stream.block.flags.writeable = False
            stream.block_index = index
        return stream.block[slot]

    def draw(self, feature_shape: tuple[int, ...], k: int, m: int) -> tuple[np.ndarray, bool]:
        """The next noise tensor for this key; ``(tensor, was_pooled)``.

        Hit or miss yields bit-identical tensors: a miss generates the
        same counter the refill would have filled.
        """
        stream = self._stream_for(feature_shape, k, m)
        if stream.ready:
            noise = stream.ready.popleft()
            stream.drawn += 1
            self._pooled_bytes -= stream.nbytes
            self.hits += 1
            return noise, True
        noise = self._generate(stream, stream.drawn)
        stream.drawn += 1
        stream.filled = stream.drawn
        self.misses += 1
        return noise, False

    def _next_refill(self) -> _MaskStream | None:
        for stream in self._streams.values():
            if len(stream.ready) >= self.stream_capacity:
                continue
            if self._pooled_bytes + stream.nbytes > self.max_bytes:
                continue
            return stream
        return None

    def pending_bytes(self) -> int:
        """Bytes of the next refill unit, or 0 when the pool is saturated."""
        stream = self._next_refill()
        return 0 if stream is None else stream.nbytes

    def refill_one(self) -> int:
        """Pregenerate one tensor; returns its byte size (0 if saturated)."""
        stream = self._next_refill()
        if stream is None:
            return 0
        stream.ready.append(self._generate(stream, stream.filled))
        stream.filled += 1
        self._pooled_bytes += stream.nbytes
        self.peak_bytes = max(self.peak_bytes, self._pooled_bytes)
        self.refills += 1
        return stream.nbytes

    @property
    def pooled_bytes(self) -> int:
        return self._pooled_bytes

    @property
    def hit_rate(self) -> float | None:
        """Pool hit rate, or ``None`` before the first draw (strict-JSON)."""
        draws = self.hits + self.misses
        return None if draws == 0 else self.hits / draws

    @property
    def occupancy(self) -> float | None:
        """Filled fraction of pool capacity, ``None`` with no streams yet."""
        if not self._streams:
            return None
        held = sum(len(s.ready) for s in self._streams.values())
        return held / (self.stream_capacity * len(self._streams))

    def snapshot(self) -> dict:
        """Strict-JSON-safe pool telemetry (no ``inf``/``NaN``)."""
        return {
            "streams": len(self._streams),
            "hits": self.hits,
            "misses": self.misses,
            "refills": self.refills,
            "hit_rate": self.hit_rate,
            "occupancy": self.occupancy,
            "pooled_bytes": self._pooled_bytes,
            "pooled_bytes_peak": self.peak_bytes,
        }
