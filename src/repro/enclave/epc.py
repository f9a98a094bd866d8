"""Enclave Page Cache (EPC) memory model.

SGX gives enclaves ~128 MB of protected memory (~93 MB usable after SGX
metadata); touching more forces encrypted paging to untrusted DRAM, which is
the single effect behind several of the paper's results: the virtual-batch
size cap (Fig. 3 / Fig. 6b, "as the virtual batch size exceeds 4, the
execution time gets worse due to SGX memory overflow"), the multithreading
inversion (Fig. 7), and the baseline's slow non-linear ops (Table 1's 119×
ReLU gap comes from paging large feature maps).

This model is an *accounting* model: it tracks resident bytes against the
usable limit and accumulates paged-byte counters that
:mod:`repro.perf.costs` later converts into time.  Allocations beyond the
limit succeed (as on real SGX) — they just page.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import EnclaveError

#: Hardware EPC size of the paper's SGX generation.
EPC_TOTAL_BYTES = 128 * 1024 * 1024
#: Usable after SGX structures (~93 MB, matching common measurements).
EPC_USABLE_BYTES = 93 * 1024 * 1024


@dataclass
class PagingStats:
    """Cumulative paging traffic (bytes cross the MEE boundary encrypted)."""

    paged_out_bytes: int = 0
    paged_in_bytes: int = 0
    page_faults: int = 0

    @property
    def total_paged_bytes(self) -> int:
        """All encrypted paging traffic, both directions."""
        return self.paged_out_bytes + self.paged_in_bytes


@dataclass
class EpcModel:
    """Byte-level EPC occupancy and paging accountant.

    Parameters
    ----------
    usable_bytes:
        Protected memory available to the enclave heap.
    """

    usable_bytes: int = EPC_USABLE_BYTES
    _allocations: dict = dataclass_field(default_factory=dict)
    stats: PagingStats = dataclass_field(default_factory=PagingStats)
    peak_bytes: int = 0

    def __post_init__(self) -> None:
        if self.usable_bytes <= 0:
            raise EnclaveError(f"usable EPC must be positive, got {self.usable_bytes}")

    # ------------------------------------------------------------------
    # allocation tracking
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Bytes currently allocated by the enclave."""
        return sum(self._allocations.values())

    @property
    def overflow_bytes(self) -> int:
        """Bytes beyond the usable EPC (these live paged-out, encrypted)."""
        return max(0, self.resident_bytes - self.usable_bytes)

    @property
    def is_overflowing(self) -> bool:
        """True when the working set no longer fits in protected memory."""
        return self.overflow_bytes > 0

    def allocate(self, tag: str, nbytes: int) -> None:
        """Track an allocation; overflowing charges page-out traffic."""
        if nbytes < 0:
            raise EnclaveError(f"allocation size must be >= 0, got {nbytes}")
        if tag in self._allocations:
            raise EnclaveError(f"allocation tag {tag!r} already in use")
        before_overflow = self.overflow_bytes
        self._allocations[tag] = nbytes
        self.peak_bytes = max(self.peak_bytes, self.resident_bytes)
        newly_paged = self.overflow_bytes - before_overflow
        if newly_paged > 0:
            self.stats.paged_out_bytes += newly_paged
            self.stats.page_faults += 1

    def free(self, tag: str) -> None:
        """Release a tracked allocation."""
        if tag not in self._allocations:
            raise EnclaveError(f"unknown allocation tag {tag!r}")
        del self._allocations[tag]

    def touch(self, tag: str) -> None:
        """Model an access: when overflowing, a share of the data pages back in.

        We charge the proportional slice of the allocation that statistically
        lives outside EPC under an LRU-ish occupancy assumption.
        """
        if tag not in self._allocations:
            raise EnclaveError(f"unknown allocation tag {tag!r}")
        if not self.is_overflowing:
            return
        nbytes = self._allocations[tag]
        fraction_out = self.overflow_bytes / max(1, self.resident_bytes)
        paged = int(nbytes * fraction_out)
        if paged > 0:
            self.stats.paged_in_bytes += paged
            self.stats.paged_out_bytes += paged  # something else gets evicted
            self.stats.page_faults += 1

    def reset_stats(self) -> None:
        """Zero the paging counters (allocations stay)."""
        self.stats = PagingStats()

    # ------------------------------------------------------------------
    # planning helpers (used by the perf model)
    # ------------------------------------------------------------------
