"""VIA memory registration.

VIA requires every buffer the NIC touches to be registered (pinned)
ahead of time through the kernel agent; registration returns a memory
handle bound to a protection tag.  RMA additionally requires the region
to be enabled for remote writes.  We model a per-node virtual address
space with bump allocation — addresses are plain integers, and "data"
is never materialized at this layer (byte counts drive the timing
model; actual payloads ride alongside as Python objects).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ViaProtectionError

_tag_counter = itertools.count(1)


@dataclass(frozen=True)
class ProtectionTag:
    """VIA protection tag: descriptors, regions and VIs must agree."""

    value: int

    @classmethod
    def create(cls) -> "ProtectionTag":
        return cls(next(_tag_counter))


@dataclass(slots=True)
class MemoryRegion:
    """A registered (pinned) memory region.

    Attributes
    ----------
    addr, nbytes:
        Placement in the node's simulated address space.
    tag:
        Protection tag the region was registered under.
    rma_write_enabled:
        Whether remote DMA writes may target this region.
    """

    addr: int
    nbytes: int
    tag: ProtectionTag
    rma_write_enabled: bool = False
    #: Python-object storage for payloads RMA-written into the region.
    data: Optional[object] = field(default=None, repr=False)

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def contains(self, addr: int, nbytes: int) -> bool:
        return self.addr <= addr and addr + nbytes <= self.end


class RegisteredSpace:
    """Per-node registry of pinned regions (the kernel agent's table).

    Lookup is by bisection over the (non-overlapping, sorted) region
    start addresses — the model's stand-in for the kernel's TPT — so
    per-fragment RMA protection checks stay O(log n).
    """

    #: Registration cost: pinning pages through the kernel (us per call
    #: plus per-4KiB-page cost). Paid on the slow path only.
    REGISTER_BASE_COST = 15.0
    REGISTER_PER_PAGE = 0.4

    def __init__(self) -> None:
        self._regions: Dict[int, MemoryRegion] = {}
        self._addrs: list = []  # sorted region start addresses
        self._next_addr = 0x1000

    def register(self, nbytes: int, tag: ProtectionTag,
                 rma_write: bool = False) -> MemoryRegion:
        """Pin ``nbytes`` and return the region (bump allocation)."""
        if nbytes <= 0:
            raise ViaProtectionError(f"cannot register {nbytes} bytes")
        region = MemoryRegion(self._next_addr, nbytes, tag,
                              rma_write_enabled=rma_write)
        self._regions[region.addr] = region
        # Bump allocation is monotone, so a plain append keeps the
        # address list sorted.
        self._addrs.append(region.addr)
        # Keep regions page-aligned and non-adjacent to catch any code
        # that computes addresses rather than using region handles.
        self._next_addr += ((nbytes + 4095) // 4096 + 1) * 4096
        return region

    def deregister(self, region: MemoryRegion) -> None:
        if self._regions.pop(region.addr, None) is None:
            raise ViaProtectionError(
                f"region at {region.addr:#x} not registered"
            )
        index = bisect.bisect_left(self._addrs, region.addr)
        del self._addrs[index]

    def register_cost(self, nbytes: int) -> float:
        """Kernel time (us) for registering ``nbytes``."""
        pages = (nbytes + 4095) // 4096
        return self.REGISTER_BASE_COST + self.REGISTER_PER_PAGE * pages

    def find(self, addr: int, nbytes: int, tag: ProtectionTag,
             for_rma_write: bool = False) -> MemoryRegion:
        """The region covering ``[addr, addr+nbytes)`` or raise.

        Enforces protection-tag match and, for RMA, write enablement —
        the checks the VIA hardware model performs on every access.
        """
        index = bisect.bisect_right(self._addrs, addr) - 1
        region = (
            self._regions.get(self._addrs[index]) if index >= 0 else None
        )
        if region is None or not region.contains(addr, nbytes):
            raise ViaProtectionError(
                f"no registered region covers [{addr:#x}, +{nbytes})"
            )
        if region.tag != tag:
            raise ViaProtectionError(
                f"protection tag mismatch at {addr:#x}"
            )
        if for_rma_write and not region.rma_write_enabled:
            raise ViaProtectionError(
                f"region at {region.addr:#x} not RMA-write enabled"
            )
        return region

    def __len__(self) -> int:
        return len(self._regions)
