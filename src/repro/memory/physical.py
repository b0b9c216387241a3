"""Machine-physical memory capacity accounting.

The controller models *where* data lives (chunk ids, offsets) rather
than serializing compressed bit streams into a byte array — offsets and
split behaviour depend only on the size bins, exactly as in the real
hardware.  ``PhysicalMemory`` tracks installed capacity, the metadata
region carved out of it, and occupancy, and raises the out-of-memory
condition that drives the §V-B ballooning path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocator import ChunkAllocator, OutOfMemoryError, VariableAllocator


@dataclass(frozen=True)
class MemoryGeometry:
    """Installed memory and the advertised (OSPA) capacity above it."""

    installed_bytes: int
    advertised_ratio: float = 2.0     # OS is promised ratio x installed
    page_size: int = 4096
    metadata_entry_bytes: int = 64

    @property
    def advertised_bytes(self) -> int:
        return int(self.installed_bytes * self.advertised_ratio)

    @property
    def ospa_pages(self) -> int:
        return self.advertised_bytes // self.page_size

    @property
    def metadata_region_bytes(self) -> int:
        """Dedicated MPA space for one 64 B entry per OSPA page (§III)."""
        return self.ospa_pages * self.metadata_entry_bytes

    @property
    def data_region_bytes(self) -> int:
        """Installed bytes left for compressed data."""
        return self.installed_bytes - self.metadata_region_bytes

    @property
    def metadata_overhead(self) -> float:
        return self.metadata_region_bytes / self.installed_bytes


class PhysicalMemory:
    """Chunked machine memory backing a compressed-memory controller."""

    def __init__(self, geometry: MemoryGeometry, allocation: str = "chunks",
                 chunk_size: int = 512) -> None:
        self.geometry = geometry
        data_bytes = geometry.data_region_bytes
        if data_bytes <= 0:
            raise ValueError("metadata region exceeds installed memory")
        # Round down to a whole number of max-size pages for the buddy
        # allocator's sake.
        data_bytes -= data_bytes % geometry.page_size
        if allocation == "chunks":
            self.allocator = ChunkAllocator(data_bytes, chunk_size)
        elif allocation == "variable":
            self.allocator = VariableAllocator(
                data_bytes, chunk_size, geometry.page_size
            )
        else:
            raise ValueError(f"unknown allocation scheme {allocation!r}")
        self.allocation = allocation
        self.chunk_size = chunk_size

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_chunks * self.chunk_size

    def metadata_address(self, ospa_page: int) -> int:
        """MPA address of a page's metadata entry — a shift and add (§III).

        The metadata region sits above the data region in MPA space.
        """
        if ospa_page < 0 or ospa_page >= self.geometry.ospa_pages:
            raise ValueError(f"OSPA page {ospa_page} out of range")
        base = self.allocator.total_chunks * self.chunk_size
        return base + ospa_page * self.geometry.metadata_entry_bytes


__all__ = [
    "MemoryGeometry",
    "OutOfMemoryError",
    "PhysicalMemory",
]
