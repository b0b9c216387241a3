"""Machine-physical memory geometry (paper §III).

The controller models *where* data lives (chunk ids, offsets) rather
than serializing compressed bit streams into a byte array — offsets and
split behaviour depend only on the size bins, exactly as in the real
hardware.  ``MemoryGeometry`` lays out installed memory: the data
region the controller's allocator manages, and the metadata region
carved out above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..machine import METADATA_ENTRY_BYTES, PAGE_BYTES


@dataclass(frozen=True)
class MemoryGeometry:
    """Installed memory and the advertised (OSPA) capacity above it."""

    installed_bytes: int
    advertised_ratio: float = 2.0     # OS is promised ratio x installed

    @property
    def advertised_bytes(self) -> int:
        return int(self.installed_bytes * self.advertised_ratio)

    @property
    def ospa_pages(self) -> int:
        return self.advertised_bytes // PAGE_BYTES

    @property
    def metadata_region_bytes(self) -> int:
        """Dedicated MPA space for one 64 B entry per OSPA page (§III)."""
        return self.ospa_pages * METADATA_ENTRY_BYTES

    @property
    def data_region_bytes(self) -> int:
        """Installed bytes left for compressed data."""
        return self.installed_bytes - self.metadata_region_bytes

    @property
    def metadata_overhead(self) -> float:
        return self.metadata_region_bytes / self.installed_bytes

    @cached_property
    def data_bytes(self) -> int:
        """The data region rounded down to whole pages (for the buddy
        allocator's sake): what the controller's allocator manages."""
        data_bytes = self.data_region_bytes
        if data_bytes <= 0:
            raise ValueError("metadata region exceeds installed memory")
        return data_bytes - data_bytes % PAGE_BYTES

    def metadata_address(self, ospa_page: int) -> int:
        """MPA address of a page's metadata entry — a shift and add (§III).

        The metadata region sits above the data region in MPA space.
        """
        if ospa_page < 0 or ospa_page >= self.ospa_pages:
            raise ValueError(f"OSPA page {ospa_page} out of range")
        return self.data_bytes + ospa_page * METADATA_ENTRY_BYTES
