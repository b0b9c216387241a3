"""Main-memory substrate: the one DDR4 channel, the MPA allocators and
the geometry that places the metadata region above the data (DESIGN.md)."""

from .allocator import (
    ChunkAllocator,
    OutOfMemoryError,
    VariableAllocator,
    allocator_for,
)
from .dram import DRAMStats, DRAMSystem, DRAMTimings
from .physical import MemoryGeometry
from .request import AccessCategory, AccessKind, AccessResult, MemAccess

__all__ = [
    "AccessCategory",
    "ChunkAllocator",
    "VariableAllocator",
    "AccessKind",
    "AccessResult",
    "DRAMStats",
    "DRAMSystem",
    "DRAMTimings",
    "MemAccess",
    "MemoryGeometry",
    "OutOfMemoryError",
    "allocator_for",
]
