"""Main-memory substrate: DDR4 timing, capacity accounting (DESIGN.md)."""

from .allocator import ChunkAllocator, VariableAllocator
from .dram import DDR4Channel, DRAMStats, DRAMSystem, DRAMTimings
from .physical import MemoryGeometry, OutOfMemoryError, PhysicalMemory
from .request import AccessCategory, AccessKind, AccessResult, MemAccess

__all__ = [
    "AccessCategory",
    "ChunkAllocator",
    "VariableAllocator",
    "AccessKind",
    "AccessResult",
    "DDR4Channel",
    "DRAMStats",
    "DRAMSystem",
    "DRAMTimings",
    "MemAccess",
    "MemoryGeometry",
    "OutOfMemoryError",
    "PhysicalMemory",
]
