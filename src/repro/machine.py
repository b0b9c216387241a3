"""The one simulated machine (paper Tab. III, §II-§III).

The paper evaluates a single machine, so its fixed sizes, clock and
latencies are constants, each defined once here and read everywhere
else.  What the paper *compares* (packing, allocation scheme, line
bins, the data-movement optimizations, the metadata-cache capacity)
stays a field of :class:`repro.core.config.CompressoConfig`.

This module is a leaf: it imports nothing from ``repro``.
"""

from __future__ import annotations

#: Cache-line size: the compression granularity (§II-A) and the DRAM
#: access block.
LINE_BYTES = 64
#: OS page size (Tab. III).
PAGE_BYTES = 4096
#: Machine-memory allocation chunk (§II-D).  LCP's 512 B-4 KB size
#: classes are 1, 2, 4 and 8 of these.
CHUNK_BYTES = 512
#: One metadata entry per OSPA page in the dedicated region (§III).
METADATA_ENTRY_BYTES = 64

LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES
CHUNKS_PER_PAGE = PAGE_BYTES // CHUNK_BYTES

#: Inflation-room (LCP: exception) pointers per metadata entry (§III).
INFLATION_POINTERS = 17

#: Core clock and issue width (Tab. III: 3 GHz, 4-wide OOO).
CPU_FREQ_GHZ = 3.0
ISSUE_WIDTH = 4

#: BPC compression and decompression latency, CPU cycles (Tab. III).
COMPRESSION_CYCLES = 12
DECOMPRESSION_CYCLES = 12
#: Metadata-cache hit latency, CPU cycles (a model choice; Tab. III
#: gives only the cache's size and ways).
METADATA_HIT_CYCLES = 2
#: Metadata-cache associativity (Tab. III: 96 KB, 8-way).
METADATA_CACHE_ASSOC = 8

#: Core stall for the page fault an OS-aware system takes on a page
#: overflow (§VII-A), CPU cycles.
OS_PAGE_FAULT_CYCLES = 3000


def chunks_for(nbytes: int) -> int:
    """Chunks that hold ``nbytes`` of page data: never fewer than one,
    because an allocated compressed page occupies at least a chunk."""
    return max(1, (nbytes + CHUNK_BYTES - 1) // CHUNK_BYTES)
