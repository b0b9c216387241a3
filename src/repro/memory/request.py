"""Memory request types exchanged between controllers and the DRAM model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AccessKind(enum.Enum):
    """Direction of a DRAM access."""

    READ = "read"
    WRITE = "write"


class AccessCategory(enum.Enum):
    """Why the access happened — mirrors the paper's Fig. 4 taxonomy."""

    DEMAND = "demand"            # an uncompressed system would do this too
    SPLIT = "split"              # second half of a split-access line (§IV i)
    OVERFLOW = "overflow"        # line/page overflow handling (§IV ii)
    REPACK = "repack"            # dynamic repacking traffic (§IV-B4)
    METADATA = "metadata"        # metadata fill/writeback (§IV iii)
    SPECULATIVE = "speculative"  # LCP's parallel speculative read


@dataclass
class MemAccess:
    """One 64-byte DRAM access."""

    kind: AccessKind
    category: AccessCategory
    address: int                      # MPA byte address (banks/rows derive from it)
    critical: bool = True             # on the load-use critical path?

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("negative MPA address")


@dataclass
class AccessResult:
    """Outcome of one controller read/write operation.

    ``controller_cycles`` is latency added by the controller itself
    (metadata cache hit, offset calculation, decompression); DRAM
    latency is determined later by the timing model from ``accesses``.
    ``data`` is the line content for reads.
    """

    accesses: list = field(default_factory=list)
    controller_cycles: int = 0
    data: bytes = b""
    served_by_metadata: bool = False  # zero line: no DRAM access at all
    prefetch_hit: bool = False
