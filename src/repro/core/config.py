"""Configuration for compressed-memory systems (paper Tab. III + §II/§IV).

Every design choice the paper discusses is a field here, so the
experiment harness can express the whole design space: packing scheme,
allocation scheme, line-size bins, page-size bins, and each
data-movement optimization independently (they are orthogonal, §IV-B).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Tuple

#: Alignment-friendly line bins Compresso uses (§IV-B1).
ALIGNMENT_FRIENDLY_LINE_BINS: Tuple[int, ...] = (0, 8, 32, 64)
#: Compression-optimal but split-prone bins used by prior work (LCP, RMC).
PRIOR_WORK_LINE_BINS: Tuple[int, ...] = (0, 22, 44, 64)
#: Eight-bin variant evaluated in the §IV-A1 trade-off discussion.
EIGHT_LINE_BINS: Tuple[int, ...] = (0, 8, 16, 24, 32, 40, 52, 64)

#: Compresso page sizes: incremental 512 B chunks, 0..8 chunks (§II-D).
CHUNK_PAGE_SIZES: Tuple[int, ...] = tuple(512 * i for i in range(9))
#: Variable-sized chunk alternative with 4 sizes (plus the zero page).
VARIABLE_PAGE_SIZES: Tuple[int, ...] = (0, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class CompressoConfig:
    """Full parameterization of one compressed-memory design point."""

    # -- geometry ---------------------------------------------------------
    line_size: int = 64
    page_size: int = 4096
    chunk_size: int = 512

    # -- packing / allocation choices (§II-C, §II-D) ----------------------
    packing: str = "linepack"            # "linepack" | "lcp"
    allocation: str = "chunks"           # "chunks" | "variable"
    line_bins: Tuple[int, ...] = ALIGNMENT_FRIENDLY_LINE_BINS
    page_sizes: Tuple[int, ...] = CHUNK_PAGE_SIZES

    # -- metadata (§III) --------------------------------------------------
    metadata_entry_bytes: int = 64
    metadata_cache_bytes: int = 96 * 1024
    metadata_cache_assoc: int = 8
    max_inflation_pointers: int = 17

    # -- data-movement optimizations (§IV-B), individually switchable -----
    enable_overflow_prediction: bool = True
    enable_ir_expansion: bool = True
    enable_repacking: bool = True
    enable_metadata_half_entries: bool = True

    # -- OS model (§V) ----------------------------------------------------
    os_transparent: bool = True          # False models the OS-aware LCP system
    speculative_access: bool = False     # LCP's parallel speculative DRAM read

    # -- latencies in CPU cycles (Tab. III) -------------------------------
    compression_latency: int = 12
    decompression_latency: int = 12
    metadata_cache_hit_latency: int = 2
    offset_calc_latency: int = 1         # LinePack adder, §VII-E

    def __post_init__(self) -> None:
        if self.page_size % self.line_size:
            raise ValueError("page_size must be a multiple of line_size")
        if self.page_size % self.chunk_size:
            raise ValueError("page_size must be a multiple of chunk_size")
        if self.packing not in ("linepack", "lcp"):
            raise ValueError(f"unknown packing {self.packing!r}")
        if self.allocation not in ("chunks", "variable"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        bins = self.line_bins
        if bins[0] != 0 or bins[-1] != self.line_size or list(bins) != sorted(bins):
            raise ValueError(
                f"line_bins must be sorted, start at 0 and end at line_size: {bins}"
            )
        sizes = self.page_sizes
        if sizes[0] != 0 or sizes[-1] != self.page_size or list(sizes) != sorted(sizes):
            raise ValueError(
                f"page_sizes must be sorted, start at 0 and end at page_size: {sizes}"
            )
        if self.allocation == "chunks":
            if any(s % self.chunk_size for s in sizes):
                raise ValueError("chunk allocation requires chunk-multiple page sizes")

    # -- derived ----------------------------------------------------------

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.line_size

    @property
    def max_chunks_per_page(self) -> int:
        return self.page_size // self.chunk_size

    @property
    def line_bin_bits(self) -> int:
        """Bits of metadata per line to encode its size bin (2 for 4 bins)."""
        return max(1, (len(self.line_bins) - 1).bit_length())

    def replace(self, **overrides) -> "CompressoConfig":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)


def compresso_config(**overrides) -> CompressoConfig:
    """The paper's Compresso design point (Tab. III)."""
    return CompressoConfig(**overrides)


def lcp_config(**overrides) -> CompressoConfig:
    """The competitive baseline: an enhanced OS-aware LCP system (§VI-F).

    Optimized BPC, inflation (exception) room, same-size metadata cache,
    4 compressed page sizes, LCP packing with prior-work line bins, and
    LCP's speculative parallel memory access.  None of Compresso's
    data-movement optimizations.
    """
    defaults = dict(
        packing="lcp",
        allocation="variable",
        line_bins=PRIOR_WORK_LINE_BINS,
        page_sizes=VARIABLE_PAGE_SIZES,
        os_transparent=False,
        speculative_access=True,
        enable_overflow_prediction=False,
        enable_ir_expansion=False,
        enable_repacking=False,
        enable_metadata_half_entries=False,
    )
    defaults.update(overrides)
    return CompressoConfig(**defaults)


def lcp_align_config(**overrides) -> CompressoConfig:
    """LCP+Align: the baseline with alignment-friendly line bins (§VI-F)."""
    defaults = dict(line_bins=ALIGNMENT_FRIENDLY_LINE_BINS)
    defaults.update(overrides)
    return lcp_config(**defaults)
