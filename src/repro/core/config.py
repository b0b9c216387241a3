"""Configuration for compressed-memory systems (paper §II/§IV).

Every design choice the paper compares is a field here, so the
experiment harness can express the whole design space: packing scheme,
allocation scheme (which fixes the legal page sizes), line-size bins,
and each data-movement optimization independently (they are
orthogonal, §IV-B).  The fixed machine of Tab. III (sizes, clock,
latencies) is :mod:`repro.machine`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

from ..machine import LINE_BYTES

#: Alignment-friendly line bins Compresso uses (§IV-B1).
ALIGNMENT_FRIENDLY_LINE_BINS: Tuple[int, ...] = (0, 8, 32, 64)
#: Compression-optimal but split-prone bins used by prior work (LCP, RMC).
PRIOR_WORK_LINE_BINS: Tuple[int, ...] = (0, 22, 44, 64)
#: Eight-bin variant evaluated in the §IV-A1 trade-off discussion.
EIGHT_LINE_BINS: Tuple[int, ...] = (0, 8, 16, 24, 32, 40, 52, 64)


@dataclass(frozen=True)
class CompressoConfig:
    """Full parameterization of one compressed-memory design point."""

    # -- packing / allocation choices (§II-C, §II-D) ----------------------
    packing: str = "linepack"            # "linepack" | "lcp"
    allocation: str = "chunks"           # "chunks" | "variable"
    line_bins: Tuple[int, ...] = ALIGNMENT_FRIENDLY_LINE_BINS

    # -- metadata (§III) --------------------------------------------------
    metadata_cache_bytes: int = 96 * 1024

    # -- data-movement optimizations (§IV-B), individually switchable -----
    enable_overflow_prediction: bool = True
    enable_ir_expansion: bool = True
    enable_repacking: bool = True
    enable_metadata_half_entries: bool = True

    # -- OS model (§V) ----------------------------------------------------
    os_transparent: bool = True          # False models the OS-aware LCP system
    speculative_access: bool = False     # LCP's parallel speculative DRAM read

    def __post_init__(self) -> None:
        if self.packing not in ("linepack", "lcp"):
            raise ValueError(f"unknown packing {self.packing!r}")
        if self.allocation not in ("chunks", "variable"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        bins = self.line_bins
        if bins[0] != 0 or bins[-1] != LINE_BYTES or list(bins) != sorted(bins):
            raise ValueError(
                f"line_bins must be sorted, start at 0 and end at "
                f"{LINE_BYTES}: {bins}"
            )

    def replace(self, **overrides) -> "CompressoConfig":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)


def compresso_config(**overrides) -> CompressoConfig:
    """The paper's Compresso design point (Tab. III)."""
    return CompressoConfig(**overrides)


def lcp_config(**overrides) -> CompressoConfig:
    """The competitive baseline: an enhanced OS-aware LCP system (§VI-F).

    Optimized BPC, inflation (exception) room, same-size metadata cache,
    4 compressed page sizes (variable allocation), LCP packing with prior-work line bins, and
    LCP's speculative parallel memory access.  None of Compresso's
    data-movement optimizations.
    """
    defaults = dict(
        packing="lcp",
        allocation="variable",
        line_bins=PRIOR_WORK_LINE_BINS,
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
