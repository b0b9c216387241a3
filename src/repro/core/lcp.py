"""Linearly Compressed Pages (LCP) packing [Pekhimenko et al., MICRO 2013].

LCP compresses every line in a page to the *same* target size, so the
offset of line *i* is simply ``i * target`` — no adder needed, and a
speculative DRAM access can launch in parallel with the metadata fetch.
Lines that do not fit the target are *exceptions*, stored raw in an
exception region and found through explicit pointers in metadata.

Crucially, LCP sizes pages by *physical size class*: a compressed page
occupies one of 512 B / 1 KB / 2 KB / 4 KB, and the target is derived
from the class **after reserving exception room inside it** (the
original design carves the exception storage out of the physical
page).  Deriving targets this way is what keeps a fresh LCP page from
sitting exactly on its class boundary, where the first exception would
force a whole-page relocation.

The allowed targets are the configured line bins, which model the
paper's two baselines (§VI-F):

* plain LCP (``lcp_config``) uses the prior work's 0/22/44/64 bins —
  maximum compression, but 22/44 B slots straddle 64-byte DRAM
  boundaries (the §IV-A2 split-access problem);
* LCP+Align (``lcp_align_config``) uses Compresso's 0/8/32/64 bins —
  slot offsets never cross a 64-byte boundary, at some compression
  cost.

The cost against LinePack is packing flexibility: one target must suit
all 64 lines, so LCP trails LinePack by ~13% compression with the
aggressive BPC compressor while staying close for BDI (Fig. 2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..machine import CHUNK_BYTES, INFLATION_POINTERS, LINE_BYTES, PAGE_BYTES
from .packing import PackingScheme, PageLayout

#: Physical size classes of compressed LCP pages (§II-D variable chunks).
SIZE_CLASSES: Tuple[int, ...] = (CHUNK_BYTES, 2 * CHUNK_BYTES,
                                 4 * CHUNK_BYTES, PAGE_BYTES)

#: Exception slots reserved inside each class at pack time.
RESERVED_EXCEPTION_SLOTS = 2


class LCPPack(PackingScheme):
    """LCP packing with class-derived targets and an exception region.

    The line bins are the allowed targets; packing still reserves
    exception headroom inside each size class.
    """

    name = "lcp"

    def pack_candidates(self, line_sizes: Sequence[int]) -> List[PageLayout]:
        """One layout per feasible (class, target) pair.

        A candidate is feasible when its slots, current exceptions and
        the reserved exception headroom all fit the class.
        """
        lines = len(line_sizes)
        raw_bin = len(self.line_bins) - 1
        candidates = [self.layout_from_bins([raw_bin] * lines, ())]
        seen = set()
        for size_class in SIZE_CLASSES:
            target_bin = self._target_bin_for_class(size_class, lines)
            if target_bin is None or target_bin in seen:
                continue
            target = self.bin_bytes(target_bin)
            exceptions = tuple(
                line for line, size in enumerate(line_sizes) if size > target
            )
            if len(exceptions) > INFLATION_POINTERS:
                continue
            # The reserved slots exist *for* exceptions: headroom must
            # cover the larger of (current exceptions, the reserve).
            headroom = max(len(exceptions), RESERVED_EXCEPTION_SLOTS)
            if lines * target + headroom * LINE_BYTES > size_class:
                continue
            seen.add(target_bin)
            candidates.append(
                self.layout_from_bins([target_bin] * lines, exceptions)
            )
        return candidates

    def _target_bin_for_class(self, size_class: int, lines: int):
        """Largest compressed target bin whose slots + reserve fit the class."""
        budget = size_class - RESERVED_EXCEPTION_SLOTS * LINE_BYTES
        best = None
        for index, target in enumerate(self.line_bins[:-1]):
            if target * lines <= budget:
                best = index
        return best

    def pack(self, line_sizes: Sequence[int]) -> PageLayout:
        """Choose the candidate minimizing total storage."""
        return min(self.pack_candidates(line_sizes),
                   key=lambda layout: layout.total_bytes)

    def layout_from_bins(self, slot_bins: Sequence[int],
                         inflated_lines: Sequence[int]) -> PageLayout:
        if len(set(slot_bins)) > 1:
            raise ValueError("LCP requires a single target bin for all lines")
        target = self.bin_bytes(slot_bins[0]) if slot_bins else 0
        offsets = tuple(i * target for i in range(len(slot_bins)))
        sizes = tuple(target for _ in slot_bins)
        return PageLayout(
            slot_offsets=offsets,
            slot_sizes=sizes,
            data_bytes=target * len(slot_bins),
            inflated_lines=tuple(inflated_lines),
        )

    @property
    def offset_calc_cycles(self) -> int:
        return 0  # offset is a multiply by the target
