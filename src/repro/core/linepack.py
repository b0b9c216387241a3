"""LinePack: per-line size bins packed back to back (paper §II-C).

Each line compresses to one of (typically four) allowed sizes and is
stored immediately after its predecessor.  The offset of line *i* is
the sum of the encoded sizes of lines 0..i-1 — computed by a 63-input
4-bit adder in one extra cycle (§VII-E).  LinePack keeps the highest
compression ratio (Fig. 2) at the cost of that adder and of split
accesses when bins are not alignment friendly (§IV-B1).
"""

from __future__ import annotations

from typing import Sequence

from ..machine import LINES_PER_PAGE
from .packing import PackingScheme, PageLayout


class LinePack(PackingScheme):
    """Compresso's packing scheme."""

    name = "linepack"

    def pack(self, line_sizes: Sequence[int]) -> PageLayout:
        """Pack fresh sizes: every line gets its own best-fit bin."""
        slot_bins = [self.bin_index(size) for size in line_sizes]
        return self.layout_from_bins(slot_bins, inflated_lines=())

    def layout_from_bins(self, slot_bins: Sequence[int],
                         inflated_lines: Sequence[int]) -> PageLayout:
        offsets = []
        cursor = 0
        sizes = []
        for bin_index in slot_bins:
            size = self.bin_bytes(bin_index)
            offsets.append(cursor)
            sizes.append(size)
            cursor += size
        return PageLayout(
            slot_offsets=tuple(offsets),
            slot_sizes=tuple(sizes),
            data_bytes=cursor,
            inflated_lines=tuple(inflated_lines),
        )

    @property
    def offset_calc_cycles(self) -> int:
        # The 63-input adder partially overlaps the metadata cache
        # lookup, leaving one visible cycle (§VII-E).
        return 1


def split_access_fraction(line_sizes: Sequence[int],
                          bins: Sequence[int]) -> float:
    """Fraction of lines whose LinePack slot straddles a 64 B boundary.

    ``line_sizes`` is consumed in consecutive page-sized groups,
    each packed as its own page (offsets restart at every page).  This
    is the metric behind the §IV-B1 numbers (30.9% with 0/22/44/64 bins
    vs. 3.2% with 0/8/32/64).
    """
    pack = LinePack(bins)
    stored = split = 0
    for start in range(0, len(line_sizes), LINES_PER_PAGE):
        page = list(line_sizes[start : start + LINES_PER_PAGE])
        layout = pack.pack(page)
        for line, size in enumerate(layout.slot_sizes):
            if size == 0:
                continue
            stored += 1
            if layout.locate(line).accesses() > 1:
                split += 1
    return split / stored if stored else 0.0
