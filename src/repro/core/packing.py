"""Shared cache-line packing machinery (paper §II-C).

A *packing scheme* decides where each variable-sized compressed line
lives inside its page allocation, which determines three costs the
paper trades off: compression ratio, offset-calculation complexity, and
split accesses (compressed lines straddling 64-byte DRAM boundaries).
Concrete schemes are :mod:`.linepack` and :mod:`.lcp`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..machine import LINE_BYTES


def choose_bin(size_bytes: int, bins: Sequence[int]) -> int:
    """Index of the smallest bin that holds ``size_bytes`` (bins sorted).

    Sizes beyond the largest bin clamp to it — the line is then stored
    uncompressed (the largest bin is always the raw line size).
    """
    for index, capacity in enumerate(bins):
        if size_bytes <= capacity:
            return index
    return len(bins) - 1


def blocks_spanned(offset: int, size: int) -> int:
    """Number of 64 B DRAM blocks a [offset, offset+size) access touches."""
    if size <= 0:
        return 0
    return (offset + size - 1) // LINE_BYTES - offset // LINE_BYTES + 1


@dataclass(frozen=True)
class LineLocation:
    """Where one line's data lives inside the page allocation."""

    offset: int          # byte offset from the start of the page allocation
    size: int            # allocated slot size in bytes
    inflated: bool       # stored raw in the inflation/exception room?

    def accesses(self) -> int:
        """DRAM accesses needed to fetch this line (2 if split, §IV-A2)."""
        return blocks_spanned(self.offset, self.size)


@dataclass(frozen=True)
class PageLayout:
    """Full layout of a compressed page."""

    slot_offsets: Tuple[int, ...]   # per line, offset of its regular slot
    slot_sizes: Tuple[int, ...]     # per line, size of its regular slot
    data_bytes: int                 # bytes used by the regular slots
    inflated_lines: Tuple[int, ...] # lines living in the inflation room

    @property
    def inflation_bytes(self) -> int:
        return LINE_BYTES * len(self.inflated_lines)

    @property
    def inflation_base(self) -> int:
        """Start of the inflation room: just above the compressed slots,
        aligned to 64 B so inflated lines never split (§III, Fig. 5a).

        Anchoring the room to the *bottom* of the free space (rather
        than the end of the allocation) keeps existing inflated slots
        stable when Dynamic IR Expansion grows the allocation by a
        chunk (§IV-B3) — the expansion costs one cache-line write, not
        a shuffle of the room.
        """
        return (self.data_bytes + LINE_BYTES - 1) // LINE_BYTES * LINE_BYTES

    @property
    def total_bytes(self) -> int:
        """Minimum allocation that holds slots + inflation room."""
        if not self.inflated_lines:
            return self.data_bytes
        return self.inflation_base + self.inflation_bytes

    def locate(self, line: int) -> LineLocation:
        """Physical location of ``line`` within the page allocation."""
        if line in self.inflated_lines:
            slot = self.inflated_lines.index(line)
            offset = self.inflation_base + LINE_BYTES * slot
            return LineLocation(offset=offset, size=LINE_BYTES, inflated=True)
        return LineLocation(
            offset=self.slot_offsets[line],
            size=self.slot_sizes[line],
            inflated=False,
        )


class PackingScheme(abc.ABC):
    """Strategy object: LinePack or LCP."""

    name: str = "abstract"

    def __init__(self, line_bins: Sequence[int]) -> None:
        if line_bins[-1] != LINE_BYTES:
            raise ValueError("largest bin must equal the raw line size")
        self.line_bins = tuple(line_bins)

    def bin_index(self, size_bytes: int) -> int:
        return choose_bin(size_bytes, self.line_bins)

    def bin_bytes(self, bin_index: int) -> int:
        return self.line_bins[bin_index]

    @abc.abstractmethod
    def pack(self, line_sizes: Sequence[int]) -> PageLayout:
        """Lay out a page from fresh per-line compressed sizes (bytes).

        Used on initial allocation and on every repack.
        """

    def pack_candidates(self, line_sizes: Sequence[int]) -> List["PageLayout"]:
        """All reasonable layouts for fresh sizes.

        LinePack has exactly one; LCP has one per feasible target size,
        and the *allocation-aware* caller picks the one that minimizes
        the allocated size class (leaving exception headroom within the
        class rather than sitting exactly on its boundary).
        """
        return [self.pack(line_sizes)]

    @abc.abstractmethod
    def layout_from_bins(self, slot_bins: Sequence[int],
                         inflated_lines: Sequence[int]) -> PageLayout:
        """Reconstruct the layout from metadata (slot bins + inflation list)."""

    @property
    @abc.abstractmethod
    def offset_calc_cycles(self) -> int:
        """Extra cycles to compute a line offset (LinePack's adder, §VII-E)."""
