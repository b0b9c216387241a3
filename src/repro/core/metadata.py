"""Per-OSPA-page translation metadata (paper §III, Fig. 3).

Compresso keeps one 64-byte metadata entry per OSPA page in a dedicated
MPA region (1.6% storage overhead).  An entry holds:

* a control section — valid / zero / compressed flags, the page size,
  and the tracked free space that drives repacking decisions;
* up to 8 machine page-frame numbers (MPFNs) pointing at the 512-byte
  chunks that make up the compressed page;
* 64 x 2-bit encoded line sizes (16 bytes);
* 17 six-bit inflation pointers plus a six-bit count of inflated lines.

``PageMetadata`` is the working (object) form used by the controller;
``encode``/``decode`` prove the layout actually fits the 64-byte budget
bit-for-bit, which the test suite checks for every reachable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..compression.bitstream import BitReader, BitWriter, Bits
from ..machine import (
    CHUNKS_PER_PAGE,
    INFLATION_POINTERS,
    LINES_PER_PAGE,
    METADATA_ENTRY_BYTES,
)

#: Field widths (bits).  8 MPFNs of 28 bits address 2^28 chunks of 512 B
#: = 128 TB of machine memory, comfortably above any DDR4 system.
_FLAG_BITS = 3          # valid, zero, compressed
_SIZE_BITS = 4          # page size index (0..8 chunks)
_FREE_BITS = 7          # tracked free space in 64 B units (0..64)
_MPFN_BITS = 28
_INFLATION_PTR_BITS = 6
_INFLATION_COUNT_BITS = 6
_LINE_BIN_BITS = 2

#: Total must fit in a 64-byte entry.
TOTAL_BITS = (
    _FLAG_BITS
    + _SIZE_BITS
    + _FREE_BITS
    + CHUNKS_PER_PAGE * _MPFN_BITS
    + INFLATION_POINTERS * _INFLATION_PTR_BITS
    + _INFLATION_COUNT_BITS
    + LINES_PER_PAGE * _LINE_BIN_BITS
)
assert TOTAL_BITS <= METADATA_ENTRY_BYTES * 8, \
    f"metadata entry overflows 64 B: {TOTAL_BITS} bits"

#: The half-entry optimization (§IV-B5) caches only the first 32 bytes
#: for uncompressed pages: flags, size, free space and the MPFNs fit in
#: the first half; line sizes are implicitly 64 B and there are no
#: inflated lines.
HALF_ENTRY_BITS = _FLAG_BITS + _SIZE_BITS + _FREE_BITS + CHUNKS_PER_PAGE * _MPFN_BITS
assert HALF_ENTRY_BITS <= 32 * 8, f"half entry overflows 32 B: {HALF_ENTRY_BITS} bits"


@dataclass
class PageMetadata:
    """Decoded metadata for one OSPA page."""

    valid: bool = False
    zero: bool = True                 # an untouched OSPA page reads as zeros
    compressed: bool = True
    size_chunks: int = 0              # allocated 512 B chunks (0..8)
    free_space: int = 0               # reclaimable space, 64 B units
    mpfns: List[int] = field(default_factory=list)
    line_bins: List[int] = field(default_factory=lambda: [0] * LINES_PER_PAGE)
    inflated_lines: List[int] = field(default_factory=list)

    def copy(self) -> "PageMetadata":
        return PageMetadata(
            valid=self.valid,
            zero=self.zero,
            compressed=self.compressed,
            size_chunks=self.size_chunks,
            free_space=self.free_space,
            mpfns=list(self.mpfns),
            line_bins=list(self.line_bins),
            inflated_lines=list(self.inflated_lines),
        )

    @property
    def is_uncompressed(self) -> bool:
        return self.valid and not self.compressed

    # -- bit-exact 64-byte encoding ---------------------------------------

    def encode(self) -> Bits:
        """Pack into the 64-byte on-DRAM layout."""
        writer = BitWriter()
        writer.write(int(self.valid), 1)
        writer.write(int(self.zero), 1)
        writer.write(int(self.compressed), 1)
        writer.write(self.size_chunks, _SIZE_BITS)
        writer.write(self.free_space, _FREE_BITS)
        for i in range(CHUNKS_PER_PAGE):
            writer.write(self.mpfns[i] if i < len(self.mpfns) else 0, _MPFN_BITS)
        writer.write(len(self.inflated_lines), _INFLATION_COUNT_BITS)
        for i in range(INFLATION_POINTERS):
            line = self.inflated_lines[i] if i < len(self.inflated_lines) else 0
            writer.write(line, _INFLATION_PTR_BITS)
        for bin_index in self.line_bins:
            writer.write(bin_index, _LINE_BIN_BITS)
        return writer.to_bits()

    @classmethod
    def decode(cls, bits: Bits) -> "PageMetadata":
        """Inverse of :meth:`encode`."""
        reader = BitReader(bits)
        valid = bool(reader.read(1))
        zero = bool(reader.read(1))
        compressed = bool(reader.read(1))
        size_chunks = reader.read(_SIZE_BITS)
        free_space = reader.read(_FREE_BITS)
        mpfns = [reader.read(_MPFN_BITS) for _ in range(CHUNKS_PER_PAGE)][:size_chunks]
        n_inflated = reader.read(_INFLATION_COUNT_BITS)
        pointers = [reader.read(_INFLATION_PTR_BITS) for _ in range(INFLATION_POINTERS)]
        line_bins = [reader.read(_LINE_BIN_BITS) for _ in range(LINES_PER_PAGE)]
        return cls(
            valid=valid,
            zero=zero,
            compressed=compressed,
            size_chunks=size_chunks,
            free_space=free_space,
            mpfns=mpfns,
            line_bins=line_bins,
            inflated_lines=pointers[:n_inflated],
        )

