"""Cache-line compression algorithms (all implemented from scratch).

The Compresso paper's compressor is a modified Bit-Plane Compression
(:class:`BPCCompressor`, which keeps the smaller of its with- and
without-transform encodings); BDI is the second algorithm of the
Fig. 2 comparison (DESIGN.md §1.2).  :class:`SizeCache` memoizes
compressed line sizes for every caller that only needs sizes.
"""

from .base import CompressedLine, Compressor, SizeCache
from .bdi import BDICompressor
from .bitstream import BitReader, Bits, BitWriter
from .bpc import BPCCompressor
from .zero import is_zero_line

__all__ = [
    "CompressedLine",
    "Compressor",
    "BDICompressor",
    "BPCCompressor",
    "BitReader",
    "BitWriter",
    "Bits",
    "SizeCache",
    "is_zero_line",
]
