"""Cache-line compression algorithms (all implemented from scratch).

The Compresso paper's compressor is a modified Bit-Plane Compression
(:class:`BPCCompressor`); BDI, FPC, C-Pack and LZ are implemented for
the algorithm comparisons in its §II-A and Fig. 2 (DESIGN.md §1.2).
"""

from .base import LINE_SIZE, CompressedLine, Compressor
from .bdi import BDICompressor
from .bitstream import BitReader, Bits, BitWriter
from .bpc import BPCCompressor, compression_ratio
from .cpack import CPackCompressor
from .fpc import FPCCompressor
from .lz import LZCompressor
from .selector import BestOfCompressor, available_algorithms, make_compressor
from .zero import ZeroCompressor, is_zero_line

__all__ = [
    "LINE_SIZE",
    "CompressedLine",
    "Compressor",
    "BDICompressor",
    "BPCCompressor",
    "BestOfCompressor",
    "BitReader",
    "BitWriter",
    "Bits",
    "CPackCompressor",
    "FPCCompressor",
    "LZCompressor",
    "ZeroCompressor",
    "available_algorithms",
    "compression_ratio",
    "is_zero_line",
    "make_compressor",
]
