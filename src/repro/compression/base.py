"""Compressor interface shared by every algorithm in this package.

A compressor maps a fixed-size cache line (``bytes``) to a
:class:`CompressedLine` carrying the exact encoded bit stream, and back.
The memory-system models only consume ``size_bits``/``size_bytes``, but
every algorithm implements true decode so the test suite can verify
round trips.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass

from ..machine import LINE_BYTES
from .bitstream import Bits


@dataclass(frozen=True)
class CompressedLine:
    """Result of compressing one cache line.

    Attributes:
        algorithm: name of the producing algorithm.
        size_bits: exact encoded size in bits (0 for an all-zero line
            under algorithms with a zero special case).
        payload: the encoded bit stream, sufficient to decompress.
    """

    algorithm: str
    size_bits: int
    payload: Bits

    @property
    def size_bytes(self) -> int:
        """Encoded size rounded up to whole bytes (what packing uses)."""
        return (self.size_bits + 7) // 8


class Compressor(abc.ABC):
    """Abstract cache-line compressor."""

    #: Short algorithm name, e.g. ``"bpc"``.
    name: str = "abstract"

    @abc.abstractmethod
    def compress(self, data: bytes) -> CompressedLine:
        """Compress one cache line; never returns more than raw size + header."""

    @abc.abstractmethod
    def decompress(self, line: CompressedLine) -> bytes:
        """Invert :meth:`compress` exactly."""

    def compressed_size_bytes(self, data: bytes) -> int:
        return self.compress(data).size_bytes

    def _check_input(self, data: bytes) -> None:
        if len(data) != LINE_BYTES:
            raise ValueError(
                f"{self.name}: expected a {LINE_BYTES}-byte line, got {len(data)} bytes"
            )

    def _check_line(self, line: CompressedLine) -> None:
        if line.algorithm != self.name:
            raise ValueError(
                f"cannot decompress {line.algorithm!r} payload with {self.name!r}"
            )


class SizeCache:
    """Memoized compressed sizes; synthetic traces repeat line contents.

    The cache is shared process-wide (keyed by algorithm and content)
    because experiment sweeps run the same workload through several
    system configurations using the same compressor.  Sizes are capped
    at the raw line size: packing stores a line raw when compression
    does not help.
    """

    _shared: OrderedDict = OrderedDict()
    _MAX = 1 << 18

    def __init__(self, compressor: Compressor) -> None:
        self._compressor = compressor
        self._key = (compressor.name,
                     getattr(compressor, "transform_only", False))

    def size_bytes(self, data: bytes) -> int:
        cache = SizeCache._shared
        key = (self._key, data)
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        size = min(self._compressor.compressed_size_bytes(data), len(data))
        cache[key] = size
        if len(cache) > SizeCache._MAX:
            cache.popitem(last=False)
        return size


def words_of(data: bytes, word_bytes: int = 4) -> list:
    """Split a line into little-endian unsigned words."""
    return [
        int.from_bytes(data[i : i + word_bytes], "little")
        for i in range(0, len(data), word_bytes)
    ]


def bytes_of(words, word_bytes: int = 4) -> bytes:
    """Inverse of :func:`words_of`."""
    return b"".join(int(w).to_bytes(word_bytes, "little") for w in words)
