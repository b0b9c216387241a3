"""Base-Delta-Immediate (BDI) compression [Pekhimenko et al., PACT 2012].

BDI exploits low dynamic range: a line is stored as one base value plus
narrow per-word deltas, with an immediate (zero) base for small values.
We implement the standard eight encodings for a 64-byte line, choosing
the smallest applicable one, exactly as used for the Fig. 2 comparison
in the Compresso paper.

Encoded sizes (bytes) follow the original paper: zeros=1, rep=8,
base8-delta1=16, base8-delta2=24, base8-delta4=40, base4-delta1=20,
base4-delta2=36, base2-delta1=34.  A 4-bit encoding tag is prepended so
payloads are self-describing; the tag is *not* counted in ``size_bits``
(the original work keeps the encoding in metadata, and Compresso bins
lines by data size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..machine import LINE_BYTES
from .base import CompressedLine, Compressor, bytes_of, words_of
from .bitstream import BitReader, BitWriter, fits_signed, sign_extend, to_twos_complement
from .zero import is_zero_line


@dataclass(frozen=True)
class _Encoding:
    """One BDI encoding: ``base_bytes``-wide base, ``delta_bytes`` deltas."""

    tag: int
    base_bytes: int
    delta_bytes: int

    @property
    def name(self) -> str:
        return f"base{self.base_bytes}-delta{self.delta_bytes}"


# Tag 0 = zeros, tag 1 = repeated 8-byte value, tags 2..7 = base+delta,
# tag 15 = uncompressed.
_ENCODINGS: List[_Encoding] = [
    _Encoding(2, 8, 1),
    _Encoding(3, 8, 2),
    _Encoding(4, 8, 4),
    _Encoding(5, 4, 1),
    _Encoding(6, 4, 2),
    _Encoding(7, 2, 1),
]

_TAG_ZERO = 0
_TAG_REP = 1
_TAG_RAW = 15
_TAG_BITS = 4


class BDICompressor(Compressor):
    """Base-Delta-Immediate with the canonical 8 encodings."""

    name = "bdi"

    def compress(self, data: bytes) -> CompressedLine:
        self._check_input(data)
        writer = BitWriter()
        if is_zero_line(data):
            writer.write(_TAG_ZERO, _TAG_BITS)
            return self._finish(writer, size_bits=8)

        rep = self._repeated_value(data)
        if rep is not None:
            writer.write(_TAG_REP, _TAG_BITS)
            writer.write(rep, 64)
            return self._finish(writer, size_bits=64)

        best: Optional[BitWriter] = None
        best_size = LINE_BYTES * 8
        for enc in _ENCODINGS:
            encoded = self._try_encoding(data, enc)
            if encoded is not None:
                size = self._payload_bits(enc)
                if size < best_size:
                    best, best_size = encoded, size
        if best is not None:
            return self._finish(best, size_bits=best_size)

        writer.write(_TAG_RAW, _TAG_BITS)
        writer.write(int.from_bytes(data, "big"), LINE_BYTES * 8)
        return self._finish(writer, size_bits=LINE_BYTES * 8)

    def decompress(self, line: CompressedLine) -> bytes:
        self._check_line(line)
        reader = BitReader(line.payload)
        tag = reader.read(_TAG_BITS)
        if tag == _TAG_ZERO:
            return bytes(LINE_BYTES)
        if tag == _TAG_REP:
            value = reader.read(64)
            return value.to_bytes(8, "little") * (LINE_BYTES // 8)
        if tag == _TAG_RAW:
            return reader.read(LINE_BYTES * 8).to_bytes(LINE_BYTES, "big")
        enc = next(e for e in _ENCODINGS if e.tag == tag)
        nwords = LINE_BYTES // enc.base_bytes
        base = reader.read(enc.base_bytes * 8)
        words = []
        for _ in range(nwords):
            delta = sign_extend(reader.read(enc.delta_bytes * 8), enc.delta_bytes * 8)
            words.append((base + delta) % (1 << (enc.base_bytes * 8)))
        return bytes_of(words, enc.base_bytes)

    def _try_encoding(self, data: bytes, enc: _Encoding) -> Optional[BitWriter]:
        words = words_of(data, enc.base_bytes)
        base = words[0]
        width = enc.delta_bytes * 8
        modulus = 1 << (enc.base_bytes * 8)
        deltas = []
        for word in words:
            # Deltas wrap modulo the base width, matching hardware adders.
            delta = (word - base) % modulus
            if delta >= modulus // 2:
                delta -= modulus
            if not fits_signed(delta, width):
                return None
            deltas.append(delta)
        writer = BitWriter()
        writer.write(enc.tag, _TAG_BITS)
        writer.write(base, enc.base_bytes * 8)
        for delta in deltas:
            writer.write(to_twos_complement(delta, width), width)
        return writer

    def _payload_bits(self, enc: _Encoding) -> int:
        nwords = LINE_BYTES // enc.base_bytes
        return (enc.base_bytes + nwords * enc.delta_bytes) * 8

    @staticmethod
    def _repeated_value(data: bytes) -> Optional[int]:
        first = data[:8]
        if all(data[i : i + 8] == first for i in range(8, len(data), 8)):
            return int.from_bytes(first, "little")
        return None

    def _finish(self, writer: BitWriter, size_bits: int) -> CompressedLine:
        return CompressedLine(self.name, size_bits, writer.to_bits())
