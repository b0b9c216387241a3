"""Bit-Plane Compression (BPC) [Kim et al., ISCA 2016], adapted for Compresso.

BPC is a context-based compressor: it first applies a
Delta-BitPlane-XOR (DBX) transform that turns typical low-entropy data
(arrays of similar integers, pointers, floats) into mostly-zero bit
planes, then encodes each plane with a small prefix code.

The Compresso paper adapts BPC from the GPU's 128-byte lines to the
CPU's 64-byte lines (§II-A), so here a line is 16 little-endian 32-bit
words:

1. keep word 0 as the *base*, encoded with a width prefix code;
2. compute 15 successive deltas ``d[i] = w[i+1] - w[i]`` (33-bit
   two's complement);
3. transpose the deltas into 33 *delta bit-planes* (DBPs) of 15 bits;
4. XOR each DBP with its more-significant neighbour (DBX);
5. encode each DBX plane with the symbol table below.

Plane symbols (``m`` = plane width, here 15; positions use 4 bits):

=================================== ==================== =========
 pattern                             code                 bits
=================================== ==================== =========
 run of 2..33 all-zero DBX planes    ``01`` + 5-bit len   7
 single all-zero DBX plane           ``001``              3
 all-ones DBX plane                  ``00000``            5
 DBX != 0 but DBP == 0               ``00001``            5
 two consecutive ones                ``00010`` + pos      5 + 4
 single one                          ``00011`` + pos      5 + 4
 uncompressed plane                  ``1`` + raw          1 + m
=================================== ==================== =========

The paper additionally observes that always applying the transform is
suboptimal and adds a module that compresses **with and without the
transform in parallel** and picks the best (worth ~13% extra memory
savings).  ``BPCCompressor`` implements exactly that: mode 1 is the
delta transform above; mode 0 bit-plane-encodes the raw words (32
planes of 16 bits, still with the plane XOR); a 1-bit header selects
the mode, and a raw fallback guarantees the output never exceeds
``LINE_BYTES * 8 + 2`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..machine import LINE_BYTES
from .base import CompressedLine, Compressor, bytes_of, words_of
from .bitstream import BitReader, BitWriter, sign_extend

_WORD_BITS = 32

# Mode header: 2 bits (00 = raw, 01 = plane-encode raw words,
# 10 = delta transform).
_MODE_RAW = 0
_MODE_PLAIN = 1
_MODE_DELTA = 2
_MODE_BITS = 2

_RUN_LEN_BITS = 5  # runs of 2..33 zero planes, stored as len-2


def _bit_planes(values: List[int], n_planes: int) -> List[int]:
    """Transpose ``values`` into ``n_planes`` planes, MSB plane first.

    Plane ``p`` (for bit position ``b = n_planes-1-p``) packs bit ``b``
    of ``values[i]`` into bit ``i`` of the plane.
    """
    planes = []
    for b in range(n_planes - 1, -1, -1):
        plane = 0
        for i, value in enumerate(values):
            plane |= ((value >> b) & 1) << i
        planes.append(plane)
    return planes


def _from_bit_planes(planes: List[int], width: int) -> List[int]:
    """Inverse of :func:`_bit_planes` (``width`` values)."""
    n_planes = len(planes)
    values = [0] * width
    for p, plane in enumerate(planes):
        b = n_planes - 1 - p
        for i in range(width):
            values[i] |= ((plane >> i) & 1) << b
    return values


@dataclass(frozen=True)
class _PlaneGeometry:
    """Shape of the plane encoding for one mode."""

    n_planes: int   # number of bit planes
    width: int      # bits per plane (= number of values transposed)

    @property
    def pos_bits(self) -> int:
        return max(1, (self.width - 1).bit_length())


class _PlaneCoder:
    """Encodes/decodes a sequence of DBX planes with the BPC symbol table."""

    def __init__(self, geometry: _PlaneGeometry) -> None:
        self.geometry = geometry
        self._mask = (1 << geometry.width) - 1

    def encode(self, writer: BitWriter, values: List[int]) -> None:
        geo = self.geometry
        planes = _bit_planes(values, geo.n_planes)  # DBP, MSB first
        prev_dbp = 0  # plane "above" the MSB plane is all zero
        run = 0
        for dbp in planes:
            dbx = dbp ^ prev_dbp
            if dbx == 0:
                run += 1
                prev_dbp = dbp
                continue
            self._flush_run(writer, run)
            run = 0
            self._encode_plane(writer, dbx, dbp)
            prev_dbp = dbp
        self._flush_run(writer, run)

    def decode(self, reader: BitReader) -> List[int]:
        geo = self.geometry
        planes: List[int] = []
        prev_dbp = 0
        while len(planes) < geo.n_planes:
            dbp = self._decode_plane(reader, prev_dbp, planes)
            if dbp is None:
                continue  # a run already appended planes
            planes.append(dbp)
            prev_dbp = dbp
        return _from_bit_planes(planes, geo.width)

    def _flush_run(self, writer: BitWriter, run: int) -> None:
        while run >= 2:
            chunk = min(run, 2 + (1 << _RUN_LEN_BITS) - 1)
            writer.write(0b01, 2)
            writer.write(chunk - 2, _RUN_LEN_BITS)
            run -= chunk
        if run == 1:
            writer.write(0b001, 3)

    def _encode_plane(self, writer: BitWriter, dbx: int, dbp: int) -> None:
        geo = self.geometry
        if dbp == 0:  # dbx != 0 here, but the DBP itself vanished
            writer.write(0b00001, 5)
            return
        if dbx == self._mask:
            writer.write(0b00000, 5)
            return
        single = self._single_one_position(dbx)
        if single is not None:
            writer.write(0b00011, 5)
            writer.write(single, geo.pos_bits)
            return
        double = self._two_consecutive_ones_position(dbx)
        if double is not None:
            writer.write(0b00010, 5)
            writer.write(double, geo.pos_bits)
            return
        writer.write(1, 1)
        writer.write(dbx, geo.width)

    def _decode_plane(self, reader: BitReader, prev_dbp: int, planes: List[int]):
        geo = self.geometry
        first = reader.read(1)
        if first == 1:  # raw plane
            dbx = reader.read(geo.width)
            return dbx ^ prev_dbp
        second = reader.read(1)
        if second == 1:  # '01' zero run
            run = reader.read(_RUN_LEN_BITS) + 2
            planes.extend([prev_dbp] * run)
            return None
        third = reader.read(1)
        if third == 1:  # '001' single zero plane
            planes.append(prev_dbp)
            return None
        # '000' + 2 selector bits
        selector = reader.read(2)
        if selector == 0b00:  # all ones
            return self._mask ^ prev_dbp
        if selector == 0b01:  # DBP == 0
            return 0
        if selector == 0b10:  # two consecutive ones
            pos = reader.read(geo.pos_bits)
            return (0b11 << pos) ^ prev_dbp
        pos = reader.read(geo.pos_bits)  # single one
        return (1 << pos) ^ prev_dbp

    @staticmethod
    def _single_one_position(plane: int):
        if plane and plane & (plane - 1) == 0:
            return plane.bit_length() - 1
        return None

    def _two_consecutive_ones_position(self, plane: int):
        low = plane & -plane
        if plane == low | (low << 1) and (low << 1) <= self._mask:
            return low.bit_length() - 1
        return None


class BPCCompressor(Compressor):
    """Bit-Plane Compression with the Compresso best-of-two-modes tweak.

    Set ``transform_only=True`` to model the unmodified BPC of Kim et
    al. (always applies the delta transform); the default models the
    Compresso-modified compressor.
    """

    name = "bpc"

    def __init__(self, transform_only: bool = False) -> None:
        self.transform_only = transform_only
        n_words = LINE_BYTES // 4
        self._delta_geo = _PlaneGeometry(n_planes=_WORD_BITS + 1, width=n_words - 1)
        self._plain_geo = _PlaneGeometry(n_planes=_WORD_BITS, width=n_words)
        self._delta_coder = _PlaneCoder(self._delta_geo)
        self._plain_coder = _PlaneCoder(self._plain_geo)

    def compress(self, data: bytes) -> CompressedLine:
        self._check_input(data)
        words = words_of(data, 4)

        best = self._compress_delta(words)
        # The parallel no-transform path only matters when the delta
        # transform did poorly; below one byte-bin (64 bits) the choice
        # cannot change any packing decision, so skip the second pass.
        if not self.transform_only and best.bit_length > 64:
            plain = self._compress_plain(words)
            if plain.bit_length < best.bit_length:
                best = plain

        raw_bits = LINE_BYTES * 8 + _MODE_BITS
        if best.bit_length >= raw_bits:
            writer = BitWriter()
            writer.write(_MODE_RAW, _MODE_BITS)
            writer.write(int.from_bytes(data, "big"), LINE_BYTES * 8)
            best = writer
        bits = best.to_bits()
        return CompressedLine(self.name, bits.length, bits)

    def decompress(self, line: CompressedLine) -> bytes:
        self._check_line(line)
        reader = BitReader(line.payload)
        mode = reader.read(_MODE_BITS)
        if mode == _MODE_RAW:
            return reader.read(LINE_BYTES * 8).to_bytes(LINE_BYTES, "big")
        if mode == _MODE_PLAIN:
            words = self._plain_coder.decode(reader)
            return bytes_of(words, 4)
        base = self._decode_base(reader)
        deltas_tc = self._delta_coder.decode(reader)
        words = [base]
        for delta_tc in deltas_tc:
            delta = sign_extend(delta_tc, _WORD_BITS + 1)
            words.append((words[-1] + delta) & 0xFFFFFFFF)
        return bytes_of(words, 4)

    # -- mode 2: delta + bit-plane + xor ---------------------------------

    def _compress_delta(self, words: List[int]) -> BitWriter:
        writer = BitWriter()
        writer.write(_MODE_DELTA, _MODE_BITS)
        self._encode_base(writer, words[0])
        deltas_tc = []
        mask = (1 << (_WORD_BITS + 1)) - 1
        for prev, cur in zip(words, words[1:]):
            deltas_tc.append((cur - prev) & mask)
        self._delta_coder.encode(writer, deltas_tc)
        return writer

    # -- mode 1: bit-plane + xor on raw words ----------------------------

    def _compress_plain(self, words: List[int]) -> BitWriter:
        writer = BitWriter()
        writer.write(_MODE_PLAIN, _MODE_BITS)
        self._plain_coder.encode(writer, words)
        return writer

    # -- base word prefix code -------------------------------------------

    @staticmethod
    def _encode_base(writer: BitWriter, base: int) -> None:
        signed = sign_extend(base, _WORD_BITS)
        if base == 0:
            writer.write(0b000, 3)
        elif -8 <= signed <= 7:
            writer.write(0b001, 3)
            writer.write(signed & 0xF, 4)
        elif -128 <= signed <= 127:
            writer.write(0b010, 3)
            writer.write(signed & 0xFF, 8)
        elif -(1 << 15) <= signed <= (1 << 15) - 1:
            writer.write(0b011, 3)
            writer.write(signed & 0xFFFF, 16)
        else:
            writer.write(0b1, 1)
            writer.write(base, 32)

    @staticmethod
    def _decode_base(reader: BitReader) -> int:
        if reader.read(1) == 1:
            return reader.read(32)
        selector = reader.read(2)
        if selector == 0b00:
            return 0
        if selector == 0b01:
            return sign_extend(reader.read(4), 4) & 0xFFFFFFFF
        if selector == 0b10:
            return sign_extend(reader.read(8), 8) & 0xFFFFFFFF
        return sign_extend(reader.read(16), 16) & 0xFFFFFFFF

