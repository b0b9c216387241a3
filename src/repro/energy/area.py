"""Area and circuit-latency models (paper §VII-D and §VII-E).

Encodes the paper's synthesis results (40 nm TSMC, 800 MHz):

* BPC compressor unit: 43 Kµm², ~61K NAND2-equivalent gates;
* 96 KB single-port metadata cache: ~100 Kµm²;
* the LinePack offset adder: summing up to 63 two-bit-encoded line
  sizes.  Shifting the 0/8/32/64 bins right by 3 bits reduces them to
  0/1/4/8, so the circuit is a 63-input 4-bit adder — under 1.5K NAND
  gates, 38 NAND delays naively, 32 with input-aware optimization;
  DDR4-2666 allows ~30 gate delays per cycle, and partial overlap with
  the metadata-cache lookup leaves one visible cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..machine import LINES_PER_PAGE

#: Paper-reported synthesis numbers (§VII-D).
BPC_AREA_UM2 = 43_000.0
BPC_GATES_NAND2 = 61_000
METADATA_CACHE_AREA_UM2 = 100_000.0
GATE_DELAYS_PER_CYCLE_DDR4_2666 = 30


@dataclass(frozen=True)
class AdderModel:
    """Gate-level estimate for the LinePack offset calculation (§VII-E)."""

    #: The offset of the last line sums the sizes of the lines before it.
    n_inputs: int = LINES_PER_PAGE - 1
    input_bits: int = 4

    @property
    def output_bits(self) -> int:
        # Sum of 63 4-bit values fits in 4 + ceil(log2(63)) = 10 bits.
        return self.input_bits + math.ceil(math.log2(self.n_inputs))

    @property
    def nand_gates(self) -> int:
        """Carry-save tree: ~5 NAND2 per full adder, one FA per reduced bit."""
        # A Wallace-style tree over n inputs needs about (n-2) rows of
        # full adders per output column; 63 x 4-bit with growth to 10
        # bits lands comfortably under 1.5K gates, as the paper states.
        full_adders = (self.n_inputs - 2) * self.input_bits
        return 5 * full_adders + 10 * self.output_bits

    @property
    def gate_delays_naive(self) -> int:
        """Balanced-tree reduction depth plus the final carry propagate."""
        # Each 3:2 compressor layer costs 2 NAND delays; log_{3/2}(63)
        # layers, then a ~10-bit carry-propagate adder (~2 delays/bit).
        layers = math.ceil(math.log(self.n_inputs / 2) / math.log(1.5))
        return 2 * layers + 2 * self.output_bits

    @property
    def gate_delays_optimized(self) -> int:
        """Inputs are 0/1/4/8 only: the low two bits are constant zero
        for the 4/8 values, letting several layers collapse (§VII-E)."""
        return self.gate_delays_naive - 6

    def visible_cycles(self, overlap_with_metadata_lookup: bool = True) -> int:
        """Cycles exposed on the access path at DDR4-2666."""
        delays = self.gate_delays_optimized
        cycles = math.ceil(delays / GATE_DELAYS_PER_CYCLE_DDR4_2666)
        if overlap_with_metadata_lookup:
            cycles = max(1, cycles - 1)
        return cycles


def offset_adder_for_bins(line_bins: Sequence[int]) -> AdderModel:
    """Adder shape for a bin set: widths shrink by the common shift."""
    nonzero = [b for b in line_bins if b]
    shift = min((b & -b).bit_length() - 1 for b in nonzero)
    max_addend = max(nonzero) >> shift
    return AdderModel(input_bits=max(1, max_addend.bit_length()))


@dataclass(frozen=True)
class AreaReport:
    """§VII-D summary for one Compresso instance."""

    bpc_um2: float = BPC_AREA_UM2
    metadata_cache_um2: float = METADATA_CACHE_AREA_UM2

    @property
    def total_um2(self) -> float:
        return self.bpc_um2 + self.metadata_cache_um2

    @property
    def total_mm2(self) -> float:
        return self.total_um2 / 1e6
