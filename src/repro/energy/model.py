"""Energy model for compressed-memory systems (paper §VII-C, Fig. 12).

The paper's energy story has three parts:

* **DRAM energy** — dominated by access count: compression removes
  demand accesses (zero lines, prefetch) but adds movement traffic
  (splits, overflows, metadata misses), plus a background term
  proportional to runtime.
* **Core energy** — proportional to runtime (slowdown costs energy).
* **Memory-controller additions** — the BPC compressor/decompressor
  (7 mW active, <0.4% of a DDR4-2666 channel's active power) and the
  96 KB metadata cache (0.08 nJ/access, <0.8% of a DRAM read).

Constants follow the paper's reported synthesis numbers plus standard
DDR4 access energies; results are reported *relative to the
uncompressed system*, as in Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.stats import ControllerStats
from ..machine import CPU_FREQ_GHZ


@dataclass(frozen=True)
class EnergyConstants:
    """Energy per event / power levels (from §VII-C and DDR4 datasheets)."""

    dram_read_nj: float = 10.0        # 64 B read (activate+IO amortized)
    dram_write_nj: float = 11.0
    dram_background_mw: float = 150.0  # per channel, always-on
    core_active_w: float = 12.0        # one 3 GHz OOO core
    bpc_active_mw: float = 7.0         # paper: 40 nm synthesis @800 MHz
    bpc_access_nj: float = 0.00875     # 7 mW / 800 MHz per line
    metadata_cache_access_nj: float = 0.08  # paper: 8-way 96 KB

    def sanity_fractions(self) -> dict:
        """The paper's two headline overhead claims (§VII-C)."""
        dram_channel_active_mw = 2000.0  # ~2 W active DDR4-2666 channel
        return {
            "bpc_vs_channel_power": self.bpc_active_mw / dram_channel_active_mw,
            "metadata_vs_dram_read": self.metadata_cache_access_nj
            / self.dram_read_nj,
        }


@dataclass
class EnergyBreakdown:
    """Absolute energy (nJ) for one run."""

    dram_dynamic_nj: float
    dram_background_nj: float
    core_nj: float
    compressor_nj: float
    metadata_cache_nj: float

    @property
    def dram_nj(self) -> float:
        return self.dram_dynamic_nj + self.dram_background_nj

    @property
    def total_nj(self) -> float:
        return (self.dram_nj + self.core_nj + self.compressor_nj
                + self.metadata_cache_nj)


class EnergyModel:
    """Computes Fig. 12-style energy from simulation outputs."""

    def __init__(self, constants: EnergyConstants = EnergyConstants()) -> None:
        self.constants = constants

    def evaluate(self, cycles: int, dram_reads: int, dram_writes: int,
                 stats: ControllerStats = None) -> EnergyBreakdown:
        """Energy for one run.

        ``stats`` is None for the uncompressed baseline (no compressor
        or metadata-cache activity).
        """
        k = self.constants
        seconds = cycles / (CPU_FREQ_GHZ * 1e9)
        dram_dynamic = (dram_reads * k.dram_read_nj
                        + dram_writes * k.dram_write_nj)
        dram_background = k.dram_background_mw * 1e-3 * seconds * 1e9
        core = k.core_active_w * seconds * 1e9

        compressor = metadata = 0.0
        if stats is not None:
            compressed_ops = (
                stats.demand_accesses - stats.zero_line_reads
                - stats.zero_line_writes
            )
            compressor = max(0, compressed_ops) * k.bpc_access_nj
            lookups = stats.metadata_hits + stats.metadata_misses
            metadata = lookups * k.metadata_cache_access_nj
        return EnergyBreakdown(
            dram_dynamic_nj=dram_dynamic,
            dram_background_nj=dram_background,
            core_nj=core,
            compressor_nj=compressor,
            metadata_cache_nj=metadata,
        )

    def relative(self, run: EnergyBreakdown,
                 baseline: EnergyBreakdown) -> dict:
        """Fig. 12 metrics: DRAM and core energy relative to baseline."""
        return {
            "dram": run.dram_nj / baseline.dram_nj,
            "core": run.core_nj / baseline.core_nj,
            "total": run.total_nj / baseline.total_nj,
        }
