"""DDR4 channel timing model (paper Tab. III).

A deliberately compact but structurally faithful model: banks with open
rows, tRCD/tRP/tCL timing, a shared data bus occupied for BL/2 DRAM
cycles per burst, and FR-FCFS-ish service where requests wait for their
bank and the bus.  Everything is expressed in **CPU cycles** (3 GHz core
vs. 1333 MHz DDR4-2666 command clock), matching how the simulator
accumulates stalls.

This is the substitution for the authors' zsim+DRAM setup: we do not
model refresh, rank-to-rank penalties or write-to-read turnarounds, but
we do capture the three effects the paper's results hinge on — row
locality, bank parallelism and bandwidth contention from the extra
compression traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..machine import CPU_FREQ_GHZ
from .request import AccessCategory, AccessKind, MemAccess


@dataclass(frozen=True)
class DRAMTimings:
    """DDR4-2666 timings from Tab. III, converted to CPU cycles."""

    dram_freq_mhz: float = 1333.0        # command clock of DDR4-2666
    tCL: int = 18                        # DRAM cycles
    tRCD: int = 18
    tRP: int = 18
    burst_length: int = 8

    @property
    def cycles_per_dram_clock(self) -> float:
        return CPU_FREQ_GHZ * 1000.0 / self.dram_freq_mhz

    def _cpu(self, dram_cycles: float) -> int:
        return max(1, round(dram_cycles * self.cycles_per_dram_clock))

    @property
    def row_hit_latency(self) -> int:
        return self._cpu(self.tCL)

    @property
    def row_miss_latency(self) -> int:
        return self._cpu(self.tRCD + self.tCL)

    @property
    def row_conflict_latency(self) -> int:
        return self._cpu(self.tRP + self.tRCD + self.tCL)

    @property
    def burst_cycles(self) -> int:
        """Bus occupancy of one 64-byte transfer (BL/2 DRAM clocks)."""
        return self._cpu(self.burst_length / 2)


@dataclass
class _Bank:
    open_row: int = -1
    ready_at: int = 0


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    busy_cycles: int = 0
    total_wait_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DRAMSystem:
    """The one DDR4 channel: banks + shared data bus."""

    #: Address mapping: banks interleave at 256-byte stripes (as real
    #: controllers do, so streams engage all banks in parallel); the row
    #: id covers an 8 KB region, so a stream's return to a bank is a row
    #: hit.
    ROW_BYTES = 8192
    BANK_STRIPE = 256
    N_BANKS = 16

    def __init__(self, timings: DRAMTimings = DRAMTimings()) -> None:
        self.timings = timings
        self.banks: List[_Bank] = [_Bank() for _ in range(self.N_BANKS)]
        self.bus_free_at = 0
        self.stats = DRAMStats()

    def _map(self, address: int):
        """Return (bank index, row index) for a byte address."""
        bank = (address // self.BANK_STRIPE) % self.N_BANKS
        row = address // self.ROW_BYTES
        return bank, row

    def access(self, now: int, access: MemAccess) -> int:
        """Issue one access arriving at CPU cycle ``now``.

        Returns the completion cycle (data available / write retired).

        Metadata reads are *prioritized*: they are latency-critical
        64-byte fetches into a small, row-hot region, so an FR-FCFS
        scheduler serves them ahead of the bank backlog.  They still
        consume bus bandwidth.
        """
        t = self.timings
        bank_idx, row = self._map(access.address)
        bank = self.banks[bank_idx]

        if (access.category is AccessCategory.METADATA
                and access.kind is AccessKind.READ and access.critical):
            latency = (t.row_hit_latency if bank.open_row == row
                       else t.row_miss_latency)
            completion = now + latency + t.burst_cycles
            self.stats.reads += 1
            self.stats.busy_cycles += t.burst_cycles
            self.stats.total_wait_cycles += completion - now
            return completion

        start = max(now, bank.ready_at)
        if bank.open_row == row:
            latency = t.row_hit_latency
            self.stats.row_hits += 1
        elif bank.open_row == -1:
            latency = t.row_miss_latency
            self.stats.row_misses += 1
        else:
            latency = t.row_conflict_latency
            self.stats.row_conflicts += 1
        bank.open_row = row

        data_ready = start + latency
        # The burst needs the shared bus.
        burst_start = max(data_ready, self.bus_free_at)
        completion = burst_start + t.burst_cycles
        self.bus_free_at = completion
        bank.ready_at = completion

        if access.kind is AccessKind.READ:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        self.stats.busy_cycles += t.burst_cycles
        self.stats.total_wait_cycles += completion - now
        return completion
