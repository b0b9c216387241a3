"""Tests for the DDR4 timing model."""

import pytest

from repro.memory.dram import DRAMSystem, DRAMTimings
from repro.memory.request import AccessCategory, AccessKind, MemAccess


def read(address, category=AccessCategory.DEMAND, critical=True):
    return MemAccess(AccessKind.READ, category, address, critical)


def write(address):
    return MemAccess(AccessKind.WRITE, AccessCategory.DEMAND, address, False)


class TestTimings:
    def test_cpu_cycle_conversion(self):
        t = DRAMTimings()
        # 3 GHz CPU / 1333 MHz DRAM: ~2.25 CPU cycles per DRAM clock.
        assert t.cycles_per_dram_clock == pytest.approx(2.2505, abs=0.01)
        assert t.row_hit_latency == round(18 * t.cycles_per_dram_clock)
        assert t.row_miss_latency > t.row_hit_latency
        assert t.row_conflict_latency > t.row_miss_latency

    def test_burst_occupancy(self):
        t = DRAMTimings()
        assert t.burst_cycles == round(4 * t.cycles_per_dram_clock)


class TestChannel:
    def test_row_hit_faster_than_conflict(self):
        channel = DRAMSystem()
        first = channel.access(0, read(0))
        # Same bank, same row: hit.
        hit_done = channel.access(first, read(64)) - first
        # Same bank (same stripe alignment), different row: conflict.
        far = 8192 * channel.N_BANKS  # same bank index, different row
        conflict_done = channel.access(first, read(far)) - first
        assert hit_done < conflict_done

    def test_banks_overlap(self):
        """Two accesses to different banks overlap; same bank serializes."""
        same = DRAMSystem()
        t1 = same.access(0, read(0))
        t2 = same.access(0, read(8192 * same.N_BANKS))  # same bank
        serial = t2

        other = DRAMSystem()
        other.access(0, read(0))
        t4 = other.access(0, read(256))  # neighbouring bank stripe
        assert t4 < serial

    def test_stream_engages_all_banks(self):
        channel = DRAMSystem()
        banks = {channel._map(64 * i)[0] for i in range(64)}
        assert len(banks) == channel.N_BANKS

    def test_stats_accumulate(self):
        channel = DRAMSystem()
        channel.access(0, read(0))
        channel.access(0, write(64))
        assert channel.stats.reads == 1
        assert channel.stats.writes == 1
        assert channel.stats.accesses == 2

    def test_metadata_reads_are_prioritized(self):
        """A metadata read bypasses the bank backlog (§III latency)."""
        channel = DRAMSystem()
        # Pile work onto every bank.
        for i in range(64):
            channel.access(0, read(i * 64))
        busy_now = 0
        demand_done = channel.access(busy_now, read(0))
        md = read(0, category=AccessCategory.METADATA)
        md_done = channel.access(busy_now, md)
        assert md_done - busy_now < demand_done - busy_now

    def test_utilization_bounded(self):
        channel = DRAMSystem()
        for i in range(10):
            channel.access(0, read(i * 64))
        # Each burst occupies the shared bus for BL/2 DRAM clocks.
        assert channel.stats.busy_cycles == 10 * channel.timings.burst_cycles


class TestSystem:
    def test_aggregate_stats(self):
        system = DRAMSystem()
        for i in range(8):
            system.access(0, read(i * 64))
        assert system.stats.reads == 8
