"""Tests for machine-memory geometry and capacity accounting."""

import pytest

from repro.memory.physical import MemoryGeometry, PhysicalMemory


class TestGeometry:
    def test_advertised_capacity(self):
        geo = MemoryGeometry(installed_bytes=1 << 30, advertised_ratio=2.0)
        assert geo.advertised_bytes == 2 << 30
        assert geo.ospa_pages == (2 << 30) // 4096

    def test_metadata_region_is_1_6_percent_of_advertised(self):
        geo = MemoryGeometry(installed_bytes=1 << 30)
        # 64 B per advertised 4 KB page.
        assert geo.metadata_region_bytes == geo.ospa_pages * 64
        assert geo.metadata_overhead == pytest.approx(
            2 * 64 / 4096, rel=0.01
        )

    def test_data_region_smaller_than_installed(self):
        geo = MemoryGeometry(installed_bytes=1 << 30)
        assert geo.data_region_bytes < geo.installed_bytes


class TestPhysicalMemory:
    def test_metadata_addresses_above_data(self):
        memory = PhysicalMemory(MemoryGeometry(64 << 20))
        data_top = memory.allocator.total_chunks * 512
        assert memory.metadata_address(0) == data_top
        assert memory.metadata_address(1) == data_top + 64

    def test_metadata_address_bounds(self):
        memory = PhysicalMemory(MemoryGeometry(64 << 20))
        with pytest.raises(ValueError):
            memory.metadata_address(-1)
        with pytest.raises(ValueError):
            memory.metadata_address(10**9)

    def test_utilization_tracks_allocation(self):
        memory = PhysicalMemory(MemoryGeometry(64 << 20))
        total = memory.free_bytes
        assert memory.used_bytes == 0
        memory.allocator.allocate(100)
        assert memory.used_bytes == 100 * 512
        assert memory.free_bytes == total - 100 * 512

    def test_variable_allocation_backend(self):
        memory = PhysicalMemory(MemoryGeometry(64 << 20),
                                allocation="variable")
        base = memory.allocator.allocate_region(2048)
        assert memory.used_bytes == 2048

    def test_unknown_allocation_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(MemoryGeometry(64 << 20), allocation="slab")

    def test_metadata_cannot_eat_all_memory(self):
        with pytest.raises(ValueError):
            # Absurd advertised ratio: metadata region exceeds installed.
            PhysicalMemory(MemoryGeometry(1 << 20, advertised_ratio=100.0))
