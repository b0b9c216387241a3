"""Tests for machine-memory geometry and the allocator it sizes."""

import pytest

from repro.memory.allocator import ChunkAllocator, VariableAllocator, allocator_for
from repro.memory.physical import MemoryGeometry


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

    def test_metadata_addresses_above_data(self):
        geo = MemoryGeometry(64 << 20)
        data_top = allocator_for("chunks", geo.data_bytes).total_chunks * 512
        assert geo.metadata_address(0) == data_top
        assert geo.metadata_address(1) == data_top + 64

    def test_metadata_address_bounds(self):
        geo = MemoryGeometry(64 << 20)
        with pytest.raises(ValueError):
            geo.metadata_address(-1)
        with pytest.raises(ValueError):
            geo.metadata_address(10**9)

    def test_metadata_cannot_eat_all_memory(self):
        # Absurd advertised ratio: metadata region exceeds installed.
        geo = MemoryGeometry(1 << 20, advertised_ratio=100.0)
        with pytest.raises(ValueError, match="exceeds installed memory"):
            geo.data_bytes


class TestAllocatorFor:
    def test_utilization_tracks_allocation(self):
        allocator = allocator_for("chunks", MemoryGeometry(64 << 20).data_bytes)
        assert isinstance(allocator, ChunkAllocator)
        total = allocator.free_chunks
        assert allocator.used_bytes == 0
        allocator.allocate(100)
        assert allocator.used_bytes == 100 * 512
        assert allocator.free_chunks == total - 100

    def test_variable_allocation_backend(self):
        allocator = allocator_for("variable",
                                  MemoryGeometry(64 << 20).data_bytes)
        assert isinstance(allocator, VariableAllocator)
        allocator.allocate_region(2048)
        assert allocator.used_bytes == 2048

    def test_unknown_allocation_rejected(self):
        with pytest.raises(ValueError, match="unknown allocation scheme"):
            allocator_for("slab", MemoryGeometry(64 << 20).data_bytes)
