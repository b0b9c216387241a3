"""Tests for OS-transparent out-of-memory handling (§V-B, Fig. 8).

Exhaustion no longer raises out of the controller: when ballooning and
the emergency repack sweep both come up short, the controller enters
degraded mode and denies new compression instead (docs/ROBUSTNESS.md).
"""

import pytest

from repro.core import (
    BalloonDriver,
    CompressedMemoryController,
    FreeListOSModel,
    compresso_config,
)
from repro.memory import MemoryGeometry
from repro.osmodel import VirtualMemory


def tiny_controller():
    """A controller with very little machine memory (fills quickly)."""
    geometry = MemoryGeometry(installed_bytes=2 * 1024 * 1024,
                              advertised_ratio=4.0)
    return CompressedMemoryController(compresso_config(), geometry)


def incompressible(seed: int) -> bytes:
    import random
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(64))


def fill_until_denied(ctrl):
    """Write incompressible pages until degraded mode starts denying."""
    page = 0
    while ctrl.stats.alloc_denials == 0:
        assert page < ctrl.geometry.ospa_pages, "never hit exhaustion"
        for line in range(64):
            ctrl.write_line(page, line, incompressible(page * 64 + line))
        page += 1
    return page


class TestOutOfMemory:
    def test_exhaustion_degrades_without_balloon(self):
        ctrl = tiny_controller()
        fill_until_denied(ctrl)
        assert ctrl.degraded_mode
        assert ctrl.stats.alloc_exhaustions == 1
        assert ctrl.stats.alloc_denials >= 1

    def test_balloon_that_cannot_help_degrades(self):
        ctrl = tiny_controller()
        victims = list(range(4000, 5000))
        BalloonDriver(ctrl, FreeListOSModel(victims))
        # Victim pages are unmapped (zero): reclaiming them frees no
        # chunks, so the balloon comes up short and the controller
        # degrades instead of raising.
        fill_until_denied(ctrl)
        assert ctrl.stats.balloon_inflations >= 1
        assert ctrl.degraded_mode

    def test_balloon_reclaims_cold_data_pages(self):
        ctrl = tiny_controller()
        # Populate pages until machine memory is nearly full.
        page = 0
        while ctrl.allocator.free_chunks > 16:
            for line in range(64):
                ctrl.write_line(page, line, incompressible(page * 64 + line))
            page += 1
        cold = [(victim, True) for victim in range(page // 2)]
        BalloonDriver(ctrl, FreeListOSModel([], cold), safety_chunks=8)
        # Keep writing; the balloon must reclaim cold pages to make room.
        for extra in range(page + 1, page + 6):
            for line in range(64):
                ctrl.write_line(extra, line, incompressible(extra * 64 + line))
        assert ctrl.stats.balloon_inflations > 0
        assert ctrl.stats.balloon_pages_reclaimed > 0
        # Reclaimed pages read back as zeros (they were paged out).
        assert ctrl.read_line(0, 0).data == bytes(64)

    def test_deflate_returns_pages(self):
        ctrl = tiny_controller()
        driver = BalloonDriver(ctrl, FreeListOSModel([]), safety_chunks=0)
        driver._held_pages = [1, 2, 3]
        assert driver.deflate() == [1, 2, 3]
        assert driver.deflate() == []


class TestVirtualMemoryIntegration:
    def test_balloon_takes_free_then_cold(self):
        vm = VirtualMemory(total_pages=64)
        pages = [vm.allocate_page() for _ in range(60)]
        for page in pages[:10]:
            vm.touch(page, dirty=True)
        # 4 free pages remain; then cold (LRU) allocated pages follow.
        assert vm.take_free_page() is not None
        for _ in range(3):
            vm.take_free_page()
        assert vm.take_free_page() is None
        page, dirty = vm.take_cold_page()
        assert page == pages[10]  # oldest untouched page
        assert not dirty

    def test_cold_page_dirty_flag(self):
        vm = VirtualMemory(total_pages=8)
        page = vm.allocate_page()
        vm.touch(page, dirty=True)
        taken, dirty = vm.take_cold_page()
        assert taken == page
        assert dirty

    def test_allocate_free_cycle(self):
        vm = VirtualMemory(total_pages=4)
        pages = [vm.allocate_page() for _ in range(4)]
        with pytest.raises(MemoryError):
            vm.allocate_page()
        vm.free_page(pages[0])
        assert vm.allocate_page() == pages[0]

    def test_touch_requires_allocated(self):
        vm = VirtualMemory(total_pages=4)
        with pytest.raises(ValueError):
            vm.touch(0)

    def test_double_free_rejected(self):
        vm = VirtualMemory(total_pages=4)
        page = vm.allocate_page()
        vm.free_page(page)
        with pytest.raises(ValueError):
            vm.free_page(page)
