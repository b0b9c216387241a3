"""Tests for the MPA allocators (§II-D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.allocator import ChunkAllocator, OutOfMemoryError, VariableAllocator


class TestChunkAllocator:
    def test_basic_alloc_free(self):
        alloc = ChunkAllocator(8 * 512)
        chunks = alloc.allocate(3)
        assert len(chunks) == 3
        assert len(set(chunks)) == 3
        assert alloc.used_chunks == 3
        alloc.free(chunks)
        assert alloc.used_chunks == 0

    def test_exhaustion(self):
        alloc = ChunkAllocator(4 * 512)
        alloc.allocate(4)
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(1)

    def test_double_free_rejected(self):
        alloc = ChunkAllocator(4 * 512)
        chunks = alloc.allocate(1)
        alloc.free(chunks)
        with pytest.raises(ValueError):
            alloc.free(chunks)

    def test_negative_count_rejected(self):
        alloc = ChunkAllocator(4 * 512)
        with pytest.raises(ValueError):
            alloc.allocate(-1)

    def test_misaligned_memory_rejected(self):
        with pytest.raises(ValueError):
            ChunkAllocator(1000)

    def test_stats(self):
        alloc = ChunkAllocator(10 * 512)
        alloc.allocate(4)
        assert alloc.total_chunks == 10
        assert alloc.used_chunks == 4
        assert alloc.free_chunks == 6
        assert alloc.used_bytes == 4 * 512

    def test_chunk_addresses_distinct(self):
        alloc = ChunkAllocator(16 * 512)
        chunks = alloc.allocate(16)
        addresses = {alloc.address([c], 0) for c in chunks}
        assert len(addresses) == 16

    @given(st.lists(st.integers(min_value=1, max_value=8), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_accounting_invariant(self, requests):
        """used + free == total after any alloc/free interleaving."""
        alloc = ChunkAllocator(256 * 512)
        held = []
        for count in requests:
            if alloc.free_chunks >= count:
                held.append(alloc.allocate(count))
            elif held:
                alloc.free(held.pop())
            assert alloc.used_chunks + alloc.free_chunks == alloc.total_chunks
        for chunks in held:
            alloc.free(chunks)
        assert alloc.used_chunks == 0


class TestVariableAllocator:
    def test_alloc_sizes(self):
        alloc = VariableAllocator(16 * 4096)
        for size in (512, 1024, 2048, 4096):
            base = alloc.allocate_region(size)
            assert alloc.owned()[base] * 512 == size

    def test_rejects_oversized(self):
        alloc = VariableAllocator(4 * 4096)
        with pytest.raises(ValueError):
            alloc.allocate_region(8192)

    def test_buddy_coalescing(self):
        alloc = VariableAllocator(4096)
        bases = [alloc.allocate_region(512) for _ in range(8)]
        assert alloc.largest_free_region() == 0
        for base in bases:
            alloc.free_region(base)
        # After freeing everything, buddies must re-coalesce to 4 KB.
        assert alloc.largest_free_region() == 4096
        assert alloc.used_chunks == 0

    def test_fragmentation_blocks_large_alloc(self):
        alloc = VariableAllocator(2 * 4096)
        smalls = [alloc.allocate_region(512) for _ in range(16)]
        # Free every other one: half the memory free but no 4 KB region.
        for base in smalls[::2]:
            alloc.free_region(base)
        assert alloc.free_chunks == 8
        assert alloc.largest_free_region() == 512
        with pytest.raises(OutOfMemoryError):
            alloc.allocate_region(4096)

    def test_double_free_rejected(self):
        alloc = VariableAllocator(4096)
        base = alloc.allocate_region(512)
        alloc.free_region(base)
        with pytest.raises(ValueError):
            alloc.free_region(base)

    def test_regions_do_not_overlap(self):
        alloc = VariableAllocator(8 * 4096)
        occupied = set()
        for size in (4096, 2048, 2048, 512, 512, 1024):
            base = alloc.allocate_region(size)
            span = set(range(base, base + size // 512))
            assert not span & occupied
            occupied |= span

    @given(st.lists(st.sampled_from([512, 1024, 2048, 4096]), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_buddy_invariant(self, sizes):
        """Allocate/free interleaving preserves chunk accounting."""
        alloc = VariableAllocator(32 * 4096)
        held = []
        for size in sizes:
            try:
                held.append(alloc.allocate_region(size))
            except OutOfMemoryError:
                if held:
                    alloc.free_region(held.pop(0))
            assert alloc.used_chunks + alloc.free_chunks == alloc.total_chunks
        for base in held:
            alloc.free_region(base)
        assert alloc.largest_free_region() == 4096


def _no_relief(chunks):
    raise AssertionError("relief requested while memory was free")


@pytest.fixture(params=[ChunkAllocator, VariableAllocator],
                ids=["chunks", "variable"])
def alloc(request):
    """One allocator per scheme over the same 16 pages of memory."""
    return request.param(16 * 4096)


class TestAllocatorContract:
    """The interface the controller, sanitizer and injector rely on."""

    def test_resize_grows_and_shrinks(self, alloc):
        mpfns = alloc.resize([], 0, alloc.round_up(3), _no_relief)
        assert alloc.used_chunks == alloc.round_up(3)
        assert len(mpfns) == (1 if alloc.contiguous else 3)
        grown = alloc.resize(mpfns, alloc.round_up(3), 8, _no_relief)
        assert alloc.used_chunks == 8
        shrunk = alloc.resize(grown, 8, 1, _no_relief)
        assert alloc.used_chunks == 1
        assert set(alloc.owned()) == set(shrunk)

    def test_resize_to_same_size_keeps_storage(self, alloc):
        mpfns = alloc.resize([], 0, 4, _no_relief)
        assert alloc.resize(list(mpfns), 4, 4, _no_relief) == mpfns
        assert alloc.used_chunks == 4

    def test_contiguous_resize_relocates(self, alloc):
        mpfns = alloc.resize([], 0, 2, _no_relief)
        moved = alloc.resize(list(mpfns), 2, 4, _no_relief)
        if alloc.contiguous:
            assert moved != mpfns and mpfns[0] not in alloc.owned()
        else:
            assert moved[:2] == mpfns

    def test_resize_to_zero_and_free(self, alloc):
        page_a = alloc.resize([], 0, 2, _no_relief)
        page_b = alloc.resize([], 0, 4, _no_relief)
        assert alloc.resize(page_a, 2, 0, _no_relief) == []
        alloc.free(page_b)
        assert alloc.used_chunks == 0 and alloc.owned() == {}
        with pytest.raises(ValueError):
            alloc.free(page_b)

    def test_relief_runs_once_then_the_grant_retries(self, alloc):
        pages = [alloc.resize([], 0, 8, _no_relief) for _ in range(16)]
        assert not alloc.can_allocate(1)
        asked = []

        def relieve(chunks):
            asked.append(chunks)
            alloc.free(pages.pop())

        assert alloc.resize([], 0, 4, relieve)
        assert asked == [4]
        with pytest.raises(OutOfMemoryError):
            alloc.resize([], 0, 8, lambda chunks: None)

    def test_can_allocate(self, alloc):
        assert alloc.can_allocate(8)
        assert not alloc.can_allocate(alloc.free_chunks + 1)

    def test_round_up(self, alloc):
        expected = ([1, 2, 4, 4, 8, 8, 8, 8] if alloc.contiguous
                    else [1, 2, 3, 4, 5, 6, 7, 8])
        assert [alloc.round_up(n) for n in range(1, 9)] == expected

    def test_owned_maps_mpfns_to_chunks(self, alloc):
        page_a = alloc.resize([], 0, 2, _no_relief)
        page_b = alloc.resize([], 0, 4, _no_relief)
        owned = alloc.owned()
        assert set(owned) == set(page_a) | set(page_b)
        assert sum(owned.values()) == alloc.used_chunks == 6

    def test_address(self, alloc):
        mpfns = alloc.resize([], 0, 4, _no_relief)
        for offset in (0, 100, 700, 2047):
            if alloc.contiguous:
                expected = mpfns[0] * 512 + offset
            else:
                expected = mpfns[offset // 512] * 512 + offset % 512
            assert alloc.address(mpfns, offset) == expected
        with pytest.raises(ValueError):
            alloc.address([], 0)
        if not alloc.contiguous:
            with pytest.raises(ValueError):
                alloc.address(mpfns, 4 * 512)
