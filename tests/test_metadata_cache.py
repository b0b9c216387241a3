"""Tests for the metadata cache and half-entry optimization (§IV-B5)."""

import pytest

from repro.core.metadata_cache import MetadataCache
from repro.obs import Tracer


def small_cache(**kwargs) -> MetadataCache:
    """2 sets x 4 ways, so eviction behaviour is easy to provoke."""
    defaults = dict(capacity_bytes=2 * 4 * 64, assoc=4, half_entries=True,
                    tracer=Tracer())
    defaults.update(kwargs)
    return MetadataCache(**defaults)


class TestBasics:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(10)
        assert cache.access(10)
        counts = cache.tracer.counts()
        assert counts["mdcache_hit"] == 1
        assert counts["mdcache_miss"] == 1

    def test_capacity_shape(self):
        cache = MetadataCache(96 * 1024, 8)
        assert cache.n_sets == 192
        assert cache.slots_per_set == 16

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MetadataCache(1000, 8)

    def test_lru_eviction_order(self):
        cache = small_cache()
        # Fill one set (pages congruent mod n_sets land together).
        pages = [0, 2, 4, 6]  # n_sets=2: all even pages share set 0
        for page in pages:
            cache.access(page)
        cache.access(0)          # 0 becomes MRU
        cache.access(8)          # evicts LRU = 2
        assert cache.contains(0)
        assert not cache.contains(2)

    def test_flush_evicts_all(self):
        evicted = []
        cache = small_cache(on_evict=lambda p, d: evicted.append(p))
        for page in range(6):
            cache.access(page)
        cache.flush()
        assert sorted(evicted) == list(range(6))
        assert not cache.resident_pages()

    def test_invalidate_skips_callback(self):
        evicted = []
        cache = small_cache(on_evict=lambda p, d: evicted.append(p))
        cache.access(5)
        cache.invalidate(5)
        assert not evicted
        assert not cache.contains(5)


class TestDirtyTracking:
    def test_dirty_eviction_reported(self):
        dirty_evictions = []
        cache = small_cache(on_evict=lambda p, d: dirty_evictions.append((p, d)))
        cache.access(0, make_dirty=True)
        for page in (2, 4, 6, 8):
            cache.access(page)
        assert (0, True) in dirty_evictions
        assert [e.args["dirty"] for e in cache.tracer.events
                if e.name == "mdcache_evict"].count(True) == 1

    def test_mark_dirty(self):
        cache = small_cache()
        cache.access(0)
        cache.mark_dirty(0)
        victims = []
        cache.on_evict = lambda p, d: victims.append((p, d))
        cache.flush()
        assert (0, True) in victims


class TestHalfEntries:
    def test_half_entries_double_capacity(self):
        """8 half entries fit where only 4 full entries would (§IV-B5)."""
        cache = small_cache()
        pages = [2 * i for i in range(8)]  # all in set 0
        for page in pages:
            cache.access(page, half=True)
        assert all(cache.contains(p) for p in pages)
        # A 9th half entry evicts exactly one.
        cache.access(16, half=True)
        resident = [p for p in pages if cache.contains(p)]
        assert len(resident) == 7

    def test_full_entry_costs_two_slots(self):
        cache = small_cache()
        for page in (0, 2, 4, 6, 8, 10, 12, 14):  # 8 halves = 8 slots
            cache.access(page, half=True)
        cache.access(16, half=False)  # needs 2 slots -> evicts 0 and 2
        assert not cache.contains(0)
        assert not cache.contains(2)
        assert cache.contains(16)

    def test_disabled_half_entries(self):
        cache = small_cache(half_entries=False)
        pages = [2 * i for i in range(5)]
        for page in pages:
            cache.access(page, half=True)
        # Without the optimization only 4 fit.
        assert sum(cache.contains(p) for p in pages) == 4

    def test_reshape_half_to_full_can_evict(self):
        cache = small_cache()
        pages = [2 * i for i in range(8)]
        for page in pages:
            cache.access(page, half=True)
        cache.reshape(0, half=False)
        assert cache.contains(0)
        # One other entry had to go to make room.
        assert sum(cache.contains(p) for p in pages) == 7

    def test_refill_reshapes_existing_entry(self):
        cache = small_cache()
        cache.access(0, half=True)
        cache.fill(0, half=False)
        # Fill the set with half entries: only 6 more fit (2+6*1=8).
        for page in (2, 4, 6, 8, 10, 12):
            cache.access(page, half=True)
        assert "mdcache_evict" not in cache.tracer.counts()
        cache.access(14, half=True)
        assert cache.tracer.counts()["mdcache_evict"] == 1
