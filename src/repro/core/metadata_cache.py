"""Metadata cache with the half-entry optimization (paper §III, §IV-B5).

Every LLC fill or writeback needs the page's 64-byte metadata entry.
A 96 KB, 8-way cache keeps hot entries; misses cost a DRAM access on
the critical path (the dominant residual overhead in Fig. 6).

The §IV-B5 optimization: for *uncompressed* pages all line sizes are
implicitly 64 B and there are no inflated lines, so only the first
32 bytes of the entry (flags + MPFNs) need caching.  Half-sized entries
double the effective capacity for incompressible working sets — the
cache therefore accounts capacity in 32-byte sub-slots: a full entry
costs 2 slots, a half entry costs 1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs.tracer import NULL_TRACER


@dataclass
class CacheEntry:
    """One resident metadata entry."""

    page: int
    half: bool = False        # half-entry (uncompressed page)?
    dirty: bool = False

    @property
    def slots(self) -> int:
        return 1 if self.half else 2


@dataclass
class MetadataCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    half_entries_filled: int = 0

    def hit_rate(self) -> Optional[float]:
        """Hit rate, or ``None`` when the cache was never probed."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else None


class MetadataCache:
    """Set-associative metadata cache, LRU within each set.

    ``capacity_bytes`` and ``assoc`` follow Tab. III (96 KB, 8-way,
    64-byte entries).  When ``half_entries`` is enabled, each way can
    hold two half entries, so capacity is managed in 32-byte slots.

    ``on_evict(page, dirty)`` fires for every eviction — Compresso uses
    it as the dynamic-repacking trigger (§IV-B4).
    """

    ENTRY_BYTES = 64

    def __init__(self, capacity_bytes: int = 96 * 1024, assoc: int = 8,
                 half_entries: bool = True,
                 on_evict: Optional[Callable[[int, bool], None]] = None,
                 tracer=NULL_TRACER) -> None:
        if capacity_bytes % (self.ENTRY_BYTES * assoc):
            raise ValueError("capacity must divide into assoc x 64 B sets")
        self.n_sets = capacity_bytes // (self.ENTRY_BYTES * assoc)
        self.assoc = assoc
        self.half_entries = half_entries
        self.slots_per_set = assoc * 2  # capacity in 32 B sub-slots
        self.on_evict = on_evict
        self.tracer = tracer
        self.stats = MetadataCacheStats()
        # Per set: OrderedDict page -> CacheEntry, LRU order (oldest first).
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]

    def _set_for(self, page: int) -> OrderedDict:
        return self._sets[page % self.n_sets]

    def lookup(self, page: int) -> bool:
        """Probe without filling. True on hit (entry becomes MRU)."""
        entries = self._set_for(page)
        if page in entries:
            entries.move_to_end(page)
            self.stats.hits += 1
            self.tracer.emit("mdcache_hit", page=page)
            return True
        self.stats.misses += 1
        self.tracer.emit("mdcache_miss", page=page)
        return False

    def fill(self, page: int, half: bool = False, dirty: bool = False) -> int:
        """Insert an entry after a miss; returns evictions performed."""
        half = half and self.half_entries
        entries = self._set_for(page)
        if page in entries:
            # Refill can change the entry's shape (page became compressed).
            existing = entries[page]
            existing.half = half
            existing.dirty = existing.dirty or dirty
            entries.move_to_end(page)
            return 0
        evictions = 0
        new_entry = CacheEntry(page=page, half=half, dirty=dirty)
        while self._used_slots(entries) + new_entry.slots > self.slots_per_set:
            evictions += self._evict_lru(entries)
        entries[page] = new_entry
        if half:
            self.stats.half_entries_filled += 1
            self.tracer.emit("mdcache_half_fill", page=page)
        return evictions

    def access(self, page: int, half: bool = False,
               make_dirty: bool = False) -> bool:
        """Combined probe+fill. Returns True on hit."""
        hit = self.lookup(page)
        if hit:
            if make_dirty:
                self._set_for(page)[page].dirty = True
        else:
            self.fill(page, half=half, dirty=make_dirty)
        return hit

    def mark_dirty(self, page: int) -> None:
        entries = self._set_for(page)
        if page in entries:
            entries[page].dirty = True

    def reshape(self, page: int, half: bool) -> None:
        """Change an entry between half and full form in place."""
        entries = self._set_for(page)
        entry = entries.get(page)
        if entry is None:
            return
        entry.half = half and self.half_entries
        # Growing a half entry to full may exceed set capacity.
        while self._used_slots(entries) > self.slots_per_set:
            self._evict_lru(entries, skip=page)

    def invalidate(self, page: int) -> None:
        """Drop an entry without the eviction callback (page freed)."""
        self._set_for(page).pop(page, None)

    def flush(self) -> None:
        """Evict everything (end of simulation), firing callbacks."""
        for entries in self._sets:
            while entries:
                self._evict_lru(entries)

    def contains(self, page: int) -> bool:
        return page in self._set_for(page)

    def resident_pages(self) -> List[int]:
        return [page for entries in self._sets for page in entries]

    def entry_items(self):
        """(index page, entry) pairs for every resident entry.

        Exposed for the memory-model sanitizer (entry/page coherence
        checks) and the fault injector (docs/ROBUSTNESS.md); the entry
        objects are the live ones, not copies.
        """
        return [(page, entry) for entries in self._sets
                for page, entry in entries.items()]

    @staticmethod
    def _used_slots(entries: OrderedDict) -> int:
        return sum(entry.slots for entry in entries.values())

    def _evict_lru(self, entries: OrderedDict, skip: Optional[int] = None) -> int:
        for page in entries:
            if page != skip:
                entry = entries.pop(page)
                self.stats.evictions += 1
                if entry.dirty:
                    self.stats.dirty_evictions += 1
                self.tracer.emit("mdcache_evict", page=entry.page,
                                 dirty=entry.dirty)
                if self.on_evict is not None:
                    self.on_evict(entry.page, entry.dirty)
                return 1
        raise RuntimeError("cannot evict: set holds only the protected entry")
