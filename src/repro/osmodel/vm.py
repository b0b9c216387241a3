"""Guest OS virtual-memory bookkeeping (substrate for §V and §VI-A).

Tracks which OSPA pages the OS considers allocated, free, or cold —
the information the ballooning driver (§V-B) relies on: when the
balloon inflates, the guest hands over free pages first, then pages out
cold pages via its regular paging mechanism.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple


class VirtualMemory:
    """OS page-allocation state over the advertised OSPA space."""

    def __init__(self, total_pages: int) -> None:
        if total_pages <= 0:
            raise ValueError("need a positive page count")
        self.total_pages = total_pages
        self._free: List[int] = list(range(total_pages - 1, -1, -1))
        # Allocated pages in LRU order (oldest touch first); value=dirty.
        self._allocated: OrderedDict = OrderedDict()

    # -- normal OS operation ----------------------------------------------

    def allocate_page(self) -> int:
        """Allocate one OSPA page (e.g. on an application's first touch)."""
        if not self._free:
            raise MemoryError("OSPA space exhausted")
        page = self._free.pop()
        self._allocated[page] = False
        return page

    def free_page(self, page: int) -> None:
        if page not in self._allocated:
            raise ValueError(f"page {page} is not allocated")
        del self._allocated[page]
        self._free.append(page)

    def touch(self, page: int, dirty: bool = False) -> None:
        """Record an access: page becomes most-recently used."""
        if page not in self._allocated:
            raise ValueError(f"page {page} is not allocated")
        self._allocated[page] = self._allocated[page] or dirty
        self._allocated.move_to_end(page)

    @property
    def free_pages(self) -> int:
        return len(self._free)

    def is_allocated(self, page: int) -> bool:
        return page in self._allocated

    # -- balloon interface (§V-B) ------------------------------------------

    def take_free_page(self) -> Optional[int]:
        """Balloon demand served from the free list (cheap)."""
        if not self._free:
            return None
        return self._free.pop()

    def take_cold_page(self) -> Optional[Tuple[int, bool]]:
        """Balloon demand served by paging out the coldest page."""
        if not self._allocated:
            return None
        page, dirty = next(iter(self._allocated.items()))
        del self._allocated[page]
        return page, dirty
