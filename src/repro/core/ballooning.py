"""OS-transparent out-of-memory handling via ballooning (paper §V-B, Fig. 8).

When poorly-compressing data exhausts machine memory, prior systems
raise an exception to a compression-aware OS.  Compresso instead reuses
the memory-ballooning facility every modern OS already ships for
virtualization: a driver "inflates" by demanding pages from the OS
(which pages out cold data to satisfy it), then tells the hardware the
page numbers it got.  The controller marks those OSPA pages invalid —
they need no MPA storage — relieving the pressure with zero OS changes.

``BalloonDriver`` models that driver plus the slice of guest-OS paging
behaviour it relies on: the OS hands over free pages first, then cold
(least-recently-touched) pages, paying a page-out cost for dirty ones.
Its activity is counted in :class:`~repro.core.stats.ControllerStats`
(``balloon_*``) and traced as ``balloon_*`` events.
"""

from __future__ import annotations

from typing import List, Optional

from ..memory.allocator import OutOfMemoryError
from ..obs.tracer import NULL_TRACER


class BalloonDriver:
    """Compresso's balloon driver + the guest OS allocation behaviour.

    Every page the balloon takes from the OS is held (its hardware
    state invalidated, unless the controller is mid-operation on it)
    until :meth:`deflate` returns them all.

    Args:
        controller: the compressed-memory controller to relieve.
        os_pages: an object with ``take_free_page()`` returning a free
            OSPA page number or ``None``, and ``take_cold_page()``
            returning a (page, dirty) tuple or ``None`` — normally a
            :class:`repro.osmodel.vm.VirtualMemory`.
        safety_chunks: extra chunks to free beyond the immediate need,
            so the balloon is not re-entered on every allocation.
    """

    def __init__(self, controller, os_pages, safety_chunks: int = 64) -> None:
        self.controller = controller
        self.os_pages = os_pages
        self.safety_chunks = safety_chunks
        self._held_pages: List[int] = []
        controller.balloon = self

    @property
    def _tracer(self):
        """The controller's tracer (resolved per call, so a tracer
        attached after construction is still observed)."""
        return getattr(self.controller, "tracer", NULL_TRACER)

    def relieve(self, chunks_needed: int) -> None:
        """Free at least ``chunks_needed`` chunks of machine memory."""
        target = chunks_needed + self.safety_chunks
        freed = 0
        self.controller.stats.balloon_inflations += 1
        self._tracer.emit("balloon_inflation", chunks_needed=chunks_needed)
        while freed < target:
            page = self.os_pages.take_free_page()
            dirty = False
            if page is None:
                taken = self.os_pages.take_cold_page()
                if taken is None:
                    break
                page, dirty = taken
                if dirty:
                    self._tracer.emit("balloon_page_out", page=page)
            freed += self._reclaim(page)
        if freed < chunks_needed:
            raise OutOfMemoryError(
                f"balloon could not free {chunks_needed} chunks "
                f"(got {freed}); guest memory fully hot"
            )

    def deflate(self) -> List[int]:
        """Return every held page to the guest OS when pressure eases."""
        released, self._held_pages = self._held_pages, []
        if released:
            self._tracer.emit("balloon_deflate", extra=0,
                              pages=len(released))
        return released

    def _reclaim(self, page: int) -> int:
        """Invalidate one OSPA page in hardware; returns chunks freed."""
        self._held_pages.append(page)
        if page == getattr(self.controller, "_active_page", None):
            # The controller is mid-operation on this very page (the
            # balloon fired from inside its allocator); hold the page
            # for the OS but leave the hardware state untouched.
            return 0
        state = self.controller.pages.get(page)
        chunks = state.meta.size_chunks if state is not None else 0
        self.controller.free_page(page)
        self.controller.stats.balloon_pages_reclaimed += 1
        self._tracer.emit("balloon_reclaim", page=page, chunks=chunks)
        return chunks


class FreeListOSModel:
    """Minimal stand-in for the guest OS used in unit tests.

    Real experiments use :class:`repro.osmodel.vm.VirtualMemory`; this
    class serves the balloon from explicit lists.
    """

    def __init__(self, free_pages: List[int],
                 cold_pages: Optional[List[tuple]] = None) -> None:
        self._free = list(free_pages)
        self._cold = list(cold_pages or [])

    def take_free_page(self) -> Optional[int]:
        return self._free.pop(0) if self._free else None

    def take_cold_page(self) -> Optional[tuple]:
        return self._cold.pop(0) if self._cold else None
