"""Machine-physical-address (MPA) space allocators (paper §II-D, Fig. 1b).

Two schemes are compared in the paper:

* **Incremental fixed-size chunks** (Compresso's choice): a page is a
  set of up to eight 512-byte chunks, allocated one at a time.  Trivial
  free-list management, zero external fragmentation, but needs all 8
  MPFN pointers in metadata.
* **Variable-sized chunks**: a page is one contiguous region of
  512 B / 1 KB / 2 KB / 4 KB.  Fewer pointers, but resizing means a
  full relocation and the free space fragments.

Both allocators work in 512-byte chunk units over the same machine
memory and share one interface, so the controller, the sanitizer and
the fault injector never ask which scheme is in use.  A page's storage
is its metadata's MPFN list: every chunk for :class:`ChunkAllocator`,
the region's base chunk for :class:`VariableAllocator`.
:func:`allocator_for` builds the one a scheme name selects.

* ``resize(mpfns, current, chunks, relieve)`` grows or shrinks a page
  from ``current`` to ``chunks`` chunks and returns its new MPFN list;
  ``relieve(n)`` runs once when the grant fails, then the grant is
  retried;
* ``free(mpfns)`` releases a page's storage;
* ``can_allocate(n)`` says whether ``n`` chunks can be granted now;
* ``round_up(n)`` is the chunk count a request for ``n`` occupies;
* ``address(mpfns, offset)`` is the MPA byte address of ``offset``
  within the page;
* ``owned()`` maps every granted base chunk to its size in chunks;
* ``contiguous`` is True when a page is one region, so resizing it
  relocates the whole page.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..machine import CHUNK_BYTES, CHUNKS_PER_PAGE, PAGE_BYTES

#: Pressure-relief callback: asked to free this many chunks.
Relieve = Callable[[int], None]


class OutOfMemoryError(Exception):
    """Machine memory exhausted — the §V-B ballooning path must kick in."""


class ChunkAllocator:
    """Free-list allocator over fixed 512-byte chunks (Compresso)."""

    contiguous = False

    def __init__(self, memory_bytes: int) -> None:
        if memory_bytes % CHUNK_BYTES:
            raise ValueError("memory size must be a multiple of the chunk size")
        self.total_chunks = memory_bytes // CHUNK_BYTES
        # LIFO free list: reuse recently freed chunks for locality.
        self._free: List[int] = list(range(self.total_chunks - 1, -1, -1))
        self._allocated: set = set()
        # Chunks removed from circulation by seize() (fault injection).
        self._seized: set = set()

    def allocate(self, count: int = 1) -> List[int]:
        """Take ``count`` chunks (not necessarily contiguous)."""
        if count < 0:
            raise ValueError("cannot allocate a negative chunk count")
        if count > len(self._free):
            raise OutOfMemoryError(
                f"need {count} chunks, only {len(self._free)} free"
            )
        chunks = [self._free.pop() for _ in range(count)]
        self._allocated.update(chunks)
        return chunks

    def free(self, chunks) -> None:
        """Return chunks to the free list."""
        for chunk in chunks:
            if chunk not in self._allocated:
                raise ValueError(f"double free of chunk {chunk}")
            self._allocated.remove(chunk)
            self._free.append(chunk)

    @property
    def free_chunks(self) -> int:
        return len(self._free)

    @property
    def used_chunks(self) -> int:
        return len(self._allocated)

    @property
    def used_bytes(self) -> int:
        return self.used_chunks * CHUNK_BYTES

    def resize(self, mpfns: List[int], current: int, chunks: int,
               relieve: Relieve) -> List[int]:
        """Add or drop chunks at the end of ``mpfns``, in place."""
        if chunks > current:
            need = chunks - current
            try:
                granted = self.allocate(need)
            except OutOfMemoryError:
                relieve(need)
                granted = self.allocate(need)
            mpfns.extend(granted)
        elif chunks < current:
            self.free(mpfns[chunks:])
            del mpfns[chunks:]
        return mpfns

    def can_allocate(self, chunks: int) -> bool:
        return len(self._free) >= chunks

    def round_up(self, chunks: int) -> int:
        return chunks

    def address(self, mpfns: List[int], offset: int) -> int:
        index = offset // CHUNK_BYTES
        if index >= len(mpfns):
            raise ValueError(
                f"offset {offset} beyond allocation ({len(mpfns)} chunks)")
        return mpfns[index] * CHUNK_BYTES + offset % CHUNK_BYTES

    def owned(self) -> Dict[int, int]:
        # Iterates in frozenset order: the leak-reclaim sweep frees in
        # this order, and the free list's order decides later grants.
        return dict.fromkeys(frozenset(self._allocated), 1)

    # -- fault injection and self-check (docs/ROBUSTNESS.md) --------------

    def seize(self, count: int) -> List[int]:
        """Remove up to ``count`` chunks from circulation.

        The chunks leave the free list without entering the allocated
        set, modelling capacity lost to exhaustion faults: ownership
        reconciliation stays clean while the usable pool shrinks.
        :meth:`restore` returns them.
        """
        take = min(count, len(self._free))
        seized = [self._free.pop() for _ in range(take)]
        self._seized.update(seized)
        return seized

    def restore(self, chunks) -> None:
        """Return chunks taken by :meth:`seize` to the free list."""
        for chunk in chunks:
            if chunk not in self._seized:
                raise ValueError(f"chunk {chunk} was not seized")
            self._seized.remove(chunk)
            self._free.append(chunk)

    def inject_double_grant(self, chunk: int) -> None:
        """Fault injection: put an allocated chunk back on the free list.

        Models corrupted free-list state in which the same chunk can be
        granted to two pages.  Detected by :meth:`check_books` and
        repaired by :meth:`repair_books`.
        """
        if chunk not in self._allocated:
            raise ValueError(f"chunk {chunk} is not allocated")
        self._free.append(chunk)

    def check_books(self) -> List[str]:
        """Self-check the free/allocated books; return problem strings.

        Flags duplicate free-list entries, chunks that are simultaneously
        free and allocated (double-grant state), out-of-range ids, and —
        only when the books are otherwise clean — conservation failures
        (chunks tracked by no list).
        """
        problems: List[str] = []
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            problems.append(
                f"{len(self._free) - len(free_set)} duplicate free-list "
                f"entries")
        for chunk in sorted(free_set & self._allocated):
            problems.append(f"chunk {chunk} is both free and allocated")
        for chunk in sorted(free_set | self._allocated):
            if not 0 <= chunk < self.total_chunks:
                problems.append(f"chunk {chunk} is out of range")
        if not problems:
            covered = len(free_set) + len(self._allocated) + len(self._seized)
            if covered != self.total_chunks:
                problems.append(
                    f"books cover {covered} of {self.total_chunks} chunks")
        return problems

    def repair_books(self) -> int:
        """Drop free-list entries that are duplicated or still allocated.

        Returns the number of entries removed.  This is the recovery
        path for double-grant corruption: the allocated copy wins and
        the bogus free-list entry is discarded.
        """
        seen: set = set()
        kept: List[int] = []
        for chunk in self._free:
            if chunk in self._allocated or chunk in seen:
                continue
            seen.add(chunk)
            kept.append(chunk)
        repaired = len(self._free) - len(kept)
        self._free = kept
        return repaired


class VariableAllocator:
    """Contiguous variable-sized region allocator (the §II-D alternative).

    Implemented as a binary buddy allocator over 512 B..4 KB blocks,
    which is the sophistication the paper says this scheme demands.
    External fragmentation shows up as free chunks that cannot satisfy a
    large contiguous request.
    """

    contiguous = True

    def __init__(self, memory_bytes: int) -> None:
        if memory_bytes % PAGE_BYTES:
            raise ValueError("memory size must be a multiple of the page size")
        self.total_chunks = memory_bytes // CHUNK_BYTES
        self._orders = CHUNKS_PER_PAGE.bit_length() - 1  # 3: 512 B..4 KB
        # free lists per order: order o holds blocks of CHUNK_BYTES << o.
        self._free_lists: List[List[int]] = [[] for _ in range(self._orders + 1)]
        self._free_lists[self._orders] = list(
            range(0, self.total_chunks, CHUNKS_PER_PAGE)
        )
        self._allocated: Dict[int, int] = {}  # base chunk -> order
        # Blocks removed from circulation by seize() (fault injection).
        self._seized: Dict[int, int] = {}     # base chunk -> order

    def _order_for(self, size_bytes: int) -> int:
        if size_bytes <= 0 or size_bytes > PAGE_BYTES:
            raise ValueError(f"unsupported region size {size_bytes}")
        order = 0
        while (CHUNK_BYTES << order) < size_bytes:
            order += 1
        return order

    def allocate_region(self, size_bytes: int) -> int:
        """Allocate one contiguous region, returning its base chunk id."""
        order = self._order_for(size_bytes)
        chosen = None
        for o in range(order, self._orders + 1):
            if self._free_lists[o]:
                chosen = o
                break
        if chosen is None:
            raise OutOfMemoryError(
                f"no contiguous region of {size_bytes} B available "
                f"({self.free_chunks * CHUNK_BYTES} B free but fragmented)"
            )
        base = self._free_lists[chosen].pop()
        # Split down to the requested order, buddy-style.
        while chosen > order:
            chosen -= 1
            buddy = base + (1 << chosen)
            self._free_lists[chosen].append(buddy)
        self._allocated[base] = order
        return base

    def free_region(self, base: int) -> None:
        """Free a region and coalesce with free buddies."""
        if base not in self._allocated:
            raise ValueError(f"double free of region at chunk {base}")
        order = self._allocated.pop(base)
        while order < self._orders:
            buddy = base ^ (1 << order)
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].remove(buddy)
            base = min(base, buddy)
            order += 1
        self._free_lists[order].append(base)

    def resize(self, mpfns: List[int], current: int, chunks: int,
               relieve: Relieve) -> List[int]:
        """Relocate the page into a fresh region of ``chunks`` chunks.

        The new region is granted before the old one is freed, as a
        real relocation must copy between them.
        """
        if chunks == current and (chunks == 0 or mpfns):
            return mpfns
        granted: List[int] = []
        if chunks:
            size = chunks * CHUNK_BYTES
            try:
                granted.append(self.allocate_region(size))
            except OutOfMemoryError:
                relieve(chunks)
                granted.append(self.allocate_region(size))
        self.free(mpfns)
        return granted

    def free(self, mpfns) -> None:
        for base in mpfns:
            self.free_region(base)

    def can_allocate(self, chunks: int) -> bool:
        return self.largest_free_region() >= chunks * CHUNK_BYTES

    def round_up(self, chunks: int) -> int:
        """Regions come in power-of-two sizes (§II-D)."""
        size = 1
        while size < chunks:
            size *= 2
        return size

    def address(self, mpfns: List[int], offset: int) -> int:
        if not mpfns:
            raise ValueError("page has no region allocated")
        return mpfns[0] * CHUNK_BYTES + offset

    def owned(self) -> Dict[int, int]:
        return {base: 1 << order for base, order in self._allocated.items()}

    @property
    def free_chunks(self) -> int:
        return sum(
            len(blocks) << order
            for order, blocks in enumerate(self._free_lists)
        )

    @property
    def used_chunks(self) -> int:
        return self.total_chunks - self.free_chunks

    @property
    def used_bytes(self) -> int:
        return self.used_chunks * CHUNK_BYTES

    def largest_free_region(self) -> int:
        for order in range(self._orders, -1, -1):
            if self._free_lists[order]:
                return CHUNK_BYTES << order
        return 0

    # -- fault injection and self-check (docs/ROBUSTNESS.md) --------------

    def seize(self, count: int) -> List[int]:
        """Remove free blocks totalling up to ``count`` chunks.

        Small blocks go first so large contiguous regions are the last
        to disappear — exhaustion then also manifests as fragmentation,
        which is this allocator's §II-D failure mode.  Returns the base
        chunk ids of the seized blocks for :meth:`restore`.
        """
        seized: List[int] = []
        remaining = count
        for order in range(self._orders + 1):
            blocks = self._free_lists[order]
            while blocks and remaining > 0:
                base = blocks.pop()
                self._seized[base] = order
                seized.append(base)
                remaining -= 1 << order
            if remaining <= 0:
                break
        return seized

    def restore(self, bases) -> None:
        """Return blocks taken by :meth:`seize`, coalescing buddies."""
        for base in bases:
            if base not in self._seized:
                raise ValueError(f"region at chunk {base} was not seized")
            order = self._seized.pop(base)
            # Route through free_region so adjacent buddies re-coalesce.
            self._allocated[base] = order
            self.free_region(base)

    def inject_double_grant(self, base: int) -> None:
        """Fault injection: put an allocated region back on its free list.

        Detected by :meth:`check_books`, repaired by :meth:`repair_books`.
        """
        if base not in self._allocated:
            raise ValueError(f"region at chunk {base} is not allocated")
        self._free_lists[self._allocated[base]].append(base)

    def check_books(self) -> List[str]:
        """Self-check the buddy books; return problem strings.

        Walks every free, allocated and seized block and flags chunk
        ranges claimed twice (double-grant state, duplicate free-list
        entries, overlapping splits) plus, when otherwise clean,
        conservation failures.
        """
        problems: List[str] = []
        owner: Dict[int, str] = {}

        def claim(base: int, order: int, kind: str) -> None:
            for chunk in range(base, base + (1 << order)):
                if chunk in owner:
                    problems.append(
                        f"chunk {chunk} claimed by {kind} block at {base} "
                        f"and by {owner[chunk]}")
                    return
                owner[chunk] = f"{kind}@{base}"

        for order, blocks in enumerate(self._free_lists):
            for base in blocks:
                claim(base, order, "free")
        for base, order in self._allocated.items():
            claim(base, order, "allocated")
        for base, order in self._seized.items():
            claim(base, order, "seized")
        if not problems and len(owner) != self.total_chunks:
            problems.append(
                f"books cover {len(owner)} of {self.total_chunks} chunks")
        return problems

    def repair_books(self) -> int:
        """Drop free-list blocks overlapping allocated or seized regions.

        Returns the number of blocks removed (the allocated copy wins,
        mirroring :meth:`ChunkAllocator.repair_books`).
        """
        busy: set = set()
        for base, order in self._allocated.items():
            busy.update(range(base, base + (1 << order)))
        for base, order in self._seized.items():
            busy.update(range(base, base + (1 << order)))
        repaired = 0
        seen: set = set()
        for order, blocks in enumerate(self._free_lists):
            kept: List[int] = []
            for base in blocks:
                span = range(base, base + (1 << order))
                if (base, order) in seen or any(c in busy for c in span):
                    repaired += 1
                    continue
                seen.add((base, order))
                kept.append(base)
            self._free_lists[order] = kept
        return repaired


def allocator_for(allocation: str, memory_bytes: int):
    """The allocator of a :class:`~repro.core.config.CompressoConfig`'s
    ``allocation`` scheme: the one place that scheme is read."""
    if allocation == "chunks":
        return ChunkAllocator(memory_bytes)
    if allocation == "variable":
        return VariableAllocator(memory_bytes)
    raise ValueError(f"unknown allocation scheme {allocation!r}")
