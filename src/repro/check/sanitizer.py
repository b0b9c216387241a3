"""Memory-model sanitizer: shadow-state invariant checking.

Compresso's correctness rests on layout invariants the paper states
but code can silently violate.  The sanitizer re-derives every page's
layout from its metadata after each controller operation and verifies:

* **no-overlap** — packed line slots never overlap each other, and the
  inflation room sits strictly above the packed data (§II-C, §III);
* **bounds / bins** — every slot offset and size lies inside the page's
  allocation, and every slot size is one of the configured line bins
  (0/8/32/64 B for Compresso, §IV-B1);
* **layout-desync** — the controller's cached :class:`PageLayout`
  matches the layout re-derived from metadata bit fields (line bins +
  inflation pointers), so metadata and working state never drift;
* **inflation room** — pointer count within the 17-pointer budget, no
  duplicate pointers, and the room inside the allocation (§III);
* **allocator ownership** — the set of MPFNs referenced by page
  metadata (512 B chunks, or buddy-region bases) is exactly the set
  the allocator has granted: an MPFN referenced but free is a
  double-free in waiting, a granted MPFN no page references is a leak
  (§II-D);
* **data-desync** — each line's recorded ideal compressed size matches
  what the shadow payload actually compresses to, so bit flips in line
  data surface as a size disagreement (docs/ROBUSTNESS.md);
* **mdcache-desync** — every resident metadata-cache entry indexes its
  own page and its half/full shape matches the page's compressed state
  (§IV-B5);
* **alloc-books** — the allocator's own free/allocated books are
  coherent (no duplicate free-list entries, no chunk simultaneously
  free and allocated); checked on full sweeps only, since the free
  list is large.

Violations are recorded as :class:`InvariantViolation` objects and
reported through the observability tracer as ``sanitizer_violation``
events; pass ``raise_on_violation=True`` to fail fast in tests.

Enable via ``CompressedMemoryController(..., sanitize=True)``,
``SimulationConfig(sanitize=True)``, or ``python -m repro.analysis run
--sanitize`` (the run journal then records the sanitized run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine import (
    CHUNK_BYTES,
    CHUNKS_PER_PAGE,
    INFLATION_POINTERS,
    LINE_BYTES,
    LINES_PER_PAGE,
)
from ..obs.tracer import NULL_TRACER


class SanitizerError(AssertionError):
    """Raised on the first violation when ``raise_on_violation`` is set."""


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant violation."""

    invariant: str               # e.g. "line-overlap", "alloc-leak"
    page: Optional[int]          # OSPA page, when page-scoped
    detail: str

    def __str__(self) -> str:
        where = f"page {self.page}" if self.page is not None else "global"
        return f"[{self.invariant}] {where}: {self.detail}"


class MemorySanitizer:
    """Shadow-state checker for a ``CompressedMemoryController``.

    The sanitizer holds no authoritative state of its own: every check
    re-derives expectations from page metadata and compares them with
    the controller's working state and the allocator's books, so a
    corruption on either side surfaces as a disagreement.
    """

    def __init__(self, config, tracer=NULL_TRACER,
                 raise_on_violation: bool = False) -> None:
        self.config = config
        self.tracer = tracer
        self.raise_on_violation = raise_on_violation
        self.violations: List[InvariantViolation] = []
        self.checks = 0

    # -- entry points -----------------------------------------------------

    def after_op(self, controller, page: Optional[int] = None) -> None:
        """Verify the touched page plus global allocator accounting."""
        self.checks += 1
        if page is not None:
            state = controller.pages.get(page)
            if state is not None:
                self.check_page(controller, page, state)
        self.check_allocator(controller)
        self.check_metadata_cache(controller)

    def check_all(self, controller) -> None:
        """Full sweep: every resident page, then the allocator books."""
        self.checks += 1
        for page, state in controller.pages.items():
            self.check_page(controller, page, state)
        self.check_allocator(controller)
        self.check_metadata_cache(controller)
        self.check_allocator_books(controller)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    # -- page-scoped invariants -------------------------------------------

    def check_page(self, controller, page: int, state) -> None:
        meta = state.meta
        if not meta.valid or meta.zero:
            if meta.size_chunks or meta.mpfns:
                self._report("zero-page-storage", page,
                             f"invalid/zero page holds storage "
                             f"(size_chunks={meta.size_chunks})")
            return

        allocation = meta.size_chunks * CHUNK_BYTES
        self._check_metadata(controller, page, state, allocation)
        self._check_data(controller, page, state)
        if meta.compressed:
            self._check_layout(controller, page, state, allocation)
        else:
            self._check_uncompressed(page, state)

    def _check_data(self, controller, page: int, state) -> None:
        """Shadow payload vs recorded sizes (data-desync).

        Every line's ``ideal_sizes`` entry was computed from the line
        data when it was written; recomputing it must agree.  A bit
        flip in the shadow payload (or a corrupted size record) shows
        up as a disagreement.  Flips that leave the compressed size
        identical are outside this fault model (they would need ECC
        modelling, docs/ROBUSTNESS.md).
        """
        sizes = state.ideal_sizes
        for line, data in enumerate(state.data):
            expected = 0 if data is None else controller._sizes.size_bytes(data)
            if sizes[line] != expected:
                self._report("data-desync", page,
                             f"line {line} recorded size {sizes[line]} but "
                             f"its data compresses to {expected}")

    def _check_metadata(self, controller, page: int, state,
                        allocation: int) -> None:
        meta = state.meta
        config = self.config
        if meta.size_chunks < 0 or meta.size_chunks > CHUNKS_PER_PAGE:
            self._report("metadata-desync", page,
                         f"size_chunks out of range: {meta.size_chunks}")
        if len(meta.line_bins) != LINES_PER_PAGE:
            self._report("metadata-desync", page,
                         f"{len(meta.line_bins)} line bins for "
                         f"{LINES_PER_PAGE} lines")
        n_bins = len(config.line_bins)
        bad_bins = [b for b in meta.line_bins if b < 0 or b >= n_bins]
        if bad_bins:
            self._report("metadata-desync", page,
                         f"line bin index out of range: {bad_bins[:4]}")
        allocator = controller.allocator
        # A contiguous region is named by its base MPFN alone.
        expected = (min(meta.size_chunks, 1) if allocator.contiguous
                    else meta.size_chunks)
        if len(meta.mpfns) != expected:
            self._report("metadata-desync", page,
                         f"{len(meta.mpfns)} MPFNs for "
                         f"{meta.size_chunks} chunks")
        total = allocator.total_chunks
        for mpfn in meta.mpfns:
            if mpfn < 0 or mpfn >= total:
                self._report("metadata-desync", page,
                             f"MPFN {mpfn} outside machine memory "
                             f"({total} chunks)")

        inflated = meta.inflated_lines
        if len(inflated) > INFLATION_POINTERS:
            self._report("inflation-room", page,
                         f"{len(inflated)} inflated lines exceed "
                         f"{INFLATION_POINTERS} pointers (§III)")
        if len(set(inflated)) != len(inflated):
            self._report("inflation-room", page,
                         f"duplicate inflation pointers: {inflated}")
        out = [i for i in inflated
               if i < 0 or i >= LINES_PER_PAGE]
        if out:
            self._report("inflation-room", page,
                         f"inflation pointer to nonexistent line: {out}")

    def _check_layout(self, controller, page: int, state,
                      allocation: int) -> None:
        packer = controller.packer
        meta = state.meta
        try:
            derived = packer.layout_from_bins(meta.line_bins,
                                              meta.inflated_lines)
        except (ValueError, IndexError) as exc:
            self._report("metadata-desync", page,
                         f"metadata does not describe a layout: {exc}")
            return

        cached = state.layout
        if cached is not None and (
            cached.slot_offsets != derived.slot_offsets
            or cached.slot_sizes != derived.slot_sizes
            or tuple(cached.inflated_lines) != tuple(derived.inflated_lines)
        ):
            self._report("layout-desync", page,
                         "cached layout disagrees with metadata-derived "
                         "layout (bins/pointers drifted)")
        layout = cached if cached is not None else derived

        # Slot sizes must be legal bins; offsets/extent inside the
        # allocation (§IV-B1 bins, §II-D allocation).
        legal = set(packer.line_bins)
        slots = []
        for line, (offset, size) in enumerate(
                zip(layout.slot_offsets, layout.slot_sizes)):
            if size not in legal:
                self._report("bin-alignment", page,
                             f"line {line} slot size {size} is not one of "
                             f"the configured bins {sorted(legal)}")
            if size == 0 or line in layout.inflated_lines:
                continue
            if offset < 0 or offset + size > allocation:
                self._report("offset-bounds", page,
                             f"line {line} slot [{offset}, {offset + size}) "
                             f"outside the {allocation} B allocation")
            slots.append((offset, size, line))

        slots.sort()
        for (off_a, size_a, line_a), (off_b, _size_b, line_b) in zip(
                slots, slots[1:]):
            if off_a + size_a > off_b:
                self._report("line-overlap", page,
                             f"lines {line_a} and {line_b} overlap: "
                             f"[{off_a}, {off_a + size_a}) vs offset {off_b}")

        # Inflation room: above the packed data, inside the allocation,
        # 64 B-aligned so inflated lines never split (§III).
        if layout.inflated_lines:
            base = layout.inflation_base
            end = base + layout.inflation_bytes
            if base % LINE_BYTES:
                self._report("inflation-room", page,
                             f"inflation room base {base} not 64 B-aligned")
            if base < layout.data_bytes:
                self._report("inflation-room", page,
                             f"inflation room (base {base}) overlaps packed "
                             f"data ({layout.data_bytes} B)")
            if end > allocation:
                self._report("inflation-room", page,
                             f"inflation room [{base}, {end}) outside the "
                             f"{allocation} B allocation")
        elif layout.total_bytes > allocation:
            self._report("offset-bounds", page,
                         f"packed data ({layout.total_bytes} B) exceeds the "
                         f"{allocation} B allocation")

    def _check_uncompressed(self, page: int, state) -> None:
        config = self.config
        meta = state.meta
        if meta.size_chunks != CHUNKS_PER_PAGE:
            self._report("metadata-desync", page,
                         f"uncompressed page has {meta.size_chunks} chunks, "
                         f"expected {CHUNKS_PER_PAGE}")
        raw_bin = len(config.line_bins) - 1
        if any(b != raw_bin for b in meta.line_bins):
            self._report("metadata-desync", page,
                         "uncompressed page has non-raw line bins")
        if meta.inflated_lines:
            self._report("inflation-room", page,
                         "uncompressed page has inflation pointers")

    # -- allocator ownership (§II-D) --------------------------------------

    def check_allocator(self, controller) -> None:
        allocator = controller.allocator
        kind = "region" if allocator.contiguous else "chunk"
        owner: Dict[int, int] = {}
        for page, state in controller.pages.items():
            for mpfn in state.meta.mpfns:
                if mpfn in owner:
                    self._report("alloc-ownership", page,
                                 f"{kind} {mpfn} owned by both page "
                                 f"{owner[mpfn]} and page {page}")
                else:
                    owner[mpfn] = page
        granted = allocator.owned()
        for mpfn, page in owner.items():
            if mpfn not in granted:
                self._report("alloc-double-free", page,
                             f"page {page} references {kind} {mpfn} the "
                             f"allocator has already freed")
            elif allocator.contiguous:
                need = controller.pages[page].meta.size_chunks
                if granted[mpfn] < need:
                    self._report("alloc-ownership", page,
                                 f"region {mpfn} holds "
                                 f"{granted[mpfn] * CHUNK_BYTES} B but page "
                                 f"{page} needs {need * CHUNK_BYTES} B")
        leaked = set(granted) - set(owner)
        if leaked:
            self._report("alloc-leak", None,
                         f"{len(leaked)} {kind}(s) allocated but referenced "
                         f"by no page, e.g. {sorted(leaked)[:4]}")

    # -- metadata cache (§IV-B5) -------------------------------------------

    def check_metadata_cache(self, controller) -> None:
        """Resident metadata-cache entries mirror page state."""
        cache = controller.metadata_cache
        for key, entry in cache.entry_items():
            if entry.page != key:
                self._report("mdcache-desync", key,
                             f"entry indexed by page {key} claims page "
                             f"{entry.page}")
                continue
            state = controller.pages.get(key)
            if state is None:
                self._report("mdcache-desync", key,
                             "resident entry for a page with no state")
                continue
            expected = state.meta.is_uncompressed and cache.half_entries
            if entry.half != expected:
                self._report("mdcache-desync", key,
                             f"half={entry.half} entry but the page has "
                             f"is_uncompressed={state.meta.is_uncompressed}")

    # -- allocator self-books (docs/ROBUSTNESS.md) -------------------------

    def check_allocator_books(self, controller) -> None:
        """The allocator's own free/allocated books are coherent.

        Walks the whole free list, so this runs on full sweeps
        (:meth:`check_all`, flushes, scrubs) rather than per-op.
        """
        for problem in controller.allocator.check_books():
            self._report("alloc-books", None, problem)

    # -- reporting --------------------------------------------------------

    def _report(self, invariant: str, page: Optional[int],
                detail: str) -> None:
        violation = InvariantViolation(invariant, page, detail)
        self.violations.append(violation)
        self.tracer.emit("sanitizer_violation", page=page,
                         invariant=invariant, detail=detail)
        if self.raise_on_violation:
            raise SanitizerError(str(violation))
