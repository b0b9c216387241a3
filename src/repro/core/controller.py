"""Compressed-memory controller: the OSPA→MPA layer (paper §III–§V).

``CompressedMemoryController`` models everything the paper puts in the
memory controller: per-page metadata and its cache, LinePack or LCP
packing, the inflation room with dynamic expansion, the page-overflow
predictor, dynamic repacking on metadata-cache eviction, zero-line
short cuts, burst prefetch, and — for OS-aware baselines — page faults
on page overflows.  One class covers Compresso, the LCP baseline and
LCP+Align; the :class:`~repro.core.config.CompressoConfig` selects the
behaviour (§VI-F builds all three from it).

The controller is *functionally* exact about layout: offsets, splits
and movement costs derive from real compressed sizes of real line data,
using the same arithmetic the hardware would.  Payload bytes are kept
in a per-page shadow (``PageState.data``) rather than serialized into a
byte array — the bit streams themselves are exercised and verified in
the compression package.

Construct with ``sanitize=True`` to attach the memory-model sanitizer
(:class:`repro.check.sanitizer.MemorySanitizer`, docs/LINTING.md),
which re-verifies the layout, inflation-room and allocator-ownership
invariants after every operation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..compression import BPCCompressor, SizeCache, is_zero_line
from ..machine import (
    CHUNK_BYTES,
    CHUNKS_PER_PAGE,
    COMPRESSION_CYCLES,
    DECOMPRESSION_CYCLES,
    INFLATION_POINTERS,
    LINE_BYTES,
    LINES_PER_PAGE,
    METADATA_HIT_CYCLES,
    PAGE_BYTES,
    chunks_for,
)
from ..memory.allocator import OutOfMemoryError, allocator_for
from ..memory.physical import MemoryGeometry
from ..memory.request import AccessCategory, AccessKind, AccessResult, MemAccess
from ..obs.tracer import NULL_TRACER
from .config import CompressoConfig
from .lcp import LCPPack
from .linepack import LinePack
from .metadata import PageMetadata
from .metadata_cache import MetadataCache
from .packing import PageLayout
from .predictor import PageOverflowPredictor
from .stats import ControllerStats


@dataclass
class PageState:
    """Runtime state of one OSPA page."""

    meta: PageMetadata
    data: List[Optional[bytes]]          # None = logically zero line
    ideal_sizes: List[int]               # fresh compressed size per line
    layout: Optional[PageLayout] = None  # cached, derived from meta
    #: Set when the overflow predictor stored this page uncompressed;
    #: grants one eviction generation of repacking hysteresis so
    #: prediction and repacking do not ping-pong a streaming page.
    predictor_inflated: bool = False

    @property
    def allocation_bytes(self) -> int:
        return self.meta.size_chunks * CHUNK_BYTES


class CompressedMemoryController:
    """OSPA→MPA translation and compressed data management."""

    def __init__(self, config: CompressoConfig, geometry: MemoryGeometry,
                 burst_buffer_blocks: int = 16, tracer=NULL_TRACER,
                 sanitize=False) -> None:
        self.config = config
        self.geometry = geometry
        self.tracer = tracer
        self.allocator = allocator_for(config.allocation, geometry.data_bytes)
        self._sizes = SizeCache(BPCCompressor())
        packing = LinePack if config.packing == "linepack" else LCPPack
        self.packer = packing(config.line_bins)
        self.predictor = PageOverflowPredictor(
            config.enable_overflow_prediction, tracer=tracer
        )
        self.metadata_cache = MetadataCache(
            config.metadata_cache_bytes,
            half_entries=config.enable_metadata_half_entries,
            on_evict=self._on_metadata_evict,
            tracer=tracer,
        )
        self.stats = ControllerStats()
        self.pages: Dict[int, PageState] = {}
        self.balloon = None  # attached by core.ballooning.BalloonDriver
        # Recently fetched (page, block-in-page) pairs: models the free
        # prefetch of neighbouring compressed lines in one burst (§VII-A).
        self._burst_buffer: OrderedDict = OrderedDict()
        self._burst_capacity = burst_buffer_blocks
        self._pending: List[MemAccess] = []
        #: OSPA page of the in-flight operation: the balloon must not
        #: reclaim the page the controller is currently operating on.
        self._active_page: Optional[int] = None
        #: Shadow-state invariant checker (docs/LINTING.md): verifies
        #: layout, inflation-room and allocator-ownership invariants
        #: after every operation when enabled.  Beyond plain True,
        #: ``sanitize`` accepts two modes (docs/ROBUSTNESS.md):
        #: ``"strict"`` raises :class:`SanitizerError` on the first
        #: violation; ``"recover"`` repairs detected corruption via the
        #: decompress-and-mark-uncompressed fallback instead of only
        #: tracing it.
        if sanitize not in (False, True, "strict", "recover"):
            raise ValueError(f"unknown sanitize mode: {sanitize!r}")
        self.recover_mode = sanitize == "recover"
        if sanitize:
            from ..check.sanitizer import MemorySanitizer
            self.sanitizer: Optional[MemorySanitizer] = MemorySanitizer(
                config, tracer=tracer,
                raise_on_violation=sanitize == "strict")
        else:
            self.sanitizer = None
        self._violation_cursor = 0
        self._recovering = False
        #: Degraded mode (docs/ROBUSTNESS.md): entered when machine
        #: memory stays exhausted after ballooning and an emergency
        #: repack sweep.  While set, new compression growth is denied
        #: (pages park unbacked, shadow data intact) instead of the
        #: controller raising; frees restore headroom and exit it.
        self.degraded_mode = False
        #: Tracer clock at the last ``degraded_enter`` (None outside
        #: degraded mode).  The pressure watchdog (repro.pressure,
        #: docs/PRESSURE.md) bounds the dwell time ``clock -
        #: degraded_since`` and escalates when it is exceeded.
        self.degraded_since: Optional[int] = None
        self._in_emergency_repack = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def read_line(self, page: int, line: int) -> AccessResult:
        """LLC fill: fetch one 64-byte line."""
        self._check_address(page, line)
        self._active_page = page
        result = AccessResult()
        self.stats.demand_reads += 1
        self.tracer.tick()
        state = self._page(page)

        self._metadata_access(page, state, result, for_write=False)
        data = state.data[line]
        result.data = data if data is not None else bytes(LINE_BYTES)

        meta = state.meta
        if not meta.valid or meta.zero:
            self.stats.zero_line_reads += 1
            self.tracer.emit("zero_line_read", page=page)
            result.served_by_metadata = True
            return self._finish(result)

        if not meta.compressed:
            address = self._mpa_address(state, line * LINE_BYTES)
            result.accesses.append(
                MemAccess(AccessKind.READ, AccessCategory.DEMAND, address)
            )
            return self._finish(result)

        location = self._layout(state).locate(line)
        if location.size == 0:
            # Zero-size slot: the line is known zero from metadata alone.
            self.stats.zero_line_reads += 1
            self.tracer.emit("zero_line_read", page=page)
            result.served_by_metadata = True
            return self._finish(result)

        result.controller_cycles += self.packer.offset_calc_cycles
        result.controller_cycles += DECOMPRESSION_CYCLES
        blocks = self._blocks_for(state, location.offset, location.size)
        if all((page, block) in self._burst_buffer for block in blocks):
            self.stats.prefetch_hits += 1
            self.tracer.emit("prefetch_hit", page=page)
            result.prefetch_hit = True
            return self._finish(result)

        for index, block in enumerate(blocks):
            category = AccessCategory.DEMAND if index == 0 else AccessCategory.SPLIT
            result.accesses.append(
                MemAccess(AccessKind.READ, category,
                          self._mpa_address(state, block * LINE_BYTES))
            )
            self._remember_block(page, block)
        if len(blocks) > 1:
            self.stats.split_accesses += len(blocks) - 1
            self.tracer.emit("split_access", page=page, extra=len(blocks) - 1)
        return self._finish(result)

    def write_line(self, page: int, line: int, data: bytes) -> AccessResult:
        """LLC writeback: store one 64-byte line."""
        self._check_address(page, line)
        if len(data) != LINE_BYTES:
            raise ValueError(f"expected {LINE_BYTES}-byte line")
        self._active_page = page
        result = AccessResult()
        self.stats.demand_writes += 1
        self.tracer.tick()
        state = self._page(page)

        self._metadata_access(page, state, result, for_write=True)
        zero = is_zero_line(data)
        new_size = 0 if zero else self._sizes.size_bytes(data)
        old_ideal_bin = self.packer.bin_index(state.ideal_sizes[line])
        new_ideal_bin = self.packer.bin_index(new_size)
        state.data[line] = None if zero else bytes(data)
        state.ideal_sizes[line] = new_size
        self._invalidate_burst(page)
        if new_ideal_bin != old_ideal_bin:
            # The encoded size / free-space counter changed (§IV-B4).
            self.metadata_cache.mark_dirty(page)

        try:
            return self._write_line_dispatch(page, line, state, result, zero,
                                             new_size, old_ideal_bin,
                                             new_ideal_bin)
        except OutOfMemoryError:
            # Allocation denied even after pressure relief: degrade
            # gracefully instead of surfacing the error — the shadow
            # payload was already updated above, so reads stay correct
            # and a later write retries via first touch.
            self._deny_allocation(page, state)
            return self._finish(result)

    def _write_line_dispatch(self, page: int, line: int, state: PageState,
                             result: AccessResult, zero: bool, new_size: int,
                             old_ideal_bin: int,
                             new_ideal_bin: int) -> AccessResult:
        """Writeback handling after the shadow payload is updated.

        Separated from :meth:`write_line` so every allocating path
        (first touch, IR expansion, recompression, shift-grow,
        store-uncompressed) sits under one ``OutOfMemoryError`` guard.
        """
        meta = state.meta
        if not meta.valid or meta.zero:
            if zero:
                self.stats.zero_line_writes += 1
                self.tracer.emit("zero_line_write", page=page)
                result.served_by_metadata = True
                return self._finish(result)
            self._first_touch(page, state, result)
            return self._finish(result)

        if not meta.compressed:
            if new_ideal_bin < old_ideal_bin:
                self.stats.line_underflows += 1
                self.tracer.emit("line_underflow", page=page)
                self.predictor.on_line_underflow(page)
            address = self._mpa_address(state, line * LINE_BYTES)
            result.accesses.append(
                MemAccess(AccessKind.WRITE, AccessCategory.DEMAND, address,
                          critical=False)
            )
            return self._finish(result)

        # Compressed page.
        location = self._layout(state).locate(line)
        if location.inflated:
            # Already in the inflation room: 64 B raw slot always fits.
            if new_ideal_bin < old_ideal_bin:
                self.stats.line_underflows += 1
                self.tracer.emit("line_underflow", page=page)
                self.predictor.on_line_underflow(page)
            self._write_blocks(state, result, location.offset, LINE_BYTES,
                               AccessCategory.DEMAND)
            return self._finish(result)

        if zero and location.size == 0:
            self.stats.zero_line_writes += 1
            self.tracer.emit("zero_line_write", page=page)
            result.served_by_metadata = True
            return self._finish(result)

        new_bin = self.packer.bin_index(new_size)
        slot_bin = meta.line_bins[line]
        if self.packer.bin_bytes(new_bin) <= location.size:
            if new_ideal_bin < old_ideal_bin:
                self.stats.line_underflows += 1
                self.tracer.emit("line_underflow", page=page)
                self.predictor.on_line_underflow(page)
            if zero:
                # All-zero writeback: metadata alone records it (§VII-A).
                self.stats.zero_line_writes += 1
                self.tracer.emit("zero_line_write", page=page)
                result.served_by_metadata = True
                return self._finish(result)
            result.controller_cycles += COMPRESSION_CYCLES
            self._write_blocks(state, result, location.offset,
                               self.packer.bin_bytes(new_bin),
                               AccessCategory.DEMAND)
            return self._finish(result)

        # Line overflow (§IV, Fig. 1c).  The predictor watches for
        # *incompressible* streams specifically (zero-initialized pages
        # being overwritten with raw data, §IV-B2); a line merely
        # growing into a compressed bin is normal warm-up.
        self.stats.line_overflows += 1
        self.tracer.emit("line_overflow", page=page)
        incompressible = new_bin == len(self.config.line_bins) - 1
        if incompressible:
            self.predictor.on_line_overflow(page)
        result.controller_cycles += COMPRESSION_CYCLES
        self._handle_line_overflow(page, state, line, result, incompressible)
        return self._finish(result)

    def install_page(self, page: int, lines) -> None:
        """Warm-boot install: place a page's contents without counting stats.

        Experiments start from a CompressPoint, i.e. mid-execution with
        memory already populated (§VI-B); this models the data having
        been written long before the measured region.
        """
        self._check_address(page, 0)
        if len(lines) != LINES_PER_PAGE:
            raise ValueError(f"expected {LINES_PER_PAGE} lines")
        state = self._page(page)
        if state.meta.valid:
            raise ValueError(f"page {page} already installed")
        sizes = []
        for line in lines:
            if is_zero_line(line):
                sizes.append(0)
            else:
                sizes.append(self._sizes.size_bytes(bytes(line)))
        if all(size == 0 for size in sizes):
            return  # stays a zero page
        state.data = [
            None if size == 0 else bytes(line)
            for line, size in zip(lines, sizes)
        ]
        state.ideal_sizes = sizes
        meta = state.meta
        meta.valid = True
        meta.zero = False
        layout = self._best_layout(sizes)
        chunks = self._alloc_chunks_for_layout(layout)
        try:
            if self._should_store_raw(layout, chunks):
                # No compression benefit: store the page uncompressed, so
                # reads skip decompression and the metadata cache can use
                # a half entry.
                self._mark_raw(state)
            else:
                meta.compressed = True
                self._apply_layout(state, layout)
                self._allocate(state, chunks)
        except OutOfMemoryError:
            # Machine memory exhausted: park the page unbacked instead of
            # failing the install (docs/ROBUSTNESS.md degraded mode).
            self._deny_allocation(page, state)
        self._sanitize_op(page)

    def compression_ratio(self) -> float:
        """Effective compression: OSPA bytes stored / MPA bytes used."""
        stored = used = 0
        for state in self.pages.values():
            if not state.meta.valid:
                continue
            stored += PAGE_BYTES
            used += state.allocation_bytes
        if used == 0:
            return float("inf") if stored else 1.0
        return stored / used

    def flush_metadata(self) -> List[MemAccess]:
        """Flush the metadata cache (fires repack triggers); returns traffic."""
        self.metadata_cache.flush()
        pending, self._pending = self._pending, []
        self._sanitize_all()
        return pending

    def free_page(self, page: int) -> None:
        """Invalidate an OSPA page and release its storage (balloon path)."""
        state = self.pages.get(page)
        if state is None or not state.meta.valid:
            return
        self._release_storage(state)
        self.metadata_cache.invalidate(page)
        self.predictor.drop_page(page)
        self.pages.pop(page, None)
        self._maybe_exit_degraded()
        self._sanitize_op(None)

    # ------------------------------------------------------------------
    # metadata path
    # ------------------------------------------------------------------

    def _page(self, page: int) -> PageState:
        state = self.pages.get(page)
        if state is None:
            meta = PageMetadata(
                valid=False, zero=True, compressed=True, size_chunks=0,
                mpfns=[], line_bins=[0] * LINES_PER_PAGE, inflated_lines=[],
            )
            state = PageState(
                meta=meta, data=[None] * LINES_PER_PAGE,
                ideal_sizes=[0] * LINES_PER_PAGE
            )
            self.pages[page] = state
        return state

    def _metadata_access(self, page: int, state: PageState,
                         result: AccessResult, for_write: bool) -> None:
        # Entries are dirtied only when the metadata actually changes
        # (bin updates, inflation, page transitions) — see _touch_meta.
        half = state.meta.is_uncompressed
        hit = self.metadata_cache.access(page, half=half, make_dirty=False)
        if hit:
            self.stats.metadata_hits += 1
            self.tracer.emit("metadata_hit", page=page)
            result.controller_cycles += METADATA_HIT_CYCLES
        else:
            self.stats.metadata_misses += 1
            self.stats.metadata_miss_accesses += 1
            self.tracer.emit("metadata_miss", page=page, extra=1)
            critical = not (self.config.speculative_access and not for_write)
            result.accesses.append(
                MemAccess(AccessKind.READ, AccessCategory.METADATA,
                          self.geometry.metadata_address(page), critical=critical)
            )
            if self.config.speculative_access and not for_write:
                self._speculate(page, state, result)

    def _speculate(self, page: int, state: PageState,
                   result: AccessResult) -> None:
        """LCP's speculative read in parallel with a metadata miss (§II-C).

        The speculative access assumes the line is *not* an exception;
        if it is, the access is wasted.  Modeled as: the metadata fetch
        leaves the critical path (the parallel data access covers it),
        and exceptions cost one extra wasted access.
        """
        meta = state.meta
        if not meta.valid or meta.zero or not meta.compressed:
            return
        if meta.inflated_lines:
            self.stats.speculation_wasted_accesses += 1
            self.tracer.emit("speculation_wasted", page=page, extra=1)
            address = self._mpa_address(state, 0)
            result.accesses.append(
                MemAccess(AccessKind.READ, AccessCategory.SPECULATIVE, address,
                          critical=False)
            )

    def _on_metadata_evict(self, page: int, dirty: bool) -> None:
        state = self.pages.get(page)
        if dirty:
            self.stats.metadata_writebacks += 1
            self.tracer.emit("metadata_writeback", page=page, extra=1)
            self._pending.append(
                MemAccess(AccessKind.WRITE, AccessCategory.METADATA,
                          self.geometry.metadata_address(page), critical=False)
            )
        # The evicted entry's local overflow counter is consulted before
        # it disappears: a page still streaming incompressible data must
        # not be repacked yet, or prediction and repacking would ping-pong
        # the page between compressed and uncompressed forms.
        streaming = self.predictor.enabled and (
            self.predictor.local_value(page) >= 2
            or (state is not None and not state.meta.compressed
                and state.meta.valid
                and self.predictor.global_value >= 4)
        )
        self.predictor.drop_page(page)
        if state is None or not self.config.enable_repacking or streaming:
            return
        if state.predictor_inflated:
            # One generation of hysteresis after a predictor inflation.
            state.predictor_inflated = False
            return
        self._maybe_repack(page, state)

    # ------------------------------------------------------------------
    # allocation / layout helpers
    # ------------------------------------------------------------------

    def _layout(self, state: PageState) -> PageLayout:
        if state.layout is None:
            state.layout = self.packer.layout_from_bins(
                state.meta.line_bins, state.meta.inflated_lines
            )
        return state.layout

    def _alloc_chunks_for_layout(self, layout: PageLayout) -> int:
        """Chunks to allocate for a fresh layout.

        Exception/inflation headroom is whatever slack the allocation
        quantum leaves above ``total_bytes`` — pre-reserving extra slots
        would push boundary-sitting pages a whole size class up and
        squander compression, so growth is handled by the overflow
        machinery instead (inflation room, Dynamic IR Expansion, or an
        LCP page overflow).
        """
        return self.allocator.round_up(chunks_for(layout.total_bytes))

    def _best_layout(self, sizes) -> PageLayout:
        """Pack fresh sizes, minimizing the *allocated* footprint.

        For LCP this prefers the target that leaves exception headroom
        inside the size class over one that sits exactly on a class
        boundary (where the first exception would force a relocation).
        """
        return min(
            self.packer.pack_candidates(sizes),
            key=lambda layout: (
                self._alloc_chunks_for_layout(layout),
                layout.total_bytes,
            ),
        )

    def _check_address(self, page: int, line: int) -> None:
        if page < 0 or page >= self.geometry.ospa_pages:
            raise ValueError(f"OSPA page {page} out of range")
        if line < 0 or line >= LINES_PER_PAGE:
            raise ValueError(f"line {line} out of range")

    def _allocate(self, state: PageState, chunks: int) -> None:
        """(Re)allocate a page's storage to exactly ``chunks`` chunks."""
        meta = state.meta
        meta.mpfns = self.allocator.resize(meta.mpfns, meta.size_chunks,
                                           chunks, self._relieve_pressure)
        meta.size_chunks = chunks

    def _relieve_pressure(self, chunks_needed: int) -> None:
        """Out of machine memory: balloon (§V-B), emergency-repack, or
        enter degraded mode and deny the request (docs/ROBUSTNESS.md)."""
        if self._in_emergency_repack:
            # A repack relocation under pressure must not recurse into
            # the relief machinery; the repack aborts cleanly instead.
            raise OutOfMemoryError(
                f"allocation pressure during emergency repack "
                f"({chunks_needed} chunks)"
            )
        if self.degraded_mode:
            # Already degraded: deny further compression growth without
            # re-running the relief machinery on every request.
            raise OutOfMemoryError(
                f"degraded mode: {chunks_needed} chunks denied"
            )
        if self.balloon is not None:
            try:
                self.balloon.relieve(chunks_needed)
                return
            except OutOfMemoryError:
                pass  # balloon came up short: try the repack sweep
        if self._emergency_repack(chunks_needed):
            return
        self._enter_degraded_mode(chunks_needed)
        raise OutOfMemoryError(
            f"machine memory exhausted ({chunks_needed} chunks needed); "
            "entering degraded mode"
        )

    def _emergency_repack(self, chunks_needed: int) -> bool:
        """Sweep resident pages with the §IV-B4 repacker to free space.

        Runs when the balloon is absent or came up short; returns True
        once the allocator can satisfy the request.  Guarded against
        recursion: repack relocations that themselves hit the wall
        abort instead of re-entering the sweep.
        """
        if self._in_emergency_repack:
            return False
        self._in_emergency_repack = True
        try:
            swept = 0
            for page, state in list(self.pages.items()):
                if page == self._active_page or not state.meta.valid:
                    continue
                if self._maybe_repack(page, state):
                    swept += 1
                    if self.allocator.can_allocate(chunks_needed):
                        break
            if swept:
                self.stats.emergency_repacks += 1
                self.tracer.emit("emergency_repack", pages=swept,
                                 chunks_needed=chunks_needed)
            return self.allocator.can_allocate(chunks_needed)
        finally:
            self._in_emergency_repack = False

    def _enter_degraded_mode(self, chunks_needed: int) -> None:
        """Pool dry even after relief: start denying new compression."""
        if self.degraded_mode:
            return
        self.degraded_mode = True
        self.degraded_since = self.tracer.clock
        self.stats.alloc_exhaustions += 1
        self.tracer.emit("degraded_enter", chunks_needed=chunks_needed)

    def _maybe_exit_degraded(self) -> None:
        """Leave degraded mode once frees restore page-sized headroom."""
        if not self.degraded_mode:
            return
        if not self.allocator.can_allocate(CHUNKS_PER_PAGE):
            return
        self.degraded_mode = False
        self.degraded_since = None
        self.stats.degraded_exits += 1
        self.tracer.emit("degraded_exit")

    def _deny_allocation(self, page: int, state: PageState) -> None:
        """Deny a storage request: park the page unbacked.

        The shadow payload and its sizes survive, so reads still return
        correct data (served via the zero/invalid metadata path) and a
        later write retries the allocation through first touch.  Only
        storage the corrupt-or-denied metadata provably owns is freed.
        """
        self._defensive_release(page, state)
        self._clear_to_zero(state)
        self.metadata_cache.invalidate(page)
        self.predictor.drop_page(page)
        self.stats.alloc_denials += 1
        self.tracer.emit("alloc_denied", page=page)

    def _release_storage(self, state: PageState) -> None:
        if state.meta.mpfns:
            self.allocator.free(state.meta.mpfns)
        state.meta.mpfns = []
        state.meta.size_chunks = 0
        self._clear_to_zero(state)

    def _clear_to_zero(self, state: PageState, valid: bool = False) -> None:
        """Lay the page out as the all-zero page (storage untouched)."""
        meta = state.meta
        meta.valid = valid
        meta.zero = True
        meta.compressed = True
        meta.line_bins = [0] * LINES_PER_PAGE
        meta.inflated_lines = []
        state.layout = None

    def _mark_raw(self, state: PageState) -> None:
        """Lay the page out uncompressed over a full-page allocation."""
        meta = state.meta
        meta.compressed = False
        raw_bin = len(self.config.line_bins) - 1
        meta.line_bins = [raw_bin] * LINES_PER_PAGE
        meta.inflated_lines = []
        state.layout = None
        self._allocate(state, CHUNKS_PER_PAGE)

    def _mpa_address(self, state: PageState, offset: int) -> int:
        """MPA byte address of ``offset`` within the page's allocation."""
        return self.allocator.address(state.meta.mpfns, offset)

    def _blocks_for(self, state: PageState, offset: int, size: int) -> List[int]:
        """64-byte block indices (within the page allocation) of a range."""
        if size <= 0:
            return []
        first = offset // LINE_BYTES
        last = (offset + size - 1) // LINE_BYTES
        return list(range(first, last + 1))

    def _write_blocks(self, state: PageState, result: AccessResult,
                      offset: int, size: int,
                      category: AccessCategory) -> None:
        blocks = self._blocks_for(state, offset, size)
        for index, block in enumerate(blocks):
            if index > 0 and category is AccessCategory.DEMAND:
                self.stats.split_accesses += 1
                self.tracer.emit("split_access", extra=1)
                block_category = AccessCategory.SPLIT
            else:
                block_category = category
            result.accesses.append(
                MemAccess(AccessKind.WRITE, block_category,
                          self._mpa_address(state, block * LINE_BYTES),
                          critical=False)
            )

    def _remember_block(self, page: int, block: int) -> None:
        key = (page, block)
        self._burst_buffer[key] = True
        self._burst_buffer.move_to_end(key)
        while len(self._burst_buffer) > self._burst_capacity:
            self._burst_buffer.popitem(last=False)

    def _invalidate_burst(self, page: int) -> None:
        stale = [key for key in self._burst_buffer if key[0] == page]
        for key in stale:
            del self._burst_buffer[key]

    # ------------------------------------------------------------------
    # write-path events
    # ------------------------------------------------------------------

    def _first_touch(self, page: int, state: PageState,
                     result: AccessResult) -> None:
        """First non-zero write maps the OSPA page in MPA (§III)."""
        meta = state.meta
        meta.valid = True
        meta.zero = False
        self.metadata_cache.mark_dirty(page)
        if self.predictor.should_inflate(page):
            self._store_uncompressed(page, state, result, moved_lines=0)
            self.stats.predictor_inflations += 1
            self.tracer.emit("predictor_inflation", page=page)
        else:
            meta.compressed = True
            layout = self._best_layout(state.ideal_sizes)
            self._apply_layout(state, layout)
            self._allocate(state, self._alloc_chunks_for_layout(layout))
        self.metadata_cache.reshape(page, half=meta.is_uncompressed)
        line = next(
            i for i, size in enumerate(state.ideal_sizes) if size > 0
        )
        location = self._layout(state).locate(line)
        size = location.size if meta.compressed else LINE_BYTES
        self._write_blocks(state, result, location.offset, max(size, 1),
                           AccessCategory.DEMAND)

    def _handle_line_overflow(self, page: int, state: PageState, line: int,
                              result: AccessResult,
                              incompressible: bool = True) -> None:
        meta = state.meta
        config = self.config
        self.metadata_cache.mark_dirty(page)

        # 1. Predictor says this page is streaming incompressible data:
        #    jump straight to uncompressed (§IV-B2).
        if incompressible and self.predictor.should_inflate(page):
            moved = self._page_data_blocks(state)
            self._store_uncompressed(page, state, result, moved_lines=moved)
            self.stats.predictor_inflations += 1
            self.tracer.emit("predictor_inflation", page=page)
            state.predictor_inflated = True
            self._page_overflow(page)
            address = self._mpa_address(state, line * LINE_BYTES)
            result.accesses.append(
                MemAccess(AccessKind.WRITE, AccessCategory.DEMAND, address,
                          critical=False)
            )
            return

        # 2. Inflation room with free space and a free pointer (§III).
        layout = self._layout(state)
        room_for_one = layout.inflation_base + layout.inflation_bytes + LINE_BYTES
        if (
            len(meta.inflated_lines) < INFLATION_POINTERS
            and room_for_one <= state.allocation_bytes
        ):
            self._inflate_line(state, line)
            location = self._layout(state).locate(line)
            self._write_blocks(state, result, location.offset, LINE_BYTES,
                               AccessCategory.DEMAND)
            return

        # 3. Dynamic Inflation Room Expansion: allocate one more chunk
        #    (chunk allocation only, §IV-B3).
        if (
            config.enable_ir_expansion
            and not self.allocator.contiguous
            and meta.size_chunks < CHUNKS_PER_PAGE
            and len(meta.inflated_lines) < INFLATION_POINTERS
        ):
            self._allocate(state, meta.size_chunks + 1)
            self.stats.ir_expansions += 1
            self.tracer.emit("ir_expansion", page=page)
            # The page just grew a size bin — the cheap form of a page
            # overflow; the global predictor watches this pressure.
            if incompressible:
                self.predictor.on_page_overflow()
            self._inflate_line(state, line)
            location = self._layout(state).locate(line)
            self._write_blocks(state, result, location.offset, LINE_BYTES,
                               AccessCategory.DEMAND)
            return

        # 4. No room in the inflation room: the naive path (Fig. 1c).
        #    LinePack grows the line's slot in place, moving every line
        #    underneath it — the repeated movement that prediction and
        #    Dynamic IR Expansion exist to avoid.  LCP cannot grow one
        #    slot (all slots share the target), so it recompresses the
        #    whole page with a new target (Fig. 5c option 1).
        pointers_exhausted = (
            len(meta.inflated_lines) >= INFLATION_POINTERS
        )
        if self.config.packing == "lcp" or pointers_exhausted:
            # A full recompress also empties the inflation room, making
            # its pointers reusable.
            self._recompress(page, state, result, overflowing_line=line)
        else:
            new_bin = self.packer.bin_index(state.ideal_sizes[line])
            self._shift_grow(page, state, line, new_bin, result)

    def _shift_grow(self, page: int, state: PageState, line: int,
                    new_bin: int, result: AccessResult) -> None:
        """Grow one slot in place, shifting the lines underneath (§IV).

        This is the expensive naive behaviour the paper's predictor and
        Dynamic IR Expansion exist to avoid: every overflowing write
        moves the rest of the page, and streaming incompressible data
        pays it line after line as the page climbs the size bins.
        """
        meta = state.meta
        old_blocks = self._page_data_blocks(state)
        old_chunks = meta.size_chunks
        start = self._layout(state).slot_offsets[line] // LINE_BYTES

        meta.line_bins[line] = new_bin
        state.layout = None
        layout = self._layout(state)
        new_chunks = self._alloc_chunks_for_layout(layout)
        if new_chunks > old_chunks:
            self._page_overflow(page)
        if self._should_store_raw(layout, new_chunks):
            # The page no longer fits compressed: store it raw.
            self._store_uncompressed(page, state, result,
                                     moved_lines=old_blocks)
            return
        self._allocate(state, new_chunks if self.allocator.contiguous
                       else max(new_chunks, old_chunks))
        self._move_after_overflow(page, state, result, old_blocks, start,
                                  resized=new_chunks != old_chunks)

    def _inflate_line(self, state: PageState, line: int) -> None:
        state.meta.inflated_lines.append(line)
        state.layout = None

    def _page_data_blocks(self, state: PageState) -> int:
        """64-byte blocks currently holding page data (movement cost)."""
        layout = self._layout(state)
        return (layout.total_bytes + LINE_BYTES - 1) // LINE_BYTES

    def _should_store_raw(self, layout: PageLayout, chunks: int) -> bool:
        """Store the page uncompressed instead of using this layout?

        Only when compression buys nothing: the layout's slots are all
        raw-size anyway, or it cannot fit the 8-MPFN metadata budget
        (slots + inflation room beyond 8 chunks).  A compressed layout
        that happens to need a full-size allocation is kept compressed —
        prior-work LCP pages at the largest size class still serve
        compressed (and split-prone) line reads.
        """
        if chunks > CHUNKS_PER_PAGE:
            return True
        return all(size >= LINE_BYTES for size in layout.slot_sizes)

    def _store_uncompressed(self, page: int, state: PageState,
                            result: AccessResult, moved_lines: int) -> None:
        """Switch the page to a full uncompressed 4 KB allocation."""
        self._mark_raw(state)
        self.metadata_cache.reshape(page, half=True)
        if moved_lines:
            lines_with_data = sum(1 for d in state.data if d is not None)
            traffic = moved_lines + lines_with_data
            self.stats.overflow_accesses += traffic
            self.tracer.emit("overflow_traffic", page=page, extra=traffic)
            self._count_bulk(result, state, reads=moved_lines,
                             writes=lines_with_data,
                             category=AccessCategory.OVERFLOW)

    def _recompress(self, page: int, state: PageState, result: AccessResult,
                    overflowing_line: int) -> None:
        """Rewrite the page with fresh bins (line-overflow fallback)."""
        old_blocks = self._page_data_blocks(state)
        old_chunks = state.meta.size_chunks
        layout = self._best_layout(state.ideal_sizes)
        new_chunks = self._alloc_chunks_for_layout(layout)
        if new_chunks > old_chunks:
            self._page_overflow(page)
        if self._should_store_raw(layout, new_chunks):
            # Compression no longer pays for this page: go uncompressed.
            self._store_uncompressed(page, state, result,
                                     moved_lines=old_blocks)
            return
        self._apply_layout(state, layout)
        self._allocate(state, new_chunks)
        start = layout.slot_offsets[overflowing_line] // LINE_BYTES
        self._move_after_overflow(page, state, result, old_blocks, start,
                                  resized=new_chunks != old_chunks)

    def _move_after_overflow(self, page: int, state: PageState,
                             result: AccessResult, old_blocks: int,
                             start: int, resized: bool) -> None:
        """Count the data a grown page moves (Fig. 1c).

        A contiguous region that changed size relocates whole; otherwise
        the blocks from ``start`` onward shift in place.
        """
        new_blocks = self._page_data_blocks(state)
        if resized and self.allocator.contiguous:
            moved_reads, moved_writes = old_blocks, new_blocks
        else:
            moved_reads = max(0, old_blocks - start)
            moved_writes = max(1, new_blocks - start)
        traffic = moved_reads + moved_writes
        self.stats.overflow_accesses += traffic
        self.tracer.emit("overflow_traffic", page=page, extra=traffic)
        self._count_bulk(result, state, reads=moved_reads, writes=moved_writes,
                         category=AccessCategory.OVERFLOW)

    def _page_overflow(self, page: int) -> None:
        """The page outgrew its size class (§IV-B2); OS-aware systems
        also take a page fault on it."""
        self.stats.page_overflows += 1
        self.tracer.emit("page_overflow", page=page)
        self.predictor.on_page_overflow()
        if not self.config.os_transparent:
            self.stats.os_page_faults += 1
            self.tracer.emit("os_page_fault")

    def _apply_layout(self, state: PageState, layout: PageLayout) -> None:
        state.meta.line_bins = [
            self.packer.bin_index(size) for size in layout.slot_sizes
        ]
        state.meta.inflated_lines = list(layout.inflated_lines)
        state.layout = layout

    def _count_bulk(self, result: AccessResult, state: PageState,
                    reads: int, writes: int,
                    category: AccessCategory) -> None:
        """Emit bulk movement accesses (page shuffles, repacks)."""
        allocation = max(state.allocation_bytes, LINE_BYTES)
        for i in range(reads):
            offset = (i * LINE_BYTES) % allocation
            result.accesses.append(
                MemAccess(AccessKind.READ, category,
                          self._mpa_address(state, offset), critical=False)
            )
        for i in range(writes):
            offset = (i * LINE_BYTES) % allocation
            result.accesses.append(
                MemAccess(AccessKind.WRITE, category,
                          self._mpa_address(state, offset), critical=False)
            )

    # ------------------------------------------------------------------
    # dynamic repacking (§IV-B4)
    # ------------------------------------------------------------------

    def _maybe_repack(self, page: int, state: PageState) -> bool:
        """Repack on metadata-cache eviction if ≥ 1 chunk is reclaimable."""
        meta = state.meta
        if not meta.valid or meta.zero:
            return False
        if all(size == 0 for size in state.ideal_sizes):
            # The page became all-zero: drop its storage entirely.
            if meta.size_chunks == 0:
                return False
            self._allocate(state, 0)
            self._clear_to_zero(state, valid=True)
            self.stats.repack_events += 1
            self.tracer.emit("repack", page=page, extra=0, zero_drop=True)
            self.predictor.on_page_shrink()
            return True
        layout = self._best_layout(state.ideal_sizes)
        new_chunks = self._alloc_chunks_for_layout(layout)
        if new_chunks >= meta.size_chunks:
            return False
        old_blocks = (self._page_data_blocks(state) if meta.compressed
                      else LINES_PER_PAGE)
        new_blocks = (layout.total_bytes + LINE_BYTES - 1) // LINE_BYTES
        was_uncompressed = not meta.compressed
        old_bins = list(meta.line_bins)
        old_inflated = list(meta.inflated_lines)
        old_layout = state.layout
        meta.compressed = True
        self._apply_layout(state, layout)
        try:
            self._allocate(state, new_chunks)
        except OutOfMemoryError:
            # Variable allocation relocates into a new region before
            # freeing the old one; under exhaustion there may be nothing
            # to relocate into.  A repack is an optimization — abort it
            # and restore the page's previous shape.
            meta.compressed = not was_uncompressed
            meta.line_bins = old_bins
            meta.inflated_lines = old_inflated
            state.layout = old_layout
            return False
        if was_uncompressed and self.metadata_cache.contains(page):
            self.metadata_cache.reshape(page, half=False)
        traffic = old_blocks + new_blocks
        self.stats.repack_events += 1
        self.stats.repack_accesses += traffic
        self.tracer.emit("repack", page=page, extra=traffic)
        self.predictor.on_page_shrink()
        for index in range(traffic):
            kind = AccessKind.READ if index < old_blocks else AccessKind.WRITE
            self._pending.append(
                MemAccess(kind, AccessCategory.REPACK,
                          self._mpa_address(state, 0), critical=False)
            )
        return True

    # ------------------------------------------------------------------

    def _finish(self, result: AccessResult) -> AccessResult:
        if self._pending:
            result.accesses.extend(self._pending)
            self._pending = []
        self._maybe_exit_degraded()
        self._sanitize_op(self._active_page)
        return result

    # ------------------------------------------------------------------
    # fault detection and recovery (docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------

    def _sanitize_op(self, page: Optional[int]) -> None:
        """Post-op sanitizer hook; repairs new violations in recover mode."""
        if self.sanitizer is None or self._recovering:
            return
        self.sanitizer.after_op(self, page)
        if self.recover_mode:
            self._handle_new_violations()

    def _sanitize_all(self) -> None:
        """Full-sweep sanitizer hook (flush paths); repairs in recover mode."""
        if self.sanitizer is None or self._recovering:
            return
        self.sanitizer.check_all(self)
        if self.recover_mode:
            self._handle_new_violations()

    def scrub(self, page: Optional[int] = None) -> int:
        """On-demand sanitizer sweep, modelling a background scrubber.

        Checks one page (plus the allocator) or, with ``page=None``,
        everything; in ``sanitize="recover"`` mode detected corruption
        is repaired.  Returns the number of new violations observed
        (0 when no sanitizer is attached).
        """
        if self.sanitizer is None:
            return 0
        before = len(self.sanitizer.violations)
        if page is None:
            self._sanitize_all()
        else:
            self._sanitize_op(page)
        return len(self.sanitizer.violations) - before

    def _handle_new_violations(self) -> None:
        """Dispatch recovery for violations recorded since the last op.

        Each afflicted structure gets one recovery attempt per batch:
        corrupted pages fall back to decompress-and-mark-uncompressed,
        corrupt metadata-cache entries are invalidated, allocator book
        corruption is repaired, orphaned storage is reclaimed.  A
        re-check afterwards reports anything that persisted.
        """
        sanitizer = self.sanitizer
        if len(sanitizer.violations) <= self._violation_cursor:
            return
        new = sanitizer.violations[self._violation_cursor:]
        self._violation_cursor = len(sanitizer.violations)
        self._recovering = True
        try:
            pages: List[int] = []
            mdcache_pages: List[int] = []
            books = leak = False
            for violation in new:
                if violation.invariant == "mdcache-desync":
                    if violation.page not in mdcache_pages:
                        mdcache_pages.append(violation.page)
                elif violation.invariant == "alloc-books":
                    books = True
                elif violation.page is None:
                    leak = True     # alloc-leak is the page-less invariant
                elif violation.page not in pages:
                    pages.append(violation.page)
            for page in mdcache_pages:
                self.stats.faults_detected += 1
                self.tracer.emit("fault_detected", page=page,
                                 invariants=["mdcache-desync"])
                self._recover_mdcache_entry(page)
            if books:
                self.stats.faults_detected += 1
                self.tracer.emit("fault_detected", invariants=["alloc-books"])
                self._recover_allocator_books()
            for page in pages:
                self.stats.faults_detected += 1
                self.tracer.emit(
                    "fault_detected", page=page,
                    invariants=sorted({v.invariant for v in new
                                       if v.page == page}))
                self._recover_page(page)
            if leak:
                self.stats.faults_detected += 1
                self.tracer.emit("fault_detected", invariants=["alloc-leak"])
                self._recover_leaked_storage()
            self._verify_recovery(pages)
        finally:
            self._recovering = False
            self._violation_cursor = len(self.sanitizer.violations)

    def _verify_recovery(self, pages: List[int]) -> None:
        """Re-check recovered pages and the allocator books once.

        Recovery gets one attempt per violation batch — a residual
        violation is reported (``recovery_failed``), not retried, so a
        fault the fallback cannot absorb can never loop the controller.
        """
        sanitizer = self.sanitizer
        before = len(sanitizer.violations)
        for page in pages:
            state = self.pages.get(page)
            if state is not None:
                sanitizer.check_page(self, page, state)
        sanitizer.check_allocator(self)
        residual = sanitizer.violations[before:]
        if residual:
            self.stats.recovery_failures += len(residual)
            self.tracer.emit(
                "recovery_failed",
                invariants=sorted({v.invariant for v in residual}))

    def _recover_page(self, page: int) -> None:
        """Detected page corruption: rebuild the page uncompressed.

        The decompress-and-mark-uncompressed fallback: defensively
        release whatever storage the corrupt metadata provably owns,
        recompute line sizes from the shadow payload, and re-store the
        page as a plain raw allocation.  If even that allocation is
        denied, the page parks unbacked via the degraded-mode path.
        """
        state = self.pages.get(page)
        if state is None:
            return
        self._defensive_release(page, state)
        meta = state.meta
        sizes = [0 if data is None else self._sizes.size_bytes(data)
                 for data in state.data]
        state.ideal_sizes = sizes
        if all(size == 0 for size in sizes):
            # Only zero lines survived: the page reverts to a zero page.
            self._clear_to_zero(state)
        else:
            meta.valid = True
            meta.zero = False
            try:
                self._mark_raw(state)
            except OutOfMemoryError:
                self._deny_allocation(page, state)
                return
        self.metadata_cache.invalidate(page)
        self.predictor.drop_page(page)
        self.stats.recoveries += 1
        self.tracer.emit("recovery_uncompressed", page=page)

    def _defensive_release(self, page: int, state: PageState) -> None:
        """Free only the storage this page's metadata *provably* owns.

        Corrupt MPFNs cannot be trusted: freeing storage another page
        owns would spread the corruption.  An MPFN is released only if
        the allocator has it granted and no other page references it;
        anything left over is the leak-reclaim sweep's job.
        """
        others: set = set()
        for other, other_state in self.pages.items():
            if other != page:
                others.update(other_state.meta.mpfns)
        owned = self.allocator.owned()
        to_free = [c for c in dict.fromkeys(state.meta.mpfns)
                   if c in owned and c not in others]
        if to_free:
            self.allocator.free(to_free)
        state.meta.mpfns = []
        state.meta.size_chunks = 0
        state.layout = None

    def _recover_mdcache_entry(self, page: int) -> None:
        """Corrupt metadata-cache entry: invalidate for a clean refetch."""
        self.metadata_cache.invalidate(page)
        self.stats.recoveries += 1
        self.tracer.emit("recovery_mdcache", page=page)

    def _recover_allocator_books(self) -> None:
        """Free-list corruption: drop entries the allocated books refute."""
        repaired = self.allocator.repair_books()
        self.stats.recoveries += 1
        self.tracer.emit("recovery_alloc_books", entries=repaired)

    def _recover_leaked_storage(self) -> None:
        """Reclaim storage the allocator holds but no page references."""
        referenced: set = set()
        for state in self.pages.values():
            referenced.update(state.meta.mpfns)
        leaked = [c for c in self.allocator.owned() if c not in referenced]
        if leaked:
            self.allocator.free(leaked)
        self.stats.recoveries += 1
        self.tracer.emit("recovery_leak_reclaim", regions=len(leaked))
