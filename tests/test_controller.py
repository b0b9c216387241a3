"""Integration tests for the compressed-memory controller (§III–§V)."""

import struct

import pytest

from repro.check import MemorySanitizer
from repro.core import (
    CompressedMemoryController,
    compresso_config,
    lcp_align_config,
    lcp_config,
)
from repro.machine import PAGE_BYTES
from repro.memory import AccessCategory, MemoryGeometry
from repro.workloads import PROFILES, TraceGenerator, Workload


def make_controller(config=None, installed_mb=32):
    geometry = MemoryGeometry(installed_bytes=installed_mb * 1024 * 1024)
    return CompressedMemoryController(config or compresso_config(), geometry)


def assert_pages_sound(ctrl):
    """Every page passes the strict memory-model sanitizer's checks."""
    sanitizer = MemorySanitizer(ctrl.config, raise_on_violation=True)
    for page, state in ctrl.pages.items():
        sanitizer.check_page(ctrl, page, state)


def int_line(seed: int) -> bytes:
    """A compressible line (small deltas)."""
    return struct.pack("<16I", *[(seed * 97 + i) & 0xFFFFFFFF for i in range(16)])


def random_line(seed: int) -> bytes:
    """An incompressible line."""
    import random
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(64))


class TestReadWriteBasics:
    def test_read_of_untouched_page_is_zero(self):
        ctrl = make_controller()
        result = ctrl.read_line(5, 10)
        assert result.data == bytes(64)
        assert result.served_by_metadata
        assert not result.accesses or all(
            a.category is AccessCategory.METADATA for a in result.accesses
        )

    def test_write_then_read_roundtrip(self):
        ctrl = make_controller()
        data = int_line(3)
        ctrl.write_line(7, 12, data)
        assert ctrl.read_line(7, 12).data == data

    def test_all_lines_roundtrip(self):
        ctrl = make_controller()
        lines = [int_line(i) if i % 3 else random_line(i) for i in range(64)]
        for i, line in enumerate(lines):
            ctrl.write_line(2, i, line)
        for i, line in enumerate(lines):
            assert ctrl.read_line(2, i).data == line

    def test_overwrite_changes_data(self):
        ctrl = make_controller()
        ctrl.write_line(1, 1, int_line(1))
        ctrl.write_line(1, 1, random_line(1))
        assert ctrl.read_line(1, 1).data == random_line(1)

    def test_address_bounds(self):
        ctrl = make_controller()
        with pytest.raises(ValueError):
            ctrl.read_line(-1, 0)
        with pytest.raises(ValueError):
            ctrl.read_line(0, 64)
        with pytest.raises(ValueError):
            ctrl.write_line(10**9, 0, bytes(64))

    def test_wrong_line_size_rejected(self):
        ctrl = make_controller()
        with pytest.raises(ValueError):
            ctrl.write_line(0, 0, bytes(32))


class TestZeroHandling:
    def test_zero_write_to_zero_page_is_free(self):
        ctrl = make_controller()
        result = ctrl.write_line(3, 5, bytes(64))
        assert result.served_by_metadata
        assert ctrl.stats.zero_line_writes == 1
        assert ctrl.allocator.used_bytes == 0  # page stays unmapped

    def test_zero_read_costs_nothing(self):
        ctrl = make_controller()
        ctrl.read_line(4, 0)
        assert ctrl.stats.zero_line_reads == 1

    def test_zero_page_has_no_allocation(self):
        ctrl = make_controller()
        for line in range(64):
            ctrl.write_line(9, line, bytes(64))
        assert ctrl.allocator.used_bytes == 0

    def test_first_nonzero_write_allocates_min_512(self):
        ctrl = make_controller()
        ctrl.write_line(0, 0, int_line(1))
        assert ctrl.allocator.used_bytes == 512


class TestCompressionRatio:
    def test_compressible_pages_use_fewer_chunks(self):
        ctrl = make_controller()
        for page in range(8):
            for line in range(64):
                ctrl.write_line(page, line, int_line(page * 64 + line))
        assert ctrl.compression_ratio() > 2.0

    def test_incompressible_pages_stay_near_one(self):
        ctrl = make_controller()
        for page in range(4):
            for line in range(64):
                ctrl.write_line(page, line, random_line(page * 64 + line))
        assert ctrl.compression_ratio() <= 1.1


class TestInstallPage:
    def test_install_matches_write_content(self):
        ctrl = make_controller()
        lines = [int_line(i) for i in range(64)]
        ctrl.install_page(11, lines)
        for i, line in enumerate(lines):
            assert ctrl.read_line(11, i).data == line

    def test_install_counts_no_stats(self):
        ctrl = make_controller()
        ctrl.install_page(11, [int_line(i) for i in range(64)])
        assert ctrl.stats.demand_writes == 0

    def test_install_zero_page_stays_unmapped(self):
        ctrl = make_controller()
        ctrl.install_page(11, [bytes(64)] * 64)
        assert ctrl.allocator.used_bytes == 0

    def test_double_install_rejected(self):
        ctrl = make_controller()
        ctrl.install_page(11, [int_line(i) for i in range(64)])
        with pytest.raises(ValueError):
            ctrl.install_page(11, [int_line(i) for i in range(64)])

    def test_incompressible_page_installs_uncompressed(self):
        ctrl = make_controller()
        ctrl.install_page(11, [random_line(i) for i in range(64)])
        assert not ctrl.pages[11].meta.compressed
        assert ctrl.pages[11].meta.size_chunks == 8


class TestLineOverflow:
    def test_overflow_goes_to_inflation_room(self):
        ctrl = make_controller()
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        before = ctrl.stats.line_overflows
        ctrl.write_line(0, 5, random_line(5))
        assert ctrl.stats.line_overflows == before + 1
        assert 5 in ctrl.pages[0].meta.inflated_lines
        assert ctrl.read_line(0, 5).data == random_line(5)

    def test_inflated_line_rewrite_is_cheap(self):
        ctrl = make_controller()
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        ctrl.write_line(0, 5, random_line(5))
        overflows = ctrl.stats.line_overflows
        ctrl.write_line(0, 5, random_line(99))
        assert ctrl.stats.line_overflows == overflows  # no new overflow

    def test_ir_expansion_allocates_chunk(self):
        config = compresso_config()
        ctrl = make_controller(config)
        # A page full of 8-byte lines packs into exactly one chunk with
        # zero slack, so the first overflow must expand the IR.
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        chunks_before = ctrl.pages[0].meta.size_chunks
        ctrl.write_line(0, 9, random_line(9))
        assert ctrl.pages[0].meta.size_chunks >= chunks_before

    def test_ir_expansion_disabled_forces_recompress(self):
        config = compresso_config(enable_ir_expansion=False)
        ctrl = make_controller(config)
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        # Fill beyond what the slack IR can take; expect recompression
        # (overflow accesses) rather than chunk-by-chunk IR growth.
        for line in range(20):
            ctrl.write_line(0, line, random_line(line))
        assert ctrl.stats.overflow_accesses > 0

    def test_inflation_pointer_cap_respected(self):
        ctrl = make_controller()
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        for line in range(30):
            ctrl.write_line(0, line, random_line(line))
        meta = ctrl.pages[0].meta
        assert len(meta.inflated_lines) <= 17
        assert_pages_sound(ctrl)


class TestPredictorIntegration:
    def test_streaming_incompressible_inflates_pages(self):
        ctrl = make_controller()
        for page in range(12):
            ctrl.install_page(page, [int_line(i) for i in range(64)])
        # Stream random data over everything: pages overflow, the global
        # counter heats up, and later pages get predicted uncompressed.
        for page in range(12):
            for line in range(64):
                ctrl.write_line(page, line, random_line(page * 64 + line))
        assert ctrl.stats.predictor_inflations > 0

    def test_disabled_predictor_never_inflates(self):
        config = compresso_config(enable_overflow_prediction=False)
        ctrl = make_controller(config)
        for page in range(12):
            ctrl.install_page(page, [int_line(i) for i in range(64)])
        for page in range(12):
            for line in range(64):
                ctrl.write_line(page, line, random_line(page * 64 + line))
        assert ctrl.stats.predictor_inflations == 0


class TestRepacking:
    def test_eviction_repacks_compressible_page(self):
        ctrl = make_controller()
        ctrl.install_page(0, [random_line(i) for i in range(64)])
        assert ctrl.pages[0].meta.size_chunks == 8
        # Data becomes compressible again.
        for line in range(64):
            ctrl.write_line(0, line, int_line(line))
        ctrl.flush_metadata()  # eviction triggers the repack check
        assert ctrl.pages[0].meta.size_chunks < 8
        assert ctrl.stats.repack_events >= 1
        for line in range(0, 64, 7):
            assert ctrl.read_line(0, line).data == int_line(line)

    def test_repack_frees_all_zero_page(self):
        ctrl = make_controller()
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        for line in range(64):
            ctrl.write_line(0, line, bytes(64))
        ctrl.flush_metadata()
        assert ctrl.pages[0].meta.zero
        assert ctrl.pages[0].meta.size_chunks == 0

    def test_repack_disabled_squanders_space(self):
        config = compresso_config(enable_repacking=False)
        ctrl = make_controller(config)
        ctrl.install_page(0, [random_line(i) for i in range(64)])
        for line in range(64):
            ctrl.write_line(0, line, int_line(line))
        ctrl.flush_metadata()
        assert ctrl.pages[0].meta.size_chunks == 8  # still bloated
        assert ctrl.stats.repack_events == 0

    def test_repack_only_when_chunk_reclaimable(self):
        ctrl = make_controller()
        lines = [int_line(i) for i in range(64)]
        ctrl.install_page(0, lines)
        chunks = ctrl.pages[0].meta.size_chunks
        ctrl.flush_metadata()  # nothing changed: no repack
        assert ctrl.stats.repack_events == 0
        assert ctrl.pages[0].meta.size_chunks == chunks


class TestMetadataTraffic:
    def test_metadata_miss_costs_one_access(self):
        ctrl = make_controller()
        ctrl.write_line(0, 0, int_line(0))
        misses_before = ctrl.stats.metadata_misses
        far_page = 4000  # maps to a different set / not resident
        result = ctrl.read_line(far_page, 0)
        assert ctrl.stats.metadata_misses == misses_before + 1

    def test_metadata_hit_after_access(self):
        ctrl = make_controller()
        ctrl.read_line(123, 0)
        hits_before = ctrl.stats.metadata_hits
        ctrl.read_line(123, 1)
        assert ctrl.stats.metadata_hits == hits_before + 1


class TestLCPSystems:
    @pytest.mark.parametrize("config_factory", [lcp_config, lcp_align_config])
    def test_roundtrip(self, config_factory):
        ctrl = make_controller(config_factory())
        lines = [int_line(i) if i % 4 else random_line(i) for i in range(64)]
        for i, line in enumerate(lines):
            ctrl.write_line(0, i, line)
        for i, line in enumerate(lines):
            assert ctrl.read_line(0, i).data == line

    def test_page_overflow_raises_os_fault(self):
        ctrl = make_controller(lcp_config())
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        for line in range(64):
            ctrl.write_line(0, line, random_line(line))
        assert ctrl.stats.page_overflows > 0
        assert ctrl.stats.os_page_faults == ctrl.stats.page_overflows

    def test_compresso_never_takes_os_faults(self):
        ctrl = make_controller()
        ctrl.install_page(0, [int_line(i) for i in range(64)])
        for line in range(64):
            ctrl.write_line(0, line, random_line(line))
        assert ctrl.stats.os_page_faults == 0


class TestSplitAccesses:
    def test_no_splits_for_uncompressed_pages(self):
        ctrl = make_controller()
        ctrl.install_page(0, [random_line(i) for i in range(64)])
        before = ctrl.stats.split_accesses
        for line in range(64):
            ctrl.read_line(0, line)
        assert ctrl.stats.split_accesses == before

    def test_prior_bins_split_more(self):
        """0/22/44/64 bins straddle 64 B boundaries (§IV-B1)."""
        aligned = make_controller(compresso_config())
        from repro.core.config import PRIOR_WORK_LINE_BINS
        prior = make_controller(
            compresso_config(line_bins=PRIOR_WORK_LINE_BINS)
        )
        lines = [struct.pack("<16I", *[i * 7 + j * 1000 + (1 << 20)
                                       for j in range(16)])
                 for i in range(64)]
        for ctrl in (aligned, prior):
            ctrl.install_page(0, lines)
            for line in range(64):
                ctrl.read_line(0, line)
        assert prior.stats.split_accesses > aligned.stats.split_accesses


class TestConservation:
    def test_chunk_accounting_after_churn(self):
        """Allocator accounting stays exact through heavy churn."""
        ctrl = make_controller()
        import random
        rng = random.Random(0)
        for _ in range(800):
            page = rng.randrange(16)
            line = rng.randrange(64)
            if rng.random() < 0.3:
                ctrl.write_line(page, line, bytes(64))
            elif rng.random() < 0.6:
                ctrl.write_line(page, line, int_line(rng.randrange(1000)))
            else:
                ctrl.write_line(page, line, random_line(rng.randrange(1000)))
        ctrl.flush_metadata()
        allocator = ctrl.allocator
        assert allocator.used_chunks + allocator.free_chunks == allocator.total_chunks
        expected = sum(
            state.meta.size_chunks for state in ctrl.pages.values()
        )
        assert allocator.used_chunks == expected

    def test_metadata_invariants_after_churn(self):
        ctrl = make_controller()
        import random
        rng = random.Random(1)
        for _ in range(500):
            page = rng.randrange(8)
            line = rng.randrange(64)
            data = (int_line(rng.randrange(100)) if rng.random() < 0.5
                    else random_line(rng.randrange(100)))
            ctrl.write_line(page, line, data)
        assert_pages_sound(ctrl)

    def test_layout_fits_allocation_after_churn(self):
        ctrl = make_controller()
        import random
        rng = random.Random(2)
        for _ in range(500):
            ctrl.write_line(rng.randrange(8), rng.randrange(64),
                            random_line(rng.randrange(50))
                            if rng.random() < 0.5
                            else int_line(rng.randrange(50)))
        for state in ctrl.pages.values():
            if state.meta.valid and state.meta.compressed:
                layout = ctrl._layout(state)
                assert layout.total_bytes <= state.allocation_bytes

    @pytest.mark.parametrize("config", [
        compresso_config(),
        compresso_config(allocation="variable"),
        lcp_config(),
    ], ids=["chunks", "variable", "lcp"])
    @pytest.mark.parametrize("name", ["gcc", "mcf", "omnetpp"])
    def test_ratio_matches_allocator_bytes(self, config, name):
        """After install and a written trace, the pages' allocation
        bytes and ``compression_ratio()`` agree with the bytes the
        allocator granted: neither may assume a chunk size of its own."""
        import numpy as np
        workload = Workload(PROFILES[name], scale=0.01, seed=1)
        ctrl = make_controller(config)
        for page in range(workload.pages):
            ctrl.install_page(page, workload.page_lines(page))
        trace = TraceGenerator(workload, seed=1)
        phase_rng = np.random.RandomState(2)
        n_events = 1500
        for index, event in enumerate(trace.events(n_events)):
            if event.is_writeback:
                override = trace.overwrite_class_at(index / n_events,
                                                    phase_rng)
                ctrl.write_line(event.page, event.line,
                                workload.apply_writeback(
                                    event.page, event.line, override))
            else:
                ctrl.read_line(event.page, event.line)
        ctrl.flush_metadata()
        valid = [state for state in ctrl.pages.values() if state.meta.valid]
        used = ctrl.allocator.used_bytes
        assert sum(state.allocation_bytes for state in valid) == used
        assert ctrl.compression_ratio() == len(valid) * PAGE_BYTES / used

    def test_machine_sizes_are_not_config_fields(self):
        """The chunk size is a machine constant, not a design knob."""
        with pytest.raises(TypeError):
            compresso_config(chunk_size=1024)


class TestFreePage:
    def test_free_releases_storage(self):
        ctrl = make_controller()
        ctrl.install_page(3, [random_line(i) for i in range(64)])
        assert ctrl.allocator.used_bytes > 0
        ctrl.free_page(3)
        assert ctrl.allocator.used_bytes == 0
        assert ctrl.read_line(3, 0).data == bytes(64)


class TestVariableAllocation:
    def test_growing_page_relocates_and_frees_its_old_region(self):
        config = compresso_config(allocation="variable",
                                  enable_overflow_prediction=False)
        geometry = MemoryGeometry(installed_bytes=32 * 1024 * 1024)
        ctrl = CompressedMemoryController(config, geometry, sanitize="strict")
        allocator = ctrl.allocator
        ctrl.write_line(3, 0, int_line(1))
        meta = ctrl.pages[3].meta
        old_mpfns, old_chunks = list(meta.mpfns), meta.size_chunks
        line = 1
        while meta.size_chunks == old_chunks:
            ctrl.write_line(3, line, random_line(line))
            line += 1
        assert meta.size_chunks > old_chunks
        assert len(meta.mpfns) == 1 and meta.mpfns != old_mpfns
        assert old_mpfns[0] not in allocator.owned()
        assert allocator.owned() == {meta.mpfns[0]: meta.size_chunks}
        assert ctrl.stats.page_overflows >= 1
        ctrl.flush_metadata()
        assert ctrl.sanitizer.violations == []
