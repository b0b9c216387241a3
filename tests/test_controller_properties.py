"""Property-based tests of controller invariants under random operation
sequences (hypothesis-driven, small geometry so shrinking is useful)."""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import MemorySanitizer
from repro.core import (
    CompressedMemoryController,
    compresso_config,
    lcp_config,
)
from repro.memory import MemoryGeometry

N_PAGES = 6
LINE_KINDS = 4


def line_for(kind: int, salt: int) -> bytes:
    """Four data kinds spanning the compressibility range."""
    if kind == 0:
        return bytes(64)
    if kind == 1:  # tiny deltas -> ~8 B under BPC
        return struct.pack("<16I", *[(salt * 3 + i) & 0xFFFF
                                     for i in range(16)])
    if kind == 2:  # mid-size
        return struct.pack("<8Q", *[0x7F0000000000 + (salt + i) * 64
                                    for i in range(8)])
    return bytes((salt * 131 + i * 197 + 89) % 256 for i in range(64))


operations = st.lists(
    st.tuples(
        st.booleans(),                                 # write?
        st.integers(min_value=0, max_value=N_PAGES - 1),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=LINE_KINDS - 1),
        st.integers(min_value=0, max_value=7),         # salt
    ),
    min_size=1, max_size=120,
)


def build(config):
    geometry = MemoryGeometry(installed_bytes=8 << 20, advertised_ratio=2.0)
    return CompressedMemoryController(config, geometry)


def run_ops(controller, ops, shadow):
    for is_write, page, line, kind, salt in ops:
        if is_write:
            data = line_for(kind, salt)
            controller.write_line(page, line, data)
            shadow[(page, line)] = data
        else:
            result = controller.read_line(page, line)
            expected = shadow.get((page, line), bytes(64))
            assert result.data == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_compresso_read_your_writes(ops):
    """Reads always return the last written data (or zeros)."""
    controller = build(compresso_config())
    run_ops(controller, ops, {})


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_lcp_read_your_writes(ops):
    controller = build(lcp_config())
    run_ops(controller, ops, {})


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_structural_invariants_hold(ops):
    """After any operation sequence: metadata invariants, exact chunk
    accounting, and layouts that fit their allocations."""
    controller = build(compresso_config())
    run_ops(controller, ops, {})
    controller.flush_metadata()

    allocator = controller.allocator
    assert (allocator.used_chunks + allocator.free_chunks
            == allocator.total_chunks)
    sanitizer = MemorySanitizer(controller.config, raise_on_violation=True)
    expected_chunks = 0
    for page, state in controller.pages.items():
        sanitizer.check_page(controller, page, state)
        expected_chunks += state.meta.size_chunks
        if state.meta.valid and state.meta.compressed:
            layout = controller._layout(state)
            assert layout.total_bytes <= state.allocation_bytes
            # Slots hold the data assigned to them.
            for line, size in enumerate(state.ideal_sizes):
                location = layout.locate(line)
                if not location.inflated:
                    if location.size == 0:
                        assert size == 0  # zero slot => logically zero line
                    else:
                        assert size <= location.size
    assert allocator.used_chunks == expected_chunks


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_metadata_encode_decode_all_states(ops):
    """Every reachable metadata state survives the 64-byte encoding."""
    from repro.core.metadata import PageMetadata

    controller = build(compresso_config())
    run_ops(controller, ops, {})
    for state in controller.pages.values():
        decoded = PageMetadata.decode(state.meta.encode())
        assert decoded.size_chunks == state.meta.size_chunks
        assert decoded.line_bins == state.meta.line_bins
        assert decoded.inflated_lines == state.meta.inflated_lines


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(salt=st.integers(min_value=0, max_value=2 ** 16),
       survivors=st.integers(min_value=0, max_value=3))
def test_degraded_mode_always_exits_once_headroom_returns(salt, survivors):
    """Degraded mode is never sticky: however the node was exhausted,
    freeing the transient pages restores normal mode with balanced
    allocator books and a clean scrub (docs/PRESSURE.md)."""
    geometry = MemoryGeometry(installed_bytes=1 << 20, advertised_ratio=4.0)
    controller = CompressedMemoryController(compresso_config(), geometry)
    page = 0
    while controller.stats.alloc_denials == 0:
        assert page < controller.geometry.ospa_pages, "never exhausted"
        for line in range(64):
            controller.write_line(page, line,
                                  line_for(3, salt + page * 64 + line))
        page += 1
    assert controller.degraded_mode
    for victim in range(survivors, page):
        controller.free_page(victim)
    assert not controller.degraded_mode
    assert controller.stats.degraded_exits >= 1
    assert controller.scrub() == 0
    allocator = controller.allocator
    assert (allocator.used_chunks + allocator.free_chunks
            == allocator.total_chunks)
