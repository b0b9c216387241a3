"""Mutation tests for the memory-model sanitizer (docs/LINTING.md).

The sanitizer is itself a checker, so its tests are mutation tests: a
clean controller must produce zero violations, and each deliberately
seeded corruption — overlapping packed slots, a double-freed chunk,
desynced metadata, duplicate inflation pointers, a leaked allocation —
must be caught with the right invariant id.
"""

import dataclasses

import pytest

from repro.check import MemorySanitizer, SanitizerError
from repro.core.config import compresso_config, lcp_config
from repro.core.controller import CompressedMemoryController
from repro.memory.physical import MemoryGeometry
from repro.obs import Tracer
from repro.simulation.simulator import SimulationConfig, simulate
from repro.workloads.profiles import PROFILES


def _page_lines(seed=0):
    """64 distinct, mildly compressible lines (multiple nonzero slots)."""
    return [bytes((seed + line * 7 + byte * 13) % 256 for byte in range(64))
            for line in range(64)]


def _controller(config=None, sanitize=True):
    config = config or compresso_config()
    controller = CompressedMemoryController(
        config, MemoryGeometry(installed_bytes=64 << 20), sanitize=sanitize)
    return controller


def _invariants(controller):
    return [v.invariant for v in controller.sanitizer.violations]


# ---------------------------------------------------------------------------
# clean runs
# ---------------------------------------------------------------------------

def test_clean_controller_has_no_violations():
    controller = _controller()
    for page in range(6):
        controller.install_page(page, _page_lines(page))
    for page in range(6):
        controller.write_line(page, 3, bytes(64))
        controller.read_line(page, 3)
    controller.free_page(2)
    controller.flush_metadata()
    assert controller.sanitizer.violations == []
    assert controller.sanitizer.checks > 0


def test_clean_variable_allocation_run():
    controller = _controller(config=lcp_config())
    for page in range(6):
        controller.install_page(page, _page_lines(page))
    controller.free_page(1)
    controller.flush_metadata()
    assert controller.sanitizer.violations == []


def test_sanitize_flag_off_means_no_sanitizer():
    controller = _controller(sanitize=False)
    assert controller.sanitizer is None


# ---------------------------------------------------------------------------
# seeded corruptions, one per invariant family
# ---------------------------------------------------------------------------

def test_corrupted_layout_offsets_are_caught():
    controller = _controller()
    controller.install_page(0, _page_lines())
    state = controller.pages[0]
    layout = controller._layout(state)
    # squash every slot offset to half: slots now overlap, and the
    # cached layout disagrees with the metadata-derived one
    state.layout = dataclasses.replace(
        layout, slot_offsets=tuple(o // 2 for o in layout.slot_offsets))
    controller.sanitizer.check_all(controller)
    caught = _invariants(controller)
    assert "layout-desync" in caught
    assert "line-overlap" in caught


def test_double_freed_chunk_is_caught():
    controller = _controller()
    controller.install_page(0, _page_lines())
    state = controller.pages[0]
    # free one of the page's chunks behind the controller's back
    controller.allocator.free([state.meta.mpfns[0]])
    controller.sanitizer.check_all(controller)
    assert "alloc-double-free" in _invariants(controller)


def test_leaked_chunks_are_caught():
    controller = _controller()
    controller.install_page(0, _page_lines())
    controller.allocator.allocate(2)   # no page references these
    controller.sanitizer.check_all(controller)
    assert "alloc-leak" in _invariants(controller)


def test_metadata_size_desync_is_caught():
    controller = _controller()
    controller.install_page(0, _page_lines())
    controller.pages[0].meta.size_chunks += 1   # mpfns no longer match
    controller.sanitizer.check_all(controller)
    assert "metadata-desync" in _invariants(controller)


def test_duplicate_inflation_pointers_are_caught():
    controller = _controller()
    controller.install_page(0, _page_lines())
    controller.pages[0].meta.inflated_lines = [3, 3]
    controller.sanitizer.check_all(controller)
    assert "inflation-room" in _invariants(controller)


def _sparse_random_page(seed=0):
    """One random line in three, zeros elsewhere: a multi-chunk page."""
    import random
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(64)) if line % 3 == 0
            else bytes(64) for line in range(64)]


@pytest.mark.parametrize("allocation, plant, expected", [
    pytest.param("chunks", lambda meta: meta.mpfns.append(7),
                 "metadata-desync", id="extra-mpfn"),
    pytest.param("chunks",
                 lambda meta: setattr(meta, "inflated_lines",
                                      list(range(18))),
                 "inflation-room", id="18-inflated-lines"),
    pytest.param("chunks",
                 lambda meta: setattr(meta, "inflated_lines", [3, 3]),
                 "inflation-room", id="duplicate-inflation-pointers"),
    pytest.param("chunks", lambda meta: setattr(meta, "zero", True),
                 "zero-page-storage", id="zero-page-with-storage"),
    pytest.param("variable", lambda meta: None, None,
                 id="clean-variable-page"),
])
def test_planted_metadata_corruption(allocation, plant, expected):
    """Each corruption planted in a multi-chunk page's metadata trips its
    invariant; an untouched variable-allocation page, whose one MPFN
    names its whole region, trips none."""
    controller = _controller(config=compresso_config(allocation=allocation))
    controller.install_page(0, _sparse_random_page())
    meta = controller.pages[0].meta
    assert meta.size_chunks > 1
    plant(meta)
    controller.sanitizer.check_all(controller)
    caught = _invariants(controller)
    if expected is None:
        assert caught == []
    else:
        assert expected in caught


def test_allocator_refuses_direct_double_free():
    controller = _controller()
    controller.install_page(0, _page_lines())
    chunk = controller.pages[0].meta.mpfns[0]
    controller.allocator.free([chunk])
    with pytest.raises(ValueError):
        controller.allocator.free([chunk])


def test_raise_on_violation_fails_fast():
    config = compresso_config()
    controller = _controller(config=config, sanitize=False)
    controller.sanitizer = MemorySanitizer(config, raise_on_violation=True)
    controller.install_page(0, _page_lines())
    controller.pages[0].meta.inflated_lines = [3, 3]
    with pytest.raises(SanitizerError):
        controller.sanitizer.check_all(controller)


def test_violations_reach_the_tracer():
    config = compresso_config()
    tracer = Tracer()
    controller = CompressedMemoryController(
        config, MemoryGeometry(installed_bytes=64 << 20), tracer=tracer,
        sanitize=True)
    controller.install_page(0, _page_lines())
    controller.pages[0].meta.inflated_lines = [3, 3]
    controller.sanitizer.check_all(controller)
    events = [e for e in tracer.events if e.name == "sanitizer_violation"]
    assert events and events[0].args["invariant"] == "inflation-room"


# ---------------------------------------------------------------------------
# end-to-end simulation wiring
# ---------------------------------------------------------------------------

def test_sanitized_simulation_is_clean():
    sim = SimulationConfig(n_events=600, scale=0.01, sanitize=True)
    result = simulate(PROFILES["gcc"], "compresso", sim)
    assert result.sanitizer_violations == 0


def test_sanitized_variable_allocation_simulation_is_clean():
    sim = SimulationConfig(n_events=600, scale=0.01, sanitize=True)
    result = simulate(PROFILES["gcc"], "lcp", sim)
    assert result.sanitizer_violations == 0


def test_unsanitized_simulation_reports_none():
    sim = SimulationConfig(n_events=300, scale=0.01)
    result = simulate(PROFILES["gcc"], "compresso", sim)
    assert result.sanitizer_violations is None


def test_every_cycle_based_unit_journals_sanitizer_counts(
        cycle_based_unit_ends):
    """``run --sanitize`` puts a ``sanitizer`` block on the ``unit_end``
    of every cycle-based unit (docs/LINTING.md), fig11's 4-core units
    included.  The sweep is shared with test_obs.py (tests/conftest.py)."""
    ends = cycle_based_unit_ends
    assert {event["experiment"] for event in ends} == {
        "fig4", "fig6", "fig7", "fig10", "fig11", "fig12", "tab2",
        "ablation"}
    assert [event["unit"] for event in ends if "sanitizer" not in event] == []
    assert all(event["sanitizer"] == {"violations": 0} for event in ends)
