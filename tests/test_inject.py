"""Tests for the fault-injection subsystem (docs/ROBUSTNESS.md).

Three layers: the spec grammar, per-site injection mechanics (every
fault variant must be *detected* — strict mode raises, recover mode
repairs and emits ``fault_*``/``recovery_*`` events), and the
``run_faults`` sweep over all sites, which demands zero silent
corruptions.
Allocator exhaustion gets its own class, run under both the 512 B-chunk
and variable-sized-region allocation schemes.
"""

import random

import pytest

from repro.check import SanitizerError
from repro.core.config import compresso_config, lcp_config
from repro.core.controller import CompressedMemoryController
from repro.inject import (
    SITES,
    FaultInjector,
    FaultSpec,
    campaign_cell,
    parse_fault_spec,
    reconcile,
)
from repro.memory import MemoryGeometry
from repro.obs import Tracer
from repro.simulation.multicore import simulate_multicore
from repro.simulation.simulator import SimulationConfig, simulate
from repro.workloads import get_profile, mix_profiles

#: Sites that corrupt state (vs. exert allocation pressure).
CORRUPTION_SITES = ("line", "meta", "mdcache", "double-grant")


def _page_lines(seed=0):
    """64 distinct, mildly compressible lines."""
    return [bytes((seed + line * 7 + byte * 13) % 256 for byte in range(64))
            for line in range(64)]


def incompressible(seed):
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(64))


def _controller(config=None, sanitize="recover", installed=64 << 20):
    return CompressedMemoryController(
        config or compresso_config(),
        MemoryGeometry(installed_bytes=installed),
        tracer=Tracer(), sanitize=sanitize)


def _populate(controller, pages=6):
    for page in range(pages):
        controller.install_page(page, _page_lines(page))
    for page in range(pages):
        controller.read_line(page, 3)
    return controller


def _injector(controller, site, rate=1.0, seed=0):
    return FaultInjector(FaultSpec(site, rate), seed=seed).bind(controller)


def _events(controller, name):
    return [e for e in controller.tracer.events if e.name == name]


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------

class TestSpecGrammar:
    def test_single_clause(self):
        (spec,) = parse_fault_spec("line:0.01")
        assert spec == FaultSpec("line", 0.01, 1)

    def test_multi_clause_with_burst_and_whitespace(self):
        specs = parse_fault_spec(" line:0.01 , meta:0.005:3 ")
        assert specs == [FaultSpec("line", 0.01),
                         FaultSpec("meta", 0.005, 3)]

    def test_every_site_parses(self):
        for site in SITES:
            (spec,) = parse_fault_spec(f"{site}:0.5")
            assert spec.site == site

    @pytest.mark.parametrize("bad", [
        "bogus:0.1",          # unknown site
        "line:lots",          # non-float rate
        "line:0.1:x",         # non-int burst
        "line",               # missing rate
        "line:0.1:2:9",       # too many fields
        "",                   # empty
        "line:1.5",           # rate out of range
        "line:0.1:0",         # burst < 1
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_injector_accepts_string_spec_and_rejects_empty(self):
        injector = FaultInjector("line:0.2,meta:0.1")
        assert [s.site for s in injector.specs] == ["line", "meta"]
        with pytest.raises(ValueError):
            FaultInjector([])

    def test_unbound_step_raises(self):
        with pytest.raises(RuntimeError):
            FaultInjector("line:1.0").step()


# ---------------------------------------------------------------------------
# detection: strict mode raises on every corruption site
# ---------------------------------------------------------------------------

class TestStrictDetection:
    @pytest.mark.parametrize("site", CORRUPTION_SITES)
    def test_corruption_raises_under_strict(self, site):
        controller = _populate(_controller(sanitize="strict"))
        with pytest.raises(SanitizerError):
            _injector(controller, site).inject(site)

    def test_exhaustion_is_legal_state_not_a_violation(self):
        controller = _populate(_controller(sanitize="strict"))
        record = _injector(controller, "alloc-exhaust").inject("alloc-exhaust")
        assert record.page is None
        assert controller.allocator.free_chunks == 0

    def test_variable_allocation_detects_too(self):
        controller = _populate(_controller(config=lcp_config(),
                                           sanitize="strict"))
        with pytest.raises(SanitizerError):
            _injector(controller, "meta").inject("meta")


# ---------------------------------------------------------------------------
# recovery: recover mode repairs and emits, per site
# ---------------------------------------------------------------------------

class TestRecoverMode:
    @pytest.mark.parametrize("site,recovery_events", [
        ("line", ("recovery_uncompressed", "alloc_denied")),
        ("meta", ("recovery_uncompressed", "alloc_denied")),
        ("mdcache", ("recovery_mdcache",)),
        ("double-grant", ("recovery_alloc_books",)),
    ])
    def test_fault_detected_and_repaired(self, site, recovery_events):
        controller = _populate(_controller())
        record = _injector(controller, site).inject(site)
        assert record is not None
        assert controller.stats.faults_detected >= 1
        assert _events(controller, "fault_detected")
        assert any(_events(controller, name) for name in recovery_events)
        # The repair converged: a fresh full sweep finds nothing new.
        assert controller.scrub() == 0

    @pytest.mark.parametrize("config", [compresso_config, lcp_config])
    def test_repair_converges_under_both_allocators(self, config):
        controller = _populate(_controller(config=config()))
        for site in ("line", "meta", "double-grant"):
            assert _injector(controller, site).inject(site) is not None
        assert controller.stats.recoveries >= 1
        assert controller.scrub() == 0

    def test_reads_survive_page_recovery(self):
        controller = _populate(_controller())
        record = _injector(controller, "meta").inject("meta")
        # Structural recovery rebuilt the page; every line still reads
        # (from the authoritative shadow payload) without raising.
        for line in range(64):
            assert len(controller.read_line(record.page, line).data) == 64

    def test_injection_is_deterministic(self):
        details = []
        for _ in range(2):
            controller = _populate(_controller())
            injector = FaultInjector("line:0.5,meta:0.5", seed=7)
            injector.bind(controller)
            for _ in range(40):
                injector.step()
            details.append([(r.site, r.page, r.detail)
                            for r in injector.records])
        assert details[0] == details[1] and details[0]


# ---------------------------------------------------------------------------
# allocator exhaustion -> degraded mode, both allocation schemes
# ---------------------------------------------------------------------------

class TestExhaustionDegradedMode:
    """Satellite: no exception, correct stats, recovery after frees."""

    @pytest.fixture(params=["chunks", "variable"])
    def controller(self, request):
        config = (compresso_config() if request.param == "chunks"
                  else lcp_config())
        assert config.allocation == request.param
        return _controller(config=config, sanitize=False,
                           installed=2 * 1024 * 1024)

    def _fill_until_denied(self, controller):
        page = 0
        while controller.stats.alloc_denials == 0:
            assert page < controller.geometry.ospa_pages, "never exhausted"
            for line in range(64):
                controller.write_line(page, line,
                                      incompressible(page * 64 + line))
            page += 1
        return page

    def test_exhaustion_degrades_then_recovers_after_frees(self, controller):
        pages = self._fill_until_denied(controller)     # must not raise
        assert controller.stats.alloc_exhaustions >= 1
        assert controller.stats.alloc_denials >= 1
        assert _events(controller, "degraded_enter")
        # Freeing restores headroom: degraded mode ends (the denial
        # itself may already have freed enough — under variable
        # allocation a denied page returns a whole region) and new
        # compressed installs succeed again.
        for page in range(pages):
            controller.free_page(page)
        assert not controller.degraded_mode
        assert controller.stats.degraded_exits >= 1
        assert _events(controller, "degraded_exit")
        controller.install_page(0, _page_lines())
        assert controller.pages[0].meta.valid

    def test_denied_page_still_reads_correctly(self, controller):
        self._fill_until_denied(controller)
        denied = _events(controller, "alloc_denied")[0].page
        expected = incompressible(denied * 64 + 7)
        assert controller.read_line(denied, 7).data == expected

    def test_seize_and_release_roundtrip(self):
        controller = _populate(_controller(sanitize=False))
        injector = _injector(controller, "alloc-exhaust")
        injector.inject("alloc-exhaust")
        assert controller.allocator.free_chunks == 0
        released = injector.release_seized()
        assert released > 0
        assert controller.allocator.free_chunks == released


# ---------------------------------------------------------------------------
# campaign: the zero-silent-corruption sweep (tier-1)
# ---------------------------------------------------------------------------

class TestFaultCampaign:
    def test_campaign_has_zero_silent_corruptions(self):
        from repro.analysis import QUICK, run_faults
        result = run_faults(QUICK, runner=None)
        assert result.summary["injected"] > 0
        assert result.summary["silent"] == 0
        for row in result.rows:
            assert row["detected"] == row["injected"] - row["masked"], row

    def test_cell_rows_have_the_report_shape(self):
        cell = campaign_cell("mdcache", 0.02, n_events=400, scale=0.05)
        row = cell.as_row()
        assert set(row) == {"site", "rate", "injected", "detected",
                            "recovered", "masked", "silent"}
        assert row["silent"] == 0

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            campaign_cell("bogus", 0.02)

    def test_reconcile_flags_truly_silent_faults(self):
        # A record with no matching events must be classified silent.
        from repro.inject import FaultRecord
        record = FaultRecord(0, "line", page=3, clock=10, detail="x")
        outcome = reconcile([record], events=[])
        assert outcome.silent == 1 and outcome.detected == 0


# ---------------------------------------------------------------------------
# simulation wiring
# ---------------------------------------------------------------------------

class TestSimulationWiring:
    def test_simulate_with_faults_config(self):
        sim = SimulationConfig(n_events=400, scale=0.05, seed=3,
                               sanitize="recover", faults="line:0.05")
        result = simulate(get_profile("gcc"), "compresso", sim)
        assert result.faults_injected >= 1
        assert result.controller_stats.faults_detected >= 1

    def test_simulate_multicore_with_faults_config(self):
        """The 4-core driver steps the injector on every interleaved event."""
        sim = SimulationConfig(n_events=300, scale=0.02, seed=3,
                               sanitize="recover",
                               faults="line:0.05,meta:0.05")
        result = simulate_multicore(mix_profiles("mix4"), "compresso", sim)
        assert result.controller_stats.faults_detected >= 1
        assert result.controller_stats.recoveries >= 1

    def test_uncompressed_system_ignores_faults(self):
        sim = SimulationConfig(n_events=200, scale=0.05,
                               faults="line:0.5")
        result = simulate(get_profile("gcc"), "uncompressed", sim)
        assert result.faults_injected is None

    def test_bad_sanitize_mode_rejected(self):
        with pytest.raises(ValueError):
            _controller(sanitize="loose")
