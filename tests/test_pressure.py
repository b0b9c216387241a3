"""Tests for the memory-pressure overload-control layer (docs/PRESSURE.md).

Three layers of coverage: the :class:`PressureController` policies in
isolation (token bucket, priority shedding, budgets, watchdog, OOM
absorption), the campaign machinery (cells, reconciliation, recovery
drills), and the ``run_pressure`` sweep's acceptance claims — zero
escaped OOMs, zero unreconciled transitions, every cell recovers.
"""

import pytest

from repro.core import CompressedMemoryController, compresso_config
from repro.machine import LINE_BYTES, LINES_PER_PAGE
from repro.memory import MemoryGeometry
from repro.memory.allocator import OutOfMemoryError
from repro.obs import Tracer
from repro.osmodel import (
    LRUPagingSimulator,
    StaticBudget,
    VirtualMemory,
)
from repro.pressure import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    PRIORITY_STANDARD,
    PressureConfig,
    PressureController,
    TenantSpec,
    TokenBucket,
    jain_index,
    pressure_cell,
    run_recovery_drill,
)


def incompressible(salt: int) -> bytes:
    return bytes((salt * 131 + i * 197 + 89) % 256 for i in range(64))


def zero_page(controller):
    return [bytes(LINE_BYTES)] * LINES_PER_PAGE


def small_node(rate=100.0, burst=100, tenants=None, installed=8 << 20,
               ratio=2.0, **knobs):
    """A pressure-wrapped node with one tenant per priority class."""
    tracer = Tracer()
    geometry = MemoryGeometry(installed_bytes=installed,
                              advertised_ratio=ratio)
    controller = CompressedMemoryController(compresso_config(), geometry,
                                            tracer=tracer)
    config = PressureConfig(admission_rate=rate, admission_burst=burst,
                            **knobs)
    if tenants is None:
        tenants = [
            TenantSpec("crit", StaticBudget(64), PRIORITY_CRITICAL),
            TenantSpec("std", StaticBudget(64), PRIORITY_STANDARD),
            TenantSpec("batch", StaticBudget(64), PRIORITY_BEST_EFFORT),
        ]
    pressure = PressureController(controller, tenants, config=config)
    return pressure, controller, tracer


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_dry_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3)
        assert [bucket.take(0) for _ in range(3)] == [True] * 3
        assert bucket.take(0) is False
        assert bucket.wait_clocks(0) == 1
        # One clock unit refills rate=2 tokens.
        assert bucket.take(1) is True
        assert bucket.take(1) is True
        assert bucket.take(1) is False

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.take(0) and bucket.take(0)
        assert [bucket.take(100) for _ in range(3)] == [True, True, False]

    def test_wait_is_zero_when_tokens_available(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.wait_clocks(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestJainIndex:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_one_hot_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


class TestValidation:
    def test_pressure_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PressureConfig(admission_rate=0.0)
        with pytest.raises(ValueError):
            PressureConfig(admission_burst=0)
        with pytest.raises(ValueError):
            PressureConfig(enter_utilization=0.5, exit_utilization=0.8)
        with pytest.raises(ValueError):
            PressureConfig(max_degraded_clock=0)
        with pytest.raises(ValueError):
            PressureConfig(watchdog_page_out=0)

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("", StaticBudget(4))
        with pytest.raises(ValueError):
            TenantSpec("t", StaticBudget(4), priority=7)
        with pytest.raises(TypeError):
            TenantSpec("t", budget=object())

    def test_controller_needs_distinct_tenants(self):
        tracer = Tracer()
        geometry = MemoryGeometry(installed_bytes=1 << 20,
                                  advertised_ratio=2.0)
        ctrl = CompressedMemoryController(compresso_config(), geometry,
                                          tracer=tracer)
        with pytest.raises(ValueError):
            PressureController(ctrl, [])
        dupes = [TenantSpec("t", StaticBudget(4)),
                 TenantSpec("t", StaticBudget(8))]
        with pytest.raises(ValueError):
            PressureController(ctrl, dupes)

    def test_unknown_tenant_is_a_clear_error(self):
        pressure, _, _ = small_node()
        with pytest.raises(KeyError, match="unknown tenant"):
            pressure.write("nobody", 0, 0, bytes(64))


class TestPagingEscalationAPI:
    def test_evict_coldest_takes_lru_order(self):
        pager = LRUPagingSimulator(StaticBudget(10))
        for page in (1, 2, 3, 4):
            pager.touch(page, 0.0)
        pager.touch(1, 0.0)      # page 1 is now the hottest
        assert pager.evict_coldest(2) == [2, 3]
        assert pager.resident_pages == 2

    def test_drop_removes_without_eviction_semantics(self):
        pager = LRUPagingSimulator(StaticBudget(10))
        pager.touch(7, 0.0)
        assert pager.drop(7) is True
        assert pager.drop(7) is False
        assert pager.resident_pages == 0


# ---------------------------------------------------------------------------
# admission control and priority classes
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_best_effort_sheds_when_bucket_dry(self):
        pressure, _, tracer = small_node(rate=1.0, burst=2)
        assert pressure.write("batch", 0, 0, bytes(64)) == "admitted"
        assert pressure.write("batch", 0, 1, bytes(64)) == "admitted"
        assert pressure.write("batch", 0, 2, bytes(64)) == "shed"
        assert pressure.stats.shed == 1
        shed = [e for e in tracer.events if e.name == "request_shed"]
        assert len(shed) == 1
        assert shed[0].args["tenant"] == "batch"
        assert shed[0].args["priority"] == PRIORITY_BEST_EFFORT

    def test_critical_stalls_instead_of_shedding(self):
        pressure, _, tracer = small_node(rate=1.0, burst=1)
        assert pressure.write("crit", 0, 0, bytes(64)) == "admitted"
        assert pressure.write("crit", 0, 1, bytes(64)) == "admitted"
        assert pressure.stats.shed == 0
        assert pressure.stats.throttled == 1
        throttles = [e for e in tracer.events
                     if e.name == "admission_throttled"]
        assert len(throttles) == 1
        assert throttles[0].extra >= 1          # the computed wait
        assert pressure.stall.count == 2        # both requests observed
        assert pressure.stall.maximum >= 1.0

    def test_standard_sheds_past_the_stall_bound(self):
        # rate 0.01/clock: one token costs 100 clocks > max_stall_clock.
        pressure, _, _ = small_node(rate=0.01, burst=1, max_stall_clock=64)
        assert pressure.write("std", 0, 0, bytes(64)) == "admitted"
        assert pressure.write("std", 0, 1, bytes(64)) == "shed"
        assert pressure.stats.shed == 1

    def test_standard_stalls_for_short_waits(self):
        pressure, _, _ = small_node(rate=1.0, burst=1)
        assert pressure.write("std", 0, 0, bytes(64)) == "admitted"
        assert pressure.write("std", 0, 1, bytes(64)) == "admitted"
        assert pressure.stats.throttled == 1

    def test_step_refills_the_bucket(self):
        pressure, _, _ = small_node(rate=2.0, burst=1)
        assert pressure.write("batch", 0, 0, bytes(64)) == "admitted"
        assert pressure.write("batch", 0, 1, bytes(64)) == "shed"
        pressure.step()
        assert pressure.write("batch", 0, 2, bytes(64)) == "admitted"

    def test_reads_are_never_gated(self):
        pressure, _, _ = small_node(rate=1.0, burst=1)
        assert pressure.write("batch", 0, 0, bytes(64)) == "admitted"
        # Bucket is dry; reads still pass and consume nothing.
        for _ in range(5):
            result = pressure.read("batch", 0, 1)
            assert result.data == bytes(64)
        assert pressure.stats.requests == 1      # only the write counted
        assert pressure.write("batch", 0, 2, bytes(64)) == "shed"


# ---------------------------------------------------------------------------
# budgets, OOM absorption, watchdog
# ---------------------------------------------------------------------------

class TestBudgets:
    def test_over_budget_tenant_pages_out_coldest(self):
        tenants = [TenantSpec("std", StaticBudget(2), PRIORITY_STANDARD)]
        pressure, controller, tracer = small_node(tenants=tenants)
        for page in (0, 1):
            assert pressure.install("std", page,
                                    zero_page(controller)) == "admitted"
        assert pressure.install("std", 2,
                                zero_page(controller)) == "admitted"
        assert pressure.stats.over_budget == 1
        assert pressure.stats.page_outs == 1
        assert pressure.tenants["std"].pager.resident_pages == 2
        counts = tracer.counts()
        assert counts["tenant_over_budget"] == 1
        assert counts["tenant_page_out"] == 1
        victims = [e.page for e in tracer.events
                   if e.name == "tenant_page_out"]
        assert victims == [0]                    # the coldest page

    def test_rewriting_an_owned_page_is_not_over_budget(self):
        tenants = [TenantSpec("std", StaticBudget(2), PRIORITY_STANDARD)]
        pressure, controller, _ = small_node(tenants=tenants)
        for page in (0, 1):
            pressure.install("std", page, zero_page(controller))
        for _ in range(4):
            assert pressure.write("std", 1, 0, bytes(64)) == "admitted"
        assert pressure.stats.over_budget == 0


class TestOOMAbsorption:
    def test_escaping_oom_is_absorbed_and_traced(self, monkeypatch):
        pressure, controller, tracer = small_node()

        def boom(page, line, data):
            raise OutOfMemoryError("injected")

        monkeypatch.setattr(controller, "write_line", boom)
        assert pressure.write("crit", 0, 0, bytes(64)) == "denied"
        assert pressure.stats.oom_absorbed == 1
        assert pressure.stats.denied == 1
        assert tracer.counts()["pressure_oom_absorbed"] == 1


class TestWatchdog:
    def _degraded_node(self):
        """Drive a pressure-wrapped node into degraded mode for real."""
        tenants = [TenantSpec("crit", StaticBudget(4096),
                              PRIORITY_CRITICAL)]
        pressure, controller, tracer = small_node(
            rate=10_000.0, burst=10_000, tenants=tenants,
            installed=2 * 1024 * 1024, ratio=4.0)
        page = 0
        while controller.stats.alloc_denials == 0:
            assert page < controller.geometry.ospa_pages, "never exhausted"
            for line in range(64):
                pressure.write("crit", page, line,
                               incompressible(page * 64 + line))
            page += 1
        assert controller.degraded_mode
        return pressure, controller, tracer

    def test_degraded_entry_engages_backpressure(self):
        pressure, _, tracer = self._degraded_node()
        assert pressure.in_pressure
        assert pressure.stats.pressure_enters >= 1
        assert tracer.counts()["pressure_enter"] == \
            pressure.stats.pressure_enters

    def test_dwell_bound_escalates_to_forced_page_out(self):
        pressure, controller, tracer = self._degraded_node()
        # Backdate the dwell timer so the bound is exceeded.
        controller.degraded_since = (
            tracer.clock - pressure.config.max_degraded_clock - 1)
        pressure.step()
        assert pressure.stats.escalations == 1
        assert 1 <= pressure.stats.page_outs <= \
            pressure.config.watchdog_page_out
        counts = tracer.counts()
        assert counts["watchdog_escalation"] == 1
        assert counts["tenant_page_out"] == pressure.stats.page_outs
        if controller.degraded_mode:
            # Still degraded: the timer must have been re-armed.
            assert controller.degraded_since == tracer.clock

    def test_watchdog_quiet_inside_the_dwell_bound(self):
        pressure, controller, tracer = self._degraded_node()
        controller.degraded_since = tracer.clock
        pressure.step()
        assert pressure.stats.escalations == 0
        assert "watchdog_escalation" not in tracer.counts()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_metrics_are_a_flat_number_map(self):
        pressure, controller, _ = small_node()
        for page in range(3):
            pressure.install("crit", page, zero_page(controller))
        metrics = pressure.metrics()
        for key, value in metrics.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float))
            assert not isinstance(value, bool)
        assert metrics["requests"] == 3
        assert 0.0 < metrics["jain_fairness"] <= 1.0
        assert "tenant_crit_resident" in metrics
        assert metrics["tenant_crit_resident"] == 3

    def test_fairness_reflects_satisfied_shares(self):
        tenants = [TenantSpec("a", StaticBudget(4)),
                   TenantSpec("b", StaticBudget(4))]
        pressure, controller, _ = small_node(tenants=tenants)
        assert pressure.fairness() == 1.0        # nobody resident: vacuous
        for page in range(4):
            pressure.install("a", page, zero_page(controller))
        # One tenant fully satisfied, one empty -> Jain = 1/2.
        assert pressure.fairness() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# campaign: cells, drills, acceptance
# ---------------------------------------------------------------------------

class TestRecoveryDrill:
    def test_drill_drains_to_survivor_set(self):
        tenants = [TenantSpec("crit", StaticBudget(16),
                              PRIORITY_CRITICAL)]
        pressure, controller, _ = small_node(tenants=tenants)
        vm = VirtualMemory(total_pages=controller.geometry.ospa_pages)
        pages = []
        for _ in range(6):
            page = vm.allocate_page()
            pressure.install("crit", page, zero_page(controller))
            pages.append(page)
        assert run_recovery_drill(pressure, {"crit": pages}, vm=vm,
                                  keep=2) is True
        assert pressure.tenants["crit"].pager.resident_pages == 2
        assert not controller.degraded_mode


class TestPressureCells:
    def test_collapse_exercises_the_full_ladder_and_recovers(self):
        """The headline cell: compressibility collapse under variable
        allocation reaches degraded mode, the watchdog escalates, and
        the node still recovers with a clean ledger."""
        cell = pressure_cell("collapse", 2.0, allocation="variable",
                             n_steps=160)
        assert cell.degraded_enters > 0
        assert cell.metrics["escalations"] > 0
        assert cell.degraded_exits >= cell.degraded_enters
        assert cell.recovered
        assert cell.unreconciled == []
        assert cell.oom_escaped == 0

    def test_stampede_sheds_by_priority(self):
        cell = pressure_cell("stampede", 2.0, allocation="chunks",
                             n_steps=120)
        metrics = cell.metrics
        assert metrics["shed"] > 0
        assert metrics["tenant_crit_shed"] == 0      # critical never shed
        assert metrics["tenant_batch_shed"] > 0
        assert cell.unreconciled == []
        assert cell.oom_escaped == 0

    def test_full_sweep_acceptance(self):
        """The resilience claims over the whole sweep, as
        ``run --filter pressure`` computes them."""
        from repro.analysis import QUICK, run_pressure
        result = run_pressure(QUICK, runner=None)
        assert len(result.rows) == 3 * 3 * 2
        assert result.summary["oom_escaped"] == 0
        assert result.summary["unreconciled"] == 0
        assert result.summary["all_recovered"] == 1
        for row in result.rows:
            assert 0.0 < row["jain_fairness"] <= 1.0
            assert row["recovered"] == 1
            assert row["unreconciled"] == 0

    def test_campaign_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            pressure_cell("quake", 1.0)
