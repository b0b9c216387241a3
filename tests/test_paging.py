"""Tests for the LRU paging model and budgets (§VI-A)."""

import pytest

from repro.osmodel import (
    DynamicBudget,
    LRUPagingSimulator,
    PagingCostModel,
    StaticBudget,
    run_capacity_simulation,
)
from repro.workloads import get_profile


class TestBudgets:
    def test_static_budget_constant(self):
        budget = StaticBudget(100)
        assert budget.resident_limit(0.0) == 100
        assert budget.resident_limit(0.99) == 100

    def test_dynamic_budget_scales_with_ratio(self):
        budget = DynamicBudget(100, [1.0, 2.0, 4.0])
        assert budget.resident_limit(0.0) == 100
        assert budget.resident_limit(0.5) == 200
        assert budget.resident_limit(0.99) == 400

    def test_dynamic_budget_validation(self):
        with pytest.raises(ValueError):
            DynamicBudget(0, [2.0])
        with pytest.raises(ValueError):
            DynamicBudget(10, [])
        with pytest.raises(ValueError):
            DynamicBudget(10, [0.5])


class TestLRUPaging:
    def test_working_set_within_budget_no_faults(self):
        sim = LRUPagingSimulator(StaticBudget(10))
        for _ in range(5):
            for page in range(10):
                sim.touch(page, 0.0)
        # Only the 10 cold faults.
        assert sim.stats.faults == 10

    def test_thrash_when_budget_too_small(self):
        sim = LRUPagingSimulator(StaticBudget(5))
        # Cyclic access over 10 pages with LRU: every touch faults.
        for _ in range(3):
            for page in range(10):
                sim.touch(page, 0.0)
        assert sim.stats.faults == 30

    def test_budget_growth_mid_run_keeps_pages(self):
        budget = DynamicBudget(5, [1.0, 2.0])
        sim = LRUPagingSimulator(budget)
        for page in range(10):
            sim.touch(page, 0.6)  # second half: limit 10
        faults_first = sim.stats.faults
        for page in range(10):
            sim.touch(page, 0.6)
        assert sim.stats.faults == faults_first  # all resident now

    def test_eviction_counts(self):
        sim = LRUPagingSimulator(StaticBudget(2))
        for page in range(4):
            sim.touch(page, 0.0)
        assert sim.stats.evictions == 2
        assert sim.resident_pages == 2


class TestCostModel:
    def test_runtime_formula(self):
        from repro.osmodel import PagingStats
        stats = PagingStats(touches=1000, faults=10)
        model = PagingCostModel(touch_cost=1.0, fault_cost=600.0)
        assert model.runtime(stats) == 1000 + 6000


class TestCapacityRuns:
    def test_compression_reduces_faults(self):
        """A dynamic (compressed) budget must fault less than static."""
        profile = get_profile("soplex")
        pages = 400
        budget_pages = int(pages * 0.7)
        static_stats, static_rt = run_capacity_simulation(
            [profile], StaticBudget(budget_pages), n_touches=20000,
            footprint_pages=pages)
        dynamic_stats, dynamic_rt = run_capacity_simulation(
            [profile], DynamicBudget(budget_pages, [2.0]), n_touches=20000,
            footprint_pages=pages)
        assert dynamic_stats.faults <= static_stats.faults
        assert dynamic_rt <= static_rt

    def test_unconstrained_is_upper_bound(self):
        profile = get_profile("soplex")
        pages = 400
        _, constrained = run_capacity_simulation(
            [profile], StaticBudget(int(pages * 0.6)), n_touches=20000,
            footprint_pages=pages)
        _, unconstrained = run_capacity_simulation(
            [profile], StaticBudget(pages), n_touches=20000,
            footprint_pages=pages)
        assert unconstrained <= constrained

    def test_insensitive_benchmark_barely_reacts(self):
        """gamess-style small working sets fit even constrained budgets."""
        profile = get_profile("gamess")
        pages = 400
        _, constrained = run_capacity_simulation(
            [profile], StaticBudget(int(pages * 0.7)), n_touches=20000,
            footprint_pages=pages)
        _, unconstrained = run_capacity_simulation(
            [profile], StaticBudget(pages), n_touches=20000,
            footprint_pages=pages)
        assert constrained <= unconstrained * 1.1

    def test_determinism(self):
        profile = get_profile("mcf")
        a = run_capacity_simulation([profile], StaticBudget(100),
                                    n_touches=5000, footprint_pages=300)
        b = run_capacity_simulation([profile], StaticBudget(100),
                                    n_touches=5000, footprint_pages=300)
        assert a[0].faults == b[0].faults
