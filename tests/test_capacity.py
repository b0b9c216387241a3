"""Tests for the capacity-impact evaluation (§VI-A, Tab. II)."""

from repro.simulation import CapacityConfig, capacity_impact
from repro.workloads import get_profile, mix_profiles

CONFIG = CapacityConfig(memory_fraction=0.7, n_touches=15000,
                        footprint_pages=300)


class TestCapacityImpact:
    def test_ordering_constrained_le_compressed_le_unconstrained(self):
        profile = get_profile("soplex")
        result = capacity_impact([profile], {"compresso": [2.4]}, CONFIG)
        assert result.benchmark == "soplex"
        assert result.relative("compresso") >= 1.0
        assert (result.relative("compresso")
                <= result.relative("unconstrained") + 1e-9)

    def test_better_ratio_helps_more(self):
        profile = get_profile("milc")
        result = capacity_impact(
            [profile], {"weak": [1.2], "strong": [2.5]}, CONFIG)
        assert result.relative("strong") >= result.relative("weak")

    def test_stallers_flagged(self):
        profile = get_profile("mcf")
        result = capacity_impact(
            [profile], {"compresso": [1.3]},
            CapacityConfig(memory_fraction=0.6, n_touches=15000,
                           footprint_pages=300))
        assert result.stalled

    def test_insensitive_benchmark_flat(self):
        profile = get_profile("gamess")
        result = capacity_impact([profile], {"compresso": [1.7]}, CONFIG)
        assert result.relative("unconstrained") < 1.15

    def test_timeline_is_used(self):
        """A ratio that collapses mid-run must hurt vs a steady one."""
        profile = get_profile("soplex")
        steady = capacity_impact([profile], {"c": [2.0] * 10}, CONFIG)
        collapsing = capacity_impact(
            [profile], {"c": [2.0] * 5 + [1.0] * 5}, CONFIG)
        assert collapsing.relative("c") <= steady.relative("c") + 1e-9


class TestMulticoreCapacity:
    def test_shared_budget_run(self):
        profiles = mix_profiles("mix2")
        result = capacity_impact(
            profiles, {"compresso": [1.8]},
            CapacityConfig(memory_fraction=0.7, n_touches=12000,
                           footprint_pages=200))
        assert result.relative("compresso") >= 1.0
        assert (result.relative("compresso")
                <= result.relative("unconstrained") + 1e-9)

    def test_mix_name(self):
        profiles = mix_profiles("mix9")
        result = capacity_impact(
            profiles, {"compresso": [1.8]},
            CapacityConfig(memory_fraction=0.7, n_touches=8000,
                           footprint_pages=150))
        assert "Forestfire" in result.benchmark
