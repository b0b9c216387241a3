"""Tests for the cycle-based simulation driver."""

import pytest

from repro.core.config import compresso_config
from repro.simulation import (
    SimulationConfig,
    simulate,
    system_config,
)
from repro.workloads import get_profile

SIM = SimulationConfig(n_events=600, scale=0.02, seed=3)


class TestSystemConfigs:
    def test_named_systems(self):
        assert system_config("uncompressed") is None
        assert system_config("lcp").packing == "lcp"
        assert system_config("lcp").speculative_access
        assert system_config("compresso").packing == "linepack"
        assert system_config("compresso").os_transparent

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            system_config("zram")

    def test_lcp_align_bins(self):
        from repro.core.config import ALIGNMENT_FRIENDLY_LINE_BINS
        assert system_config("lcp+align").line_bins == \
            ALIGNMENT_FRIENDLY_LINE_BINS


class TestSimulate:
    def test_runs_all_systems(self):
        profile = get_profile("gcc")
        results = {system: simulate(profile, system, SIM)
                   for system in ("uncompressed", "lcp", "compresso")}
        assert set(results) == {"uncompressed", "lcp", "compresso"}
        for result in results.values():
            assert result.cycles > 0
            assert result.instructions > 0

    def test_speedup_requires_same_trace(self):
        a = simulate(get_profile("gcc"), "compresso", SIM)
        other = SimulationConfig(n_events=500, scale=0.02, seed=3)
        b = simulate(get_profile("gcc"), "uncompressed", other)
        with pytest.raises(ValueError):
            a.speedup_over(b)

    def test_determinism(self):
        a = simulate(get_profile("astar"), "compresso", SIM)
        b = simulate(get_profile("astar"), "compresso", SIM)
        assert a.cycles == b.cycles
        assert a.ratio_timeline == b.ratio_timeline

    def test_compressible_workload_has_ratio_above_one(self):
        result = simulate(get_profile("zeusmp"), "compresso", SIM)
        assert result.final_ratio > 1.3

    def test_custom_config_override(self):
        config = compresso_config(enable_repacking=False)
        result = simulate(get_profile("gcc"), "custom", SIM, config=config)
        assert result.controller_stats.repack_events == 0

    def test_uncompressed_accesses_match_events(self):
        result = simulate(get_profile("povray"), "uncompressed", SIM)
        assert result.dram_stats.accesses == SIM.n_events

    def test_compresso_beats_lcp_on_mcf(self):
        """The paper's ordering on a split/metadata-bound benchmark:
        plain LCP pays splits and page faults that Compresso avoids."""
        profile = get_profile("mcf")
        sim = SimulationConfig(n_events=2000, scale=0.02, seed=3)
        results = {system: simulate(profile, system, sim)
                   for system in ("uncompressed", "lcp", "compresso")}
        base = results["uncompressed"]
        lcp = results["lcp"].speedup_over(base)
        compresso = results["compresso"].speedup_over(base)
        assert compresso > lcp - 0.05

    def test_zero_heavy_workload_saves_accesses(self):
        result = simulate(get_profile("leslie3d"), "compresso", SIM)
        stats = result.controller_stats
        assert stats.saved_accesses > 0
