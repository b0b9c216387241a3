"""Tests for the 4-core simulation (§VI-E)."""

import pytest

from repro.core.stats import ControllerStats
from repro.memory.dram import DRAMStats
from repro.simulation import SimulationConfig, simulate_multicore
from repro.simulation.multicore import MulticoreResult
from repro.workloads import mix_profiles

SIM = SimulationConfig(n_events=300, scale=0.02, seed=4)


class TestMulticore:
    def test_runs_a_mix(self):
        profiles = mix_profiles("mix2")
        result = simulate_multicore(profiles, "compresso", SIM, "mix2")
        assert result.mix == "mix2"
        assert len(result.core_cycles) == 4
        assert all(c > 0 for c in result.core_cycles)
        assert all(i > 0 for i in result.core_instructions)

    def test_speedup_is_geomean_of_cores(self):
        profiles = mix_profiles("mix6")
        base = simulate_multicore(profiles, "uncompressed", SIM)
        comp = simulate_multicore(profiles, "compresso", SIM)
        speedup = comp.speedup_over(base)
        assert 0.3 < speedup < 3.0

    def test_shared_controller_sees_all_cores(self):
        profiles = mix_profiles("mix2")
        result = simulate_multicore(profiles, "compresso", SIM)
        # Demand accesses = all cores' events.
        assert result.controller_stats.demand_accesses == 4 * SIM.n_events

    def test_metadata_pressure_of_mix10(self):
        """Mix10 (three graph thrashers) stresses the shared cache more
        than the compute-bound mix6 (§VII-B)."""
        hot = simulate_multicore(mix_profiles("mix10"), "compresso", SIM)
        cold = simulate_multicore(mix_profiles("mix6"), "compresso", SIM)
        assert hot.metadata_hit_rate < cold.metadata_hit_rate

    def test_determinism(self):
        profiles = mix_profiles("mix4")
        a = simulate_multicore(profiles, "lcp", SIM)
        b = simulate_multicore(profiles, "lcp", SIM)
        assert a.core_cycles == b.core_cycles

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            simulate_multicore([], "compresso", SIM)

    def test_reports_sanitizer_and_fault_counts(self):
        """A sanitized, injected 4-core run reports its counts as a
        single-core run does; a plain run reports neither."""
        profiles = mix_profiles("mix6")
        sim = SimulationConfig(n_events=200, scale=0.02, seed=4,
                               sanitize="recover", faults="line:0.05")
        result = simulate_multicore(profiles, "compresso", sim)
        assert result.sanitizer_violations is not None
        assert result.faults_injected > 0
        assert result.final_ratio >= 1.0
        plain = simulate_multicore(profiles, "compresso", SIM)
        assert plain.sanitizer_violations is None
        assert plain.faults_injected is None


class TestSpeedupClamp:
    """Regression: a zero cycle count must not feed ``log(0)``."""

    @staticmethod
    def _result(cycles):
        return MulticoreResult(
            mix="mix1", system="compresso", core_cycles=cycles,
            core_instructions=[100] * len(cycles),
            controller_stats=ControllerStats(), dram_stats=DRAMStats())

    def test_zero_cycles_yield_finite_speedup(self):
        base = self._result([1000, 0, 1000, 1000])
        comp = self._result([500, 500, 0, 500])
        speedup = comp.speedup_over(base)
        assert speedup == speedup and speedup not in (
            float("inf"), float("-inf"))
        assert speedup > 0

    def test_all_zero_is_parity(self):
        zero = self._result([0, 0, 0, 0])
        assert zero.speedup_over(zero) == pytest.approx(1.0)
