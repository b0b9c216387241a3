"""Analytic out-of-order core timing model (paper Tab. III).

A 3 GHz, 4-wide OOO core (:mod:`repro.machine`).  Rather than simulating
the pipeline, we use the standard first-order model for trace-driven
memory studies: non-memory work retires at the issue width, demand
misses stall the core for their latency divided by the workload's
memory-level parallelism (an OOO core overlaps independent misses),
and writebacks are posted (they cost bandwidth, not stalls).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import CPU_FREQ_GHZ, ISSUE_WIDTH


@dataclass
class CoreStats:
    instructions: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0

    @property
    def cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class AnalyticCore:
    """Accumulates time for instruction gaps and memory stalls."""

    def __init__(self, mlp: float = 2.0, cpi: float = 0.5) -> None:
        if mlp <= 0:
            raise ValueError("memory-level parallelism must be positive")
        self.mlp = mlp
        # Dependency chains keep real cores well below the issue width;
        # the workload profile supplies its non-memory CPI.
        self.cpi = max(1.0 / ISSUE_WIDTH, cpi)
        self.stats = CoreStats()
        self.now = 0  # current cycle

    def advance_instructions(self, count: int) -> None:
        """Retire ``count`` non-stalled instructions at the profile's CPI."""
        if count < 0:
            raise ValueError("negative instruction count")
        cycles = max(1, round(count * self.cpi)) if count else 0
        self.now += cycles
        self.stats.instructions += count
        self.stats.compute_cycles += cycles

    def stall(self, latency_cycles: int) -> None:
        """Block on a demand miss; OOO overlap divides by MLP."""
        if latency_cycles < 0:
            raise ValueError("negative stall latency")
        effective = int(round(latency_cycles / self.mlp))
        self.now += effective
        self.stats.stall_cycles += effective

    def seconds(self) -> float:
        return self.now / (CPU_FREQ_GHZ * 1e9)
