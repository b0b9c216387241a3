"""Memory-capacity impact evaluation (paper §VI-A, Tab. II, Fig. 10a/11a).

Reproduces the paper's novel methodology: run the workload under a
memory budget constrained to a fraction of its footprint.

* The **uncompressed constrained** system gets a static budget (the
  cgroups limit) — this is the baseline all Tab. II numbers are
  relative to.
* A **compressed** system gets a dynamic budget: the same machine
  memory, stretched by the workload's real-time compression ratio
  (the saved ratio-vs-instructions vectors of §VI-A) — but only up to
  the OSPA space the system advertises.
* The **unconstrained** system gets the full footprint (upper bound).

Runtime is CPU time plus page-fault service; relative performance is
the ratio of runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..osmodel.cgroups import DynamicBudget, StaticBudget
from ..osmodel.paging import PagingCostModel, run_capacity_simulation
from ..workloads.profiles import BenchmarkProfile


@dataclass
class CapacityConfig:
    """Knobs for one capacity-impact evaluation."""

    memory_fraction: float = 0.7      # budget / footprint (Tab. II rows)
    n_touches: int = 40000
    seed: int = 0
    footprint_pages: Optional[int] = None  # per profile; default: its footprint
    cost_model: PagingCostModel = PagingCostModel()


@dataclass
class CapacityResult:
    """Relative performance of each system vs. uncompressed constrained."""

    benchmark: str
    memory_fraction: float
    runtimes: Dict[str, float]
    fault_rates: Dict[str, float]

    def relative(self, system: str) -> float:
        """Speedup of ``system`` over the uncompressed constrained run."""
        return self.runtimes["constrained"] / self.runtimes[system]

    @property
    def stalled(self) -> bool:
        """Paper's stall criterion: paging dominates the constrained run
        (the runtime is several times the unconstrained system's)."""
        return (self.fault_rates["constrained"] > 0.25
                or self.runtimes["constrained"]
                > 5 * self.runtimes["unconstrained"])


def capacity_impact(profiles: Sequence[BenchmarkProfile],
                    ratio_timelines: Dict[str, Sequence[float]],
                    config: CapacityConfig = CapacityConfig()
                    ) -> CapacityResult:
    """Run the §VI-A methodology for one benchmark or one 4-core mix.

    A single benchmark passes ``[profile]``.  The profiles' combined
    footprint is budgeted as a whole, so in a mix a compressible
    benchmark frees room for an incompressible one — the slack effect
    the paper describes for Mixes 2/4/5/7 (§VII-B).

    ``ratio_timelines`` maps system name → compression-ratio samples
    over the run (from the cycle-based simulation); the uncompressed
    constrained and unconstrained runs are added automatically.
    """
    footprint = sum(config.footprint_pages or p.footprint_pages
                    for p in profiles)
    budget_pages = max(1, int(footprint * config.memory_fraction))

    budgets = {
        "constrained": StaticBudget(budget_pages),
        "unconstrained": StaticBudget(footprint),
    }
    for system, timeline in ratio_timelines.items():
        samples = [max(1.0, r) for r in timeline] or [1.0]
        budgets[system] = DynamicBudget(budget_pages, samples)

    runtimes: Dict[str, float] = {}
    fault_rates: Dict[str, float] = {}
    for system, budget in budgets.items():
        stats, runtime = run_capacity_simulation(
            profiles, budget,
            n_touches=config.n_touches,
            seed=config.seed,
            footprint_pages=config.footprint_pages,
            cost_model=config.cost_model,
        )
        runtimes[system] = runtime
        fault_rates[system] = stats.fault_rate()
    return CapacityResult(
        benchmark="+".join(p.name for p in profiles),
        memory_fraction=config.memory_fraction,
        runtimes=runtimes,
        fault_rates=fault_rates,
    )
