"""4-core cycle-based simulation (paper §VI-E, Fig. 11a).

Four benchmarks run against one shared memory system: a single
compressed-memory controller (shared metadata cache — the pressure the
paper highlights for Mixes 4 and 10), a shared DDR4 system, and private
analytic cores.  Cores interleave in simulated time (the one furthest
behind steps next), mimicking zsim's always-under-contention
``syncedFastForward`` methodology (§VI-E).

The interleave is serial by construction: every step reads the shared
controller and DRAM state the previous step left behind, so one run
is one process.  Parallelism lives one level up, across (mix, system)
runs (``run --jobs``, docs/RUNNER.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..cpu.core import AnalyticCore
from ..memory.dram import DRAMStats, DRAMSystem
from ..obs import NULL_TRACER
from ..workloads.profiles import BenchmarkProfile
from ..workloads.tracegen import TraceGenerator, Workload
from .simulator import (
    RATIO_SAMPLES,
    EventEngine,
    SimulationConfig,
    _attach_injector,
    _build_controller,
    _result_tail,
)


@dataclass
class MulticoreResult:
    """Outcome of one (mix, system) 4-core run."""

    mix: str
    system: str
    core_cycles: List[int]
    core_instructions: List[int]
    controller_stats: object
    dram_stats: DRAMStats
    ratio_timeline: List[float] = field(default_factory=list)
    #: ``None`` when the run produced no metadata traffic (e.g. the
    #: uncompressed baseline never probes the metadata cache).
    metadata_hit_rate: Optional[float] = None
    #: Compression ratio after the final metadata flush.
    final_ratio: float = 1.0
    #: Windowed trace digest; only present when the run was traced.
    timeline: Optional[dict] = None
    #: Invariant violations the memory-model sanitizer detected;
    #: ``None`` when the run was not sanitized.
    sanitizer_violations: Optional[int] = None
    #: Faults the injector committed; ``None`` without an injector.
    faults_injected: Optional[int] = None

    def speedup_over(self, baseline: "MulticoreResult") -> float:
        """Geometric mean of per-core speedups (same per-core traces).

        Both sides are clamped to one cycle: a zero entry (a core that
        never stalled, or a degenerate baseline) would otherwise feed
        ``log(0)`` into the geometric mean and poison it with ``-inf``.
        """
        ratios = [
            max(1, b) / max(1, s)
            for b, s in zip(baseline.core_cycles, self.core_cycles)
        ]
        return float(np.exp(np.mean(np.log(ratios))))


def simulate_multicore(profiles: List[BenchmarkProfile], system: str,
                       sim: SimulationConfig = SimulationConfig(),
                       mix_name: str = "", tracer=None) -> MulticoreResult:
    """Run a 4-benchmark mix on one system configuration.

    ``sim.faults`` injects faults as in :func:`~.simulator.simulate`,
    one injector step per interleaved event.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    tracer = tracer if tracer is not None else NULL_TRACER
    workloads = [
        Workload(profile, scale=sim.scale, seed=sim.seed + index)
        for index, profile in enumerate(profiles)
    ]
    offsets = []
    total_pages = 0
    for workload in workloads:
        offsets.append(total_pages)
        total_pages += workload.pages

    controller = _build_controller(system, total_pages, sim, tracer=tracer)
    injector = _attach_injector(controller, sim, tracer)
    with tracer.phase("install"):
        if sim.warm_install:
            for workload, offset in zip(workloads, offsets):
                for page in range(workload.pages):
                    controller.install_page(offset + page,
                                            workload.page_lines(page))

    dram = DRAMSystem()
    cores = [AnalyticCore(mlp=profile.mlp, cpi=profile.base_cpi)
             for profile in profiles]
    engines = []
    iterators = []
    for workload, offset, core in zip(workloads, offsets, cores):
        trace = TraceGenerator(workload, seed=sim.seed)
        engines.append(EventEngine(controller, dram, core, workload,
                                   trace, sim, page_offset=offset,
                                   injector=injector))
        iterators.append(trace.events(sim.n_events))

    remaining = [sim.n_events] * len(profiles)
    ratio_timeline: List[float] = []
    total_steps = sim.n_events * len(profiles)
    sample_every = max(1, total_steps // RATIO_SAMPLES)
    # Always-under-contention interleave: the core furthest behind in
    # simulated time executes its next event.
    with tracer.phase("simulate"):
        for step in range(1, total_steps + 1):
            core_index = min(
                (i for i in range(len(cores)) if remaining[i]),
                key=lambda i: cores[i].now,
            )
            event = next(iterators[core_index])
            progress = (sim.n_events - remaining[core_index]) / sim.n_events
            engines[core_index].step(event, progress)
            remaining[core_index] -= 1
            if step % sample_every == 0:
                ratio_timeline.append(max(1.0, controller.compression_ratio()))

    with tracer.phase("flush"):
        controller.flush_metadata()
    return MulticoreResult(
        mix=mix_name or "+".join(p.name for p in profiles),
        system=system,
        core_cycles=[core.now for core in cores],
        core_instructions=[core.stats.instructions for core in cores],
        controller_stats=controller.stats,
        dram_stats=dram.stats,
        ratio_timeline=ratio_timeline or [controller.compression_ratio()],
        **_result_tail(controller, tracer, injector),
    )
