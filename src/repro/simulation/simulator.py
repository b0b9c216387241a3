"""Cycle-based simulation driver (paper §VI, Figs. 10a/11a "Cycle-Based").

Feeds a benchmark's LLC-level trace through a memory system — the
uncompressed baseline or a compressed controller — over the DDR4 timing
model and the analytic core.  Captures everything the experiments need:
cycles (→ relative performance), the controller's data-movement stats
(→ Figs. 4/6), DRAM traffic (→ energy), and a compression-ratio
timeline (→ the capacity runs' dynamic budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.config import CompressoConfig
from ..core.controller import CompressedMemoryController
from ..core.stats import ControllerStats
from ..cpu.core import AnalyticCore
from ..machine import (
    LINE_BYTES,
    METADATA_CACHE_ASSOC,
    METADATA_ENTRY_BYTES,
    OS_PAGE_FAULT_CYCLES,
    PAGE_BYTES,
)
from ..memory.dram import DRAMStats, DRAMSystem
from ..memory.physical import MemoryGeometry
from ..memory.request import AccessCategory, AccessKind, AccessResult, MemAccess
from ..obs import NULL_TRACER, timeline_digest
from ..workloads.profiles import BenchmarkProfile
from ..workloads.tracegen import TraceGenerator, Workload
from .configs import system_config

#: Samples in the compression-ratio timeline.
RATIO_SAMPLES = 20
#: Fraction of a *sequential* demand read's latency hidden by the
#: core's stream prefetcher (all systems benefit equally); without
#: it, an analytic core overstates how memory-latency-bound
#: streaming workloads are, and with them every bandwidth benefit.
PREFETCH_HIDE = 0.6
#: Visible-latency weight of the second and later accesses in a
#: serial critical chain (metadata miss -> data); 1.0 models full
#: serialization.  Metadata fetches are already prioritized in the
#: DRAM model, so full serialization is the honest default.
SERIAL_OVERLAP = 1.0


@dataclass
class SimulationConfig:
    """Knobs for one cycle-based run."""

    n_events: int = 40000
    scale: float = 0.25              # footprint scale factor
    seed: int = 0
    warm_install: bool = True        # pre-populate memory (CompressPoint)
    #: Attach the memory-model sanitizer (repro.check.sanitizer): the
    #: controller re-verifies its layout and allocator invariants after
    #: every operation, and the result reports the violation count.
    #: Beyond True/False this accepts ``"strict"`` (raise on the first
    #: violation) and ``"recover"`` (repair detected corruption via the
    #: decompress-and-mark-uncompressed fallback, docs/ROBUSTNESS.md).
    sanitize: object = False
    #: Fault-injection spec (``repro.inject`` grammar, e.g.
    #: ``"line:0.01,meta:0.005"``); ``None`` disables injection.  The
    #: injector is seeded from ``seed`` and steps once per trace event
    #: (per interleaved event in a multicore run).
    #: Pair with ``sanitize="recover"`` for detect-and-recover runs.
    faults: Optional[str] = None


@dataclass
class SimulationResult:
    """Outcome of one (benchmark, system) cycle-based run."""

    benchmark: str
    system: str
    cycles: int
    instructions: int
    controller_stats: ControllerStats
    dram_stats: DRAMStats
    ratio_timeline: List[float] = field(default_factory=list)
    #: Metadata-cache hit rate; ``None`` when the run produced no
    #: metadata traffic (uncompressed baseline, or zero lookups).
    metadata_hit_rate: Optional[float] = None
    #: Compression ratio after the final metadata flush (all pending
    #: repack triggers fired) — what a long-running system converges to.
    final_ratio: float = 1.0
    #: Windowed trace digest (``repro.obs.timeline.timeline_digest``);
    #: only present when the run was traced.
    timeline: Optional[dict] = None
    #: Invariant violations the memory-model sanitizer detected;
    #: ``None`` when the run was not sanitized (``sanitize=False``).
    sanitizer_violations: Optional[int] = None
    #: Faults the injector committed; ``None`` when the run had no
    #: injector (``faults=None``).
    faults_injected: Optional[int] = None

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Relative performance vs. a run of the same trace."""
        if baseline.instructions != self.instructions:
            raise ValueError("speedup requires runs over the same trace")
        return baseline.cycles / self.cycles


class UncompressedController:
    """Baseline memory controller: one access per fill/writeback."""

    def __init__(self) -> None:
        self.stats = ControllerStats()

    def read_line(self, page: int, line: int) -> AccessResult:
        self.stats.demand_reads += 1
        address = page * PAGE_BYTES + line * LINE_BYTES
        return AccessResult(accesses=[
            MemAccess(AccessKind.READ, AccessCategory.DEMAND, address)
        ])

    def write_line(self, page: int, line: int, data: bytes) -> AccessResult:
        self.stats.demand_writes += 1
        address = page * PAGE_BYTES + line * LINE_BYTES
        return AccessResult(accesses=[
            MemAccess(AccessKind.WRITE, AccessCategory.DEMAND, address,
                      critical=False)
        ])

    def install_page(self, page: int, lines) -> None:
        """Uncompressed memory needs no installation bookkeeping."""

    def compression_ratio(self) -> float:
        return 1.0

    def flush_metadata(self):
        return []


def _build_controller(system: str, workload_pages: int,
                      sim: SimulationConfig,
                      config: Optional[CompressoConfig] = None,
                      tracer=NULL_TRACER):
    if config is None:
        config = system_config(system)
    if config is None:
        return UncompressedController()
    if sim.scale < 1.0:
        # Scale the metadata cache with the footprint so the working-set
        # / cache-reach ratio matches the full-size system (96 KB vs.
        # real footprints).
        entry_set = METADATA_CACHE_ASSOC * METADATA_ENTRY_BYTES
        scaled = max(entry_set, int(config.metadata_cache_bytes * sim.scale))
        scaled -= scaled % entry_set
        config = config.replace(metadata_cache_bytes=scaled)
    footprint = workload_pages * PAGE_BYTES
    # Cycle-based runs are not capacity constrained (8 GB in Tab. III):
    # install enough machine memory for the worst (incompressible) case
    # plus metadata, and advertise at least the workload's OSPA range.
    installed = footprint * 2 + (32 << 20)
    geometry = MemoryGeometry(
        installed_bytes=installed,
        advertised_ratio=max(
            2.0, (workload_pages + 64) * PAGE_BYTES * 1.1 / installed),
    )
    return CompressedMemoryController(config, geometry, tracer=tracer,
                                      sanitize=sim.sanitize)


def _attach_injector(controller, sim: SimulationConfig, tracer,
                     injector=None):
    """The fault injector for a run, bound to its controller.

    Built from ``sim.faults`` unless one is given; ``None`` when there
    is nothing to inject (no spec, or the uncompressed baseline).
    """
    if injector is None and sim.faults:
        from ..inject import FaultInjector
        injector = FaultInjector(sim.faults, seed=sim.seed)
    if injector is None or isinstance(controller, UncompressedController):
        return None
    return injector.bind(controller, tracer)


class EventEngine:
    """Processes one core's trace events against a (possibly shared)
    controller + DRAM.  Used by both the single-core and 4-core drivers;
    a bound fault injector steps once after every event."""

    def __init__(self, controller, dram: DRAMSystem, core: AnalyticCore,
                 workload: Workload, trace: TraceGenerator,
                 sim: SimulationConfig, page_offset: int = 0,
                 injector=None) -> None:
        self.controller = controller
        self.injector = injector
        self.dram = dram
        self.core = core
        self.workload = workload
        self.trace = trace
        self.page_offset = page_offset
        self._phase_rng = np.random.RandomState(sim.seed + 1 + page_offset)
        self._last_read = (-1, -1)

    def step(self, event, progress: float) -> None:
        """Advance the core through one trace event."""
        core = self.core
        controller = self.controller
        page = self.page_offset + event.page
        core.advance_instructions(event.gap)
        if event.is_writeback:
            override = self.trace.overwrite_class_at(progress, self._phase_rng)
            data = self.workload.apply_writeback(event.page, event.line,
                                                 override)
            faults_before = controller.stats.os_page_faults
            result = controller.write_line(page, event.line, data)
            _issue(self.dram, core.now, result, stall_core=None)
            faults = controller.stats.os_page_faults - faults_before
            if faults:
                core.stall(faults * OS_PAGE_FAULT_CYCLES)
        else:
            result = controller.read_line(page, event.line)
            latency = _issue(self.dram, core.now, result, stall_core=core)
            latency += result.controller_cycles
            sequential = (
                event.page == self._last_read[0]
                and event.line == self._last_read[1] + 1
            )
            if sequential:
                latency = int(latency * (1.0 - PREFETCH_HIDE))
            core.stall(latency)
            self._last_read = (event.page, event.line)
        if self.injector is not None:
            self.injector.step()


def simulate(profile: BenchmarkProfile, system: str,
             sim: SimulationConfig = SimulationConfig(),
             config: Optional[CompressoConfig] = None,
             tracer=None, injector=None) -> SimulationResult:
    """Run one benchmark on one system configuration.

    ``system`` is a named configuration (§VI-F); pass ``config`` to run
    an explicit :class:`CompressoConfig` design point instead (the
    Fig. 4/6 ladders and ablations do this), with ``system`` then used
    only as the result label.  Pass a :class:`repro.obs.Tracer` to
    record controller events and wall-clock phase timings; the result
    then carries a windowed timeline digest.  A ``repro.inject``
    :class:`~repro.inject.FaultInjector` (given explicitly or built
    from ``sim.faults``) is stepped once per trace event against the
    compressed controller.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    workload = Workload(profile, scale=sim.scale, seed=sim.seed)
    controller = _build_controller(system, workload.pages, sim, config,
                                   tracer=tracer)
    injector = _attach_injector(controller, sim, tracer, injector)
    with tracer.phase("install"):
        if sim.warm_install:
            for page in range(workload.pages):
                controller.install_page(page, workload.page_lines(page))

    core = AnalyticCore(mlp=profile.mlp, cpi=profile.base_cpi)
    dram = DRAMSystem()
    trace = TraceGenerator(workload, seed=sim.seed)
    engine = EventEngine(controller, dram, core, workload, trace, sim,
                         injector=injector)

    ratio_timeline: List[float] = []
    sample_every = max(1, sim.n_events // RATIO_SAMPLES)

    with tracer.phase("simulate"):
        for index, event in enumerate(trace.events(sim.n_events)):
            engine.step(event, progress=index / sim.n_events)
            if index % sample_every == 0:
                ratio_timeline.append(max(1.0, controller.compression_ratio()))

    with tracer.phase("flush"):
        controller.flush_metadata()
    return SimulationResult(
        benchmark=profile.name,
        system=system,
        cycles=max(1, core.now),
        instructions=core.stats.instructions,
        controller_stats=controller.stats,
        dram_stats=dram.stats,
        ratio_timeline=ratio_timeline,
        **_result_tail(controller, tracer, injector),
    )


def _result_tail(controller, tracer, injector) -> dict:
    """The result fields every cycle-based driver reports the same way,
    read after the final metadata flush."""
    sanitizer = getattr(controller, "sanitizer", None)
    return dict(
        final_ratio=max(1.0, controller.compression_ratio()),
        metadata_hit_rate=controller.stats.metadata_hit_rate(),
        timeline=(
            timeline_digest(tracer.events, tracer.digest_window,
                            end_clock=tracer.clock)
            if tracer.enabled else None
        ),
        sanitizer_violations=(
            sanitizer.violation_count if sanitizer is not None else None
        ),
        faults_injected=(
            len(injector.records) if injector is not None else None
        ),
    )


def _issue(dram: DRAMSystem, now: int, result: AccessResult,
           stall_core) -> int:
    """Issue a result's DRAM accesses; returns critical-path latency.

    Critical accesses serialize in DRAM-time (metadata before data),
    and the *visible* latency of later chain links is weighted by
    :data:`SERIAL_OVERLAP`.  Non-critical accesses (writebacks,
    movement traffic, speculation) are posted at ``now`` and only cost
    bandwidth.
    """
    t = now
    visible = 0.0
    first = True
    for access in result.accesses:
        if access.critical and stall_core is not None:
            done = dram.access(t, access)
            service = done - t
            visible += service if first else service * SERIAL_OVERLAP
            first = False
            t = done
        else:
            dram.access(now, access)
    return int(visible)
