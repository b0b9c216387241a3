"""Pressure-campaign cells: drive an overload scenario, reconcile, drill.

A campaign cell builds a small compressed-memory node (tight
:class:`~repro.memory.physical.MemoryGeometry`, balloon attached),
puts three priority-classed tenants behind a
:class:`~repro.pressure.controller.PressureController`, and drives
them with one :class:`~repro.workloads.bursts.BurstSchedule` overload
scenario.  After the burst recedes the cell runs a **recovery drill**
(:func:`run_recovery_drill`): tenants release their transient pages,
the balloon deflates, and the node must exit degraded mode.  The sweep
over scenarios x intensities x allocation schemes is
``python -m repro.analysis run --filter pressure``; its headline
resilience claims (docs/PRESSURE.md) are that across the whole sweep

* zero :class:`~repro.memory.allocator.OutOfMemoryError` escape the
  pressure layer,
* zero shed/denied/escalation transitions are unreconciled against
  the trace (no silent drops), and
* every cell that entered degraded mode exits it once pressure
  recedes.

Cells are seeded and wallclock-free, so they are content-addressable
by the runner cache like every other experiment unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .._util import stable_seed
from ..core.ballooning import BalloonDriver
from ..core.config import compresso_config
from ..core.controller import CompressedMemoryController
from ..inject.campaign import matches
from ..machine import LINES_PER_PAGE, PAGE_BYTES
from ..memory.allocator import OutOfMemoryError
from ..memory.physical import MemoryGeometry
from ..obs import Tracer
from ..osmodel.cgroups import StaticBudget
from ..osmodel.vm import VirtualMemory
from ..workloads.bursts import BurstSchedule
from ..workloads.datagen import LineClass, make_line
from .controller import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    PRIORITY_STANDARD,
    PressureConfig,
    PressureController,
    TenantSpec,
)

#: Installed machine-memory pages for a campaign cell: small enough
#: that three tenants' working sets overwhelm it once compressibility
#: collapses (32 installed pages -> 64 OSPA pages at 2x advertised,
#: ~248 data chunks against ~46 pages of degrading content).
_CELL_INSTALLED_PAGES = 32

#: (name, priority, budget pages, footprint pages, base writes/step).
#: Footprints sit just inside the budgets: steady state fills machine
#: memory through content degradation (the Compresso failure mode)
#: rather than through trivially-over-budget tenants.
_TENANT_ROSTER = (
    ("crit", PRIORITY_CRITICAL, 12, 10, 3),
    ("std", PRIORITY_STANDARD, 20, 18, 5),
    ("batch", PRIORITY_BEST_EFFORT, 20, 18, 6),
)

#: Cell admission gate: the roster's baseline is 14 writes/step, so a
#: stampede pulse (2-3x) drains the bucket and gets throttled/shed
#: while steady-state traffic passes untouched.
_CELL_PRESSURE = PressureConfig(admission_rate=16.0, admission_burst=40,
                                max_degraded_clock=64)


@dataclass
class PressureCellOutcome:
    """Reconciled outcome of one (scenario, intensity, allocation) cell."""

    scenario: str
    intensity: float
    allocation: str
    seed: int = 0
    oom_escaped: int = 0
    degraded_enters: int = 0
    degraded_exits: int = 0
    recovered: bool = True
    #: Human-readable reconciliation failures; empty == nothing silent.
    unreconciled: List[str] = field(default_factory=list)
    #: Flat metrics digest from :meth:`PressureController.metrics`.
    metrics: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        metrics = self.metrics
        return {
            "scenario": self.scenario,
            "intensity": self.intensity,
            "allocation": self.allocation,
            "requests": int(metrics.get("requests", 0)),
            "throttled": int(metrics.get("throttled", 0)),
            "shed": int(metrics.get("shed", 0)),
            "denied": int(metrics.get("denied", 0)),
            "oom_absorbed": int(metrics.get("oom_absorbed", 0)),
            "page_outs": int(metrics.get("page_outs", 0)),
            "escalations": int(metrics.get("escalations", 0)),
            "degraded_enters": self.degraded_enters,
            "degraded_exits": self.degraded_exits,
            "oom_escaped": self.oom_escaped,
            "recovered": int(self.recovered),
            "unreconciled": len(self.unreconciled),
            "jain_fairness": metrics.get("jain_fairness", 1.0),
            "stall_p95": metrics.get("stall_p95", 0.0),
            "stall_p99": metrics.get("stall_p99", 0.0),
        }


def _reconcile(pressure: PressureController, tracer: Tracer,
               outcome: PressureCellOutcome) -> None:
    """Cross-check every counter against the trace; record mismatches."""
    counts = tracer.counts()
    stats = pressure.stats
    exact = (
        ("request_shed", stats.shed),
        ("admission_throttled", stats.throttled),
        ("tenant_over_budget", stats.over_budget),
        ("tenant_page_out", stats.page_outs),
        ("watchdog_escalation", stats.escalations),
        ("pressure_oom_absorbed", stats.oom_absorbed),
        ("pressure_enter", stats.pressure_enters),
        ("pressure_exit", stats.pressure_exits),
    )
    for name, counter in exact:
        if counts.get(name, 0) != counter:
            outcome.unreconciled.append(
                f"{name}: {counts.get(name, 0)} events vs "
                f"{counter} counted")
    denials = pressure.controller.stats.alloc_denials
    if counts.get("alloc_denied", 0) != denials:
        outcome.unreconciled.append(
            f"alloc_denied: {counts.get('alloc_denied', 0)} events vs "
            f"{denials} controller denials")
    if stats.denied > counts.get("alloc_denied", 0) + stats.oom_absorbed:
        outcome.unreconciled.append(
            f"denied requests ({stats.denied}) exceed traced denials + "
            f"absorbed OOMs")
    if stats.requests != stats.admitted + stats.shed + stats.denied:
        outcome.unreconciled.append(
            f"request ledger: {stats.requests} != {stats.admitted} admitted "
            f"+ {stats.shed} shed + {stats.denied} denied")
    # Every escalation must have produced a consequence in the trace:
    # a forced page-out or a degraded exit at/after its clock.
    for event in tracer.events:
        if event.name != "watchdog_escalation":
            continue
        if not matches(tracer.events, ("tenant_page_out", "degraded_exit"),
                       clock=event.clock):
            outcome.unreconciled.append(
                f"escalation at clock {event.clock} with no page-out or "
                f"degraded exit after it")


def run_recovery_drill(pressure: PressureController,
                       tenant_pages: Dict[str, List[int]],
                       vm: Optional[VirtualMemory] = None,
                       keep: int = 2, progress: float = 1.0) -> bool:
    """Drain transient pages once pressure recedes; must exit degraded.

    Frees every tenant page beyond a small survivor set (the node must
    recover *while still hosting tenants*, not only when empty),
    deflates the balloon and scrubs.  Returns True when the node ends
    outside degraded mode with the books clean.
    """
    for tenant, pages in sorted(tenant_pages.items()):
        while len(pages) > keep:
            page = pages.pop()
            pressure.free(tenant, page)
            if vm is not None and vm.is_allocated(page):
                vm.free_page(page)
    if pressure.balloon is not None:
        pressure.balloon.deflate()
    problems = pressure.controller.scrub()
    pressure.step(progress)
    return not pressure.controller.degraded_mode and problems == 0


def pressure_cell(scenario: str, intensity: float,
                  allocation: str = "chunks", seed: int = 0,
                  n_steps: int = 160) -> PressureCellOutcome:
    """Run one overload scenario against a small multi-tenant node."""
    schedule = BurstSchedule(scenario, intensity)
    outcome = PressureCellOutcome(scenario=scenario, intensity=intensity,
                                  allocation=allocation, seed=seed)
    tracer = Tracer()
    geometry = MemoryGeometry(installed_bytes=_CELL_INSTALLED_PAGES * PAGE_BYTES,
                              advertised_ratio=2.0)
    controller = CompressedMemoryController(
        compresso_config(allocation=allocation), geometry, tracer=tracer)
    vm = VirtualMemory(total_pages=geometry.ospa_pages)
    balloon = BalloonDriver(controller, vm, safety_chunks=8)
    specs = [TenantSpec(name=name, budget=StaticBudget(budget),
                        priority=priority)
             for name, priority, budget, _, _ in _TENANT_ROSTER]
    pressure = PressureController(controller, specs, balloon=balloon,
                                  config=_CELL_PRESSURE)
    rng = np.random.RandomState(
        stable_seed("pressure", scenario, allocation, seed))

    tenant_pages: Dict[str, List[int]] = {spec.name: [] for spec in specs}
    carry = {spec.name: 0.0 for spec in specs}

    def one_write(name: str, footprint: int, progress: float) -> None:
        pages = tenant_pages[name]
        incompressible = schedule.incompressible_fraction(progress)
        line_class = (LineClass.RANDOM if rng.rand() < incompressible
                      else LineClass.INT_DELTA)
        if len(pages) < footprint and vm.free_pages > 0:
            page = vm.allocate_page()
            vm.touch(page, dirty=True)
            image = [make_line(line_class, rng)
                     for _ in range(LINES_PER_PAGE)]
            if pressure.install(name, page, image, progress) == "shed":
                vm.free_page(page)
            else:
                pages.append(page)
        elif pages:
            page = pages[int(rng.randint(len(pages)))]
            line = int(rng.randint(LINES_PER_PAGE))
            pressure.write(name, page, line,
                           make_line(line_class, rng), progress)
            if vm.is_allocated(page):
                vm.touch(page, dirty=True)

    for step in range(n_steps):
        progress = step / max(1, n_steps - 1)
        for name, _, _, footprint, base_rate in _TENANT_ROSTER:
            rate = schedule.rate_at(progress) * base_rate
            carry[name] += rate
            writes = int(carry[name])
            carry[name] -= writes
            for _ in range(writes):
                try:
                    one_write(name, footprint, progress)
                except OutOfMemoryError:
                    # The resilience contract: the pressure layer
                    # absorbs exhaustion.  Anything arriving here is a
                    # broken ladder, and the campaign reports it.
                    outcome.oom_escaped += 1
        pressure.step(progress)

    # Snapshot fairness/stall/utilization at the end of the burst,
    # before the drill drains the tenants (post-drain fairness is a
    # statement about the drill, not about the overload).
    outcome.metrics = pressure.metrics()
    outcome.recovered = run_recovery_drill(pressure, tenant_pages, vm=vm)
    counts = tracer.counts()
    outcome.degraded_enters = counts.get("degraded_enter", 0)
    outcome.degraded_exits = counts.get("degraded_exit", 0)
    if outcome.degraded_enters > outcome.degraded_exits:
        outcome.recovered = False
    # The drill's own transitions (frees, deflate, possible degraded
    # exit) must reconcile too — refresh the counters it moved.
    final = pressure.metrics()
    for key in ("page_outs", "escalations", "pressure_enters",
                "pressure_exits", "oom_absorbed"):
        outcome.metrics[key] = final[key]
    _reconcile(pressure, tracer, outcome)
    return outcome
