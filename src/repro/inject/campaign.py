"""Fault-campaign cells: inject, simulate, reconcile outcomes.

A campaign cell runs one cycle-based simulation with a seeded
:class:`~repro.inject.FaultInjector` and ``sanitize="recover"``, then
reconciles every committed :class:`~repro.inject.FaultRecord` against
the trace: did a ``fault_detected`` event flag it, did a ``recovery_*``
event absorb it, or did it persist undetected?  The headline
robustness claim (docs/ROBUSTNESS.md) is that the **silent** column —
corruption that neither detection nor recovery ever saw — is zero.

Outcome classes per fault:

* **detected** — a detection event for the afflicted structure at or
  after the injection clock (``fault_detected``; for allocator
  exhaustion, entering the pressure path: ``degraded_enter``,
  ``emergency_repack``, ``alloc_denied`` or ``balloon_inflation``).
* **recovered** — a recovery event followed: the page rebuilt
  uncompressed (or parked safely via ``alloc_denied``), the cache
  entry invalidated, the books repaired, or the degraded mode exited.
* **masked** — an exhaustion fault that never came under allocation
  pressure before the run ended: nothing to detect.
* **silent** — a corruption fault with no matching detection event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..obs import Tracer
from ..simulation.simulator import SimulationConfig, simulate
from ..workloads.profiles import get_profile
from .faults import FaultInjector, FaultRecord, FaultSpec

#: Event names that count as *detection*, per fault site.
_DETECT = {
    "line": ("fault_detected",),
    "meta": ("fault_detected",),
    "mdcache": ("fault_detected",),
    "double-grant": ("fault_detected",),
    "alloc-exhaust": ("degraded_enter", "emergency_repack",
                      "alloc_denied", "balloon_inflation"),
}

#: Event names that count as *recovery*, per fault site.
_RECOVER = {
    "line": ("recovery_uncompressed", "alloc_denied"),
    "meta": ("recovery_uncompressed", "alloc_denied"),
    "mdcache": ("recovery_mdcache",),
    "double-grant": ("recovery_alloc_books",),
    "alloc-exhaust": ("alloc_denied", "emergency_repack", "degraded_exit"),
}

#: Sites whose faults corrupt state (an undetected one is *silent*);
#: the rest exert pressure (an unexercised one is *masked*).
_CORRUPTION_SITES = ("line", "meta", "mdcache", "double-grant")


@dataclass
class CellOutcome:
    """Reconciled outcome of one (site, rate) campaign cell."""

    site: str
    rate: float
    injected: int = 0
    detected: int = 0
    recovered: int = 0
    masked: int = 0
    silent: int = 0
    #: fault_id -> ("detected"/"recovered"/"masked"/"silent")
    outcomes: Dict[int, str] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        return {"site": self.site, "rate": self.rate,
                "injected": self.injected, "detected": self.detected,
                "recovered": self.recovered, "masked": self.masked,
                "silent": self.silent}


def matches(events, names: Tuple[str, ...], page: Optional[int] = None,
            clock: int = 0, invariant: Optional[str] = None) -> bool:
    """Is there an event in ``names`` for this fault at/after ``clock``?

    Shared by the fault campaign and the pressure campaign
    (repro.pressure, docs/PRESSURE.md): both reconcile per-record
    outcomes against the trace by (name set, page, clock) filters.
    """
    for event in events:
        if event.name not in names or event.clock < clock:
            continue
        if page is not None and event.page != page:
            continue
        if invariant is not None:
            listed = (event.args or {}).get("invariants", ())
            if invariant not in listed:
                continue
        return True
    return False


def reconcile(records: Sequence[FaultRecord], events) -> CellOutcome:
    """Classify every fault record against the trace events.

    ``site``/``rate`` on the returned outcome are filled by the caller;
    mixed-site record lists are fine (each record carries its site).
    """
    outcome = CellOutcome(site="", rate=0.0)
    for record in records:
        outcome.injected += 1
        # Global-books faults carry no page; match on the invariant
        # name instead so a page-scoped detection cannot stand in.
        invariant = "alloc-books" if record.site == "double-grant" else None
        page = record.page if record.site in _CORRUPTION_SITES else None
        detected = matches(events, _DETECT[record.site], page,
                           record.clock, invariant)
        recovered = detected and matches(
            events, _RECOVER[record.site], page, record.clock)
        if detected:
            outcome.detected += 1
            if recovered:
                outcome.recovered += 1
            outcome.outcomes[record.fault_id] = (
                "recovered" if recovered else "detected")
        elif record.site in _CORRUPTION_SITES:
            outcome.silent += 1
            outcome.outcomes[record.fault_id] = "silent"
        else:
            outcome.masked += 1
            outcome.outcomes[record.fault_id] = "masked"
    return outcome


def campaign_cell(site: str, rate: float, benchmark: str = "gcc",
                  seed: int = 0, n_events: int = 2000,
                  scale: float = 0.05) -> CellOutcome:
    """Run one Compresso fault-injection simulation and reconcile it.

    One cell of ``python -m repro.analysis run --filter faults``
    (docs/ROBUSTNESS.md), which sweeps sites x rates and requires
    ``silent == 0`` in every cell.
    """
    tracer = Tracer()
    injector = FaultInjector(FaultSpec(site, rate), seed=seed)
    sim = SimulationConfig(n_events=n_events, scale=scale, seed=seed,
                           sanitize="recover")
    simulate(get_profile(benchmark), "compresso", sim, tracer=tracer,
             injector=injector)
    outcome = reconcile(injector.records, tracer.events)
    outcome.site = site
    outcome.rate = rate
    return outcome
