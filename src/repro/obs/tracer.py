"""Event tracer: structured controller events on a simulated-access clock.

The paper's overhead decomposition (§IV, Figs. 4/6) is a *time series*
phenomenon — overflow storms, repack cascades and metadata-miss bursts
come and go with execution phases — but aggregate counters flatten it.
The tracer captures each such event as it happens, stamped with a
**clock** that counts demand accesses (LLC fills + writebacks), i.e.
the same denominator the Fig. 4 metric uses.  Windowing the events by
clock (``repro.obs.timeline``) recovers the per-phase breakdown.

Two implementations share one interface:

* :data:`NULL_TRACER` (a :class:`NullTracer`) — the zero-overhead
  default.  Every hook is a no-op; instrumented code never branches on
  a flag, it just calls ``tracer.tick()`` / ``tracer.emit(...)`` and
  the null methods return immediately.
* :class:`Tracer` — records :class:`TraceEvent` objects and wall-clock
  phase spans for export.

Event names are registered in :data:`EVENT_SOURCES`, which maps each
to the §IV extra-access source it contributes to (``"split"``,
``"overflow"``, ``"metadata"``) or ``None`` for purely informational
events.  The ``stats-emit`` and ``emit-registered`` lint rules
(docs/LINTING.md) check that every ``stats.<counter> +=`` site in
``core/`` has an adjacent emit and that every emitted name is
registered here.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: §IV extra-access sources (the Fig. 4 stack segments).
SOURCE_SPLIT = "split"
SOURCE_OVERFLOW = "overflow"
SOURCE_METADATA = "metadata"
SOURCES = (SOURCE_SPLIT, SOURCE_OVERFLOW, SOURCE_METADATA)

#: Every known event name -> the extra-access source its ``extra``
#: field is attributed to (None = informational, carries no extra
#: accesses).  The per-source sums over a full trace reconcile exactly
#: with ControllerStats: ``split`` == ``split_accesses``, ``overflow``
#: == ``compression_change_accesses``, ``metadata`` ==
#: ``metadata_miss_accesses + metadata_writebacks``.
EVENT_SOURCES: Dict[str, Optional[str]] = {
    # extra-access-bearing events
    "split_access": SOURCE_SPLIT,
    "overflow_traffic": SOURCE_OVERFLOW,       # line-overflow data movement
    "repack": SOURCE_OVERFLOW,                 # §IV-B4 repack traffic
    "speculation_wasted": SOURCE_OVERFLOW,     # LCP speculative misfire
    "metadata_miss": SOURCE_METADATA,
    "metadata_writeback": SOURCE_METADATA,
    # controller events (no extra-access attribution)
    "zero_line_read": None,
    "zero_line_write": None,
    "prefetch_hit": None,
    "line_overflow": None,
    "line_underflow": None,
    "page_overflow": None,
    "ir_expansion": None,
    "metadata_hit": None,
    "predictor_inflation": None,
    "predictor_fire": None,
    "os_page_fault": None,
    # ballooning (§V-B)
    "balloon_inflation": None,
    "balloon_page_out": None,
    "balloon_reclaim": None,
    "balloon_deflate": None,
    # metadata-cache internals (§IV-B5)
    "mdcache_hit": None,
    "mdcache_miss": None,
    "mdcache_evict": None,
    "mdcache_half_fill": None,
    # memory-model sanitizer (repro.check.sanitizer, docs/LINTING.md)
    "sanitizer_violation": None,
    # fault injection + recovery (repro.inject, docs/ROBUSTNESS.md)
    "fault_injected": None,            # injector committed a fault
    "fault_detected": None,            # sanitizer flagged it in recover mode
    "recovery_uncompressed": None,     # page rebuilt as uncompressed
    "recovery_mdcache": None,          # corrupt cache entry invalidated
    "recovery_alloc_books": None,      # allocator free/allocated books repaired
    "recovery_leak_reclaim": None,     # orphaned storage reclaimed
    "recovery_failed": None,           # violations persisted after recovery
    # degraded mode / graceful allocation denial (docs/ROBUSTNESS.md)
    "alloc_denied": None,              # page parked unbacked instead of raising
    "degraded_enter": None,            # pool exhausted: deny-new-compression
    "degraded_exit": None,             # headroom restored after frees
    "emergency_repack": None,          # repack sweep under allocation pressure
    # memory-pressure overload control (repro.pressure, docs/PRESSURE.md)
    "pressure_enter": None,            # backpressure engaged (utilization high)
    "pressure_exit": None,             # backpressure released
    "admission_throttled": None,       # token bucket empty: request stalled
    "request_shed": None,              # low-priority request dropped
    "tenant_over_budget": None,        # tenant exceeded its resident budget
    "tenant_page_out": None,           # per-tenant LRU page-out (escalation)
    "watchdog_escalation": None,       # degraded-mode dwell bound exceeded
    "pressure_oom_absorbed": None,     # OutOfMemoryError caught at this layer
    "balloon_protect_skip": None,      # balloon held a protected page intact
}


class TraceEvent:
    """One structured event on the simulated-access clock.

    ``extra`` is the number of compression-induced extra memory
    accesses this event accounts for (0 for informational events);
    its source attribution comes from :data:`EVENT_SOURCES`.
    """

    __slots__ = ("name", "clock", "page", "extra", "args")

    def __init__(self, name: str, clock: int, page: Optional[int] = None,
                 extra: int = 0, args: Optional[dict] = None) -> None:
        self.name = name
        self.clock = clock
        self.page = page
        self.extra = extra
        self.args = args

    @property
    def source(self) -> Optional[str]:
        return EVENT_SOURCES.get(self.name)

    def as_dict(self) -> dict:
        record = {"name": self.name, "clock": self.clock,
                  "page": self.page, "extra": self.extra}
        if self.args:
            record.update(self.args)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.name!r}, clock={self.clock}, "
                f"page={self.page}, extra={self.extra})")


class _NullPhase:
    """Reusable no-op context manager for :meth:`NullTracer.phase`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullTracer:
    """Zero-overhead default tracer: every hook is a no-op.

    Instrumented code calls the same methods whether tracing is on or
    off; here they all fall through immediately, so the disabled cost
    is one attribute lookup plus an empty call per event site.
    """

    enabled = False
    clock = 0

    def tick(self, n: int = 1) -> None:
        """Advance the simulated-access clock (no-op when disabled)."""

    def emit(self, name: str, page: Optional[int] = None, extra: int = 0,
             **args) -> None:
        """Record one event (no-op when disabled)."""

    def phase(self, name: str) -> _NullPhase:
        """Context manager timing one wall-clock phase (no-op)."""
        return _NULL_PHASE

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return ()

    @property
    def phase_spans(self) -> Tuple[Tuple[str, float, float], ...]:
        return ()


#: Shared process-wide no-op tracer; safe because it holds no state.
NULL_TRACER = NullTracer()


class _Phase:
    """Wall-clock span recorder returned by :meth:`Tracer.phase`."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        now = time.perf_counter()
        self._tracer.phase_spans.append(
            (self._name, self._start - self._tracer.epoch, now - self._start)
        )


class Tracer:
    """Recording tracer: events + wall-clock phase profiling.

    Args:
        digest_window: default window (in clock units, i.e. demand
            accesses) used when a consumer asks this tracer for a
            timeline digest without specifying one.
    """

    enabled = True

    def __init__(self, digest_window: int = 1000) -> None:
        if digest_window <= 0:
            raise ValueError("digest window must be positive")
        self.digest_window = digest_window
        self.clock = 0
        self.events: List[TraceEvent] = []
        #: (name, start_s, duration_s) relative to :attr:`epoch`.
        self.phase_spans: List[Tuple[str, float, float]] = []
        self.epoch = time.perf_counter()

    def tick(self, n: int = 1) -> None:
        self.clock += n

    def emit(self, name: str, page: Optional[int] = None, extra: int = 0,
             **args) -> None:
        self.events.append(
            TraceEvent(name, self.clock, page, extra, args or None)
        )

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    # -- aggregation helpers ----------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event occurrences by name."""
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.name] = totals.get(event.name, 0) + 1
        return totals

    def extra_by_source(self) -> Dict[str, int]:
        """Extra accesses attributed to each §IV source."""
        totals = {source: 0 for source in SOURCES}
        for event in self.events:
            source = EVENT_SOURCES.get(event.name)
            if source is not None:
                totals[source] += event.extra
        return totals

    def total_extra(self) -> int:
        """All extra accesses seen; equals ``ControllerStats.extra_accesses``."""
        return sum(self.extra_by_source().values())

    def phase_seconds(self) -> Dict[str, float]:
        """Accumulated wall-clock seconds per phase name."""
        totals: Dict[str, float] = {}
        for name, _start, duration in self.phase_spans:
            totals[name] = totals.get(name, 0.0) + duration
        return totals
