"""Event and data-movement counters for compressed-memory systems.

The paper's central measurement (Figs. 4 and 6) is *additional memory
accesses relative to an uncompressed baseline*, broken into three
sources: split-access cache lines, compressibility changes (line/page
overflows, inflation-room traffic, repacking) and metadata-cache misses
(§IV).  These counters mirror that taxonomy exactly.

The counters are the canonical storage (plain integer fields, so the
hot-path ``+=`` sites stay native speed), and the class is rebased onto
the observability layer two ways without changing its public API:

* every counter site in the controller has a matching
  :mod:`repro.obs.tracer` event emit (linted by the ``stats-emit``
  rule, docs/LINTING.md), so the aggregate counters and
  the event timeline reconcile exactly;
* :meth:`ControllerStats.bind_registry` publishes every counter and
  derived aggregate into a :class:`repro.obs.metrics.MetricRegistry`
  as lazily-read pull metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..obs.metrics import MetricRegistry


@dataclass
class ControllerStats:
    """Counters accumulated by a memory controller model."""

    # Demand traffic (what an uncompressed system would also do).
    demand_reads: int = 0
    demand_writes: int = 0
    # Demand accesses eliminated by compression.
    zero_line_reads: int = 0           # served from metadata alone
    zero_line_writes: int = 0
    prefetch_hits: int = 0             # adjacent line arrived in same burst

    # Extra accesses: split-access cache lines (§IV source i).
    split_accesses: int = 0

    # Extra accesses: compressibility change (§IV source ii).
    line_overflows: int = 0            # events
    line_underflows: int = 0           # events
    overflow_accesses: int = 0         # accesses to handle line overflows
    page_overflows: int = 0            # events
    page_overflow_accesses: int = 0    # accesses to move pages
    ir_expansions: int = 0             # Dynamic IR Expansion events (§IV-B3)
    repack_events: int = 0
    repack_accesses: int = 0
    speculation_wasted_accesses: int = 0  # LCP speculative read of an exception

    # Extra accesses: metadata (§IV source iii).
    metadata_hits: int = 0
    metadata_misses: int = 0
    metadata_miss_accesses: int = 0
    metadata_writebacks: int = 0

    # Predictor bookkeeping (§IV-B2).
    predictor_inflations: int = 0      # pages speculatively stored uncompressed
    predictor_false_positives: int = 0
    predictor_false_negatives: int = 0

    # OS-aware cost: page fault per page overflow in LCP-like systems.
    os_page_faults: int = 0

    # Ballooning (§V-B).
    balloon_inflations: int = 0
    balloon_pages_reclaimed: int = 0

    # Fault detection and recovery (docs/ROBUSTNESS.md).
    faults_detected: int = 0           # sanitizer violations acted upon
    recoveries: int = 0                # pages/structures repaired
    recovery_failures: int = 0         # violations that persisted after repair
    # Degraded mode: graceful handling of allocator exhaustion.
    alloc_exhaustions: int = 0         # pool dry even after pressure relief
    alloc_denials: int = 0             # allocations denied (page parked)
    emergency_repacks: int = 0         # repack sweeps under pressure
    degraded_exits: int = 0            # headroom restored after frees

    # -- derived aggregates ----------------------------------------------

    @property
    def demand_accesses(self) -> int:
        """Accesses an uncompressed system would perform for this trace."""
        return self.demand_reads + self.demand_writes

    @property
    def compression_change_accesses(self) -> int:
        return (
            self.overflow_accesses
            + self.page_overflow_accesses
            + self.repack_accesses
            + self.speculation_wasted_accesses
        )

    @property
    def extra_accesses(self) -> int:
        """All compression-induced accesses (the Fig. 4 numerator)."""
        return (
            self.split_accesses
            + self.compression_change_accesses
            + self.metadata_miss_accesses
            + self.metadata_writebacks
        )

    @property
    def saved_accesses(self) -> int:
        """Demand accesses compression eliminated (zero lines, prefetch)."""
        return self.zero_line_reads + self.zero_line_writes + self.prefetch_hits

    @property
    def metadata_lookups(self) -> int:
        """Metadata-cache probes: hits + misses (0 = no metadata traffic)."""
        return self.metadata_hits + self.metadata_misses

    def relative_extra_accesses(self) -> float:
        """Extra accesses / demand accesses (the Fig. 4 / Fig. 6 metric)."""
        if self.demand_accesses == 0:
            return 0.0
        return self.extra_accesses / self.demand_accesses

    def breakdown(self) -> dict:
        """Fig. 4-style breakdown, each term relative to demand accesses."""
        demand = max(1, self.demand_accesses)
        return {
            "split": self.split_accesses / demand,
            "overflow": self.compression_change_accesses / demand,
            "metadata": (self.metadata_miss_accesses + self.metadata_writebacks)
            / demand,
        }

    def metadata_hit_rate(self) -> Optional[float]:
        """Metadata-cache hit rate, or ``None`` when there was no
        metadata traffic at all — a run that never probed the cache has
        no hit rate, and reporting 1.0 would fake a perfect one."""
        lookups = self.metadata_lookups
        return self.metadata_hits / lookups if lookups else None

    def merge(self, other: "ControllerStats") -> None:
        """Accumulate another stats object into this one.

        Only plain integer counter fields merge; anything else (a
        derived value or a non-counter that leaked into a field) is
        skipped defensively rather than summed into nonsense.
        """
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if (isinstance(mine, int) and not isinstance(mine, bool)
                    and isinstance(theirs, int)
                    and not isinstance(theirs, bool)):
                setattr(self, f.name, mine + theirs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def bind_registry(self, registry: MetricRegistry,
                      prefix: str = "controller") -> MetricRegistry:
        """Publish every counter (and the derived aggregates) into a
        :class:`~repro.obs.metrics.MetricRegistry` as pull metrics.

        The registry reads the live fields lazily at collect time, so
        binding costs nothing on the controller's hot path.
        """
        for f in fields(self):
            registry.register(f"{prefix}.{f.name}",
                              lambda name=f.name: getattr(self, name))
        for name in ("demand_accesses", "compression_change_accesses",
                     "extra_accesses", "saved_accesses", "metadata_lookups"):
            registry.register(f"{prefix}.{name}",
                              lambda name=name: getattr(self, name))
        registry.register(f"{prefix}.relative_extra_accesses",
                          self.relative_extra_accesses)
        registry.register(f"{prefix}.metadata_hit_rate",
                          self.metadata_hit_rate)
        return registry
