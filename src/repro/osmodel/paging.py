"""LRU paging simulation for the memory-capacity impact runs (§VI-A).

Replays a page-touch reference string against a resident-set budget
(static or compression-scaled), counting major faults.  Runtime is then
``T = T_cpu + faults * t_fault``; the experiments report performance
relative to the uncompressed constrained baseline, exactly like the
paper's Tab. II / Fig. 10a "Mem-Cap Impact" series.

The reference string is synthesized from the benchmark profile's
zipf-ranked page-reuse shape (``reuse_alpha``), which preserves what
matters: how violently the fault rate rises once the budget drops
below the hot pages.  mcf / GemsFDTD / lbm have near-flat reuse over
their whole footprint, so they thrash ("stall") at 60–70% budgets, as
in the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .._util import stable_seed
from ..workloads.profiles import BenchmarkProfile


@dataclass
class PagingStats:
    touches: int = 0
    faults: int = 0
    evictions: int = 0

    def fault_rate(self) -> float:
        return self.faults / self.touches if self.touches else 0.0


@dataclass(frozen=True)
class PagingCostModel:
    """Relative time accounting for the capacity runs.

    ``touch_cost`` is the CPU time represented by one page-level touch
    (arbitrary units); ``fault_cost`` is the page-fault service time in
    the same units (swap I/O + kernel work).  One touch here stands for
    a long run of accesses to a resident page (the reference string is
    page-granular), so the ratio is far below the raw
    fault-vs-DRAM-access latency ratio; 1:150 calibrates the
    70%-constrained slowdowns of almost-linearly-sensitive benchmarks
    into the paper's Tab. II band (~1.2-1.5x) while flat-reuse
    benchmarks still stall.
    """

    touch_cost: float = 1.0
    fault_cost: float = 150.0

    def runtime(self, stats: PagingStats) -> float:
        return stats.touches * self.touch_cost + stats.faults * self.fault_cost


class LRUPagingSimulator:
    """Exact LRU resident set with a (possibly time-varying) budget."""

    def __init__(self, budget) -> None:
        """``budget`` provides ``resident_limit(progress) -> int``."""
        self.budget = budget
        self._resident: OrderedDict = OrderedDict()
        self.stats = PagingStats()

    def touch(self, page: int, progress: float) -> bool:
        """Access one page; returns True if it faulted."""
        self.stats.touches += 1
        limit = max(1, self.budget.resident_limit(progress))
        faulted = page not in self._resident
        if faulted:
            self.stats.faults += 1
        else:
            self._resident.move_to_end(page)
        self._resident[page] = True
        while len(self._resident) > limit:
            self._resident.popitem(last=False)
            self.stats.evictions += 1
        return faulted

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    def evict_coldest(self, n: int) -> List[int]:
        """Force out the ``n`` least-recently-touched pages.

        The overload-control escalation path (repro.pressure,
        docs/PRESSURE.md) pages out an over-budget tenant's coldest
        pages explicitly rather than waiting for the budget to squeeze
        them; returns the evicted page numbers (may be fewer than
        ``n`` when the resident set is smaller).
        """
        evicted: List[int] = []
        while self._resident and len(evicted) < n:
            page, _ = self._resident.popitem(last=False)
            self.stats.evictions += 1
            evicted.append(page)
        return evicted

    def drop(self, page: int) -> bool:
        """Remove one page from the resident set (tenant freed it)."""
        if page in self._resident:
            del self._resident[page]
            return True
        return False


def reference_string(profile: BenchmarkProfile, n_touches: int,
                     seed: int = 0, footprint_pages: Optional[int] = None
                     ) -> Iterator[int]:
    """Page-touch stream with zipf-ranked reuse.

    Page ``r`` is touched with probability proportional to
    ``(r+1)**-reuse_alpha``.  The exponent shapes the fault curve under
    a constrained budget: flat reuse (alpha ~0.4, mcf-like) touches the
    whole footprint near-uniformly and thrashes once the budget drops
    below it; steep reuse (alpha > 2) concentrates on a small hot set
    and barely notices the constraint.  Page *identities* are shuffled
    so the hot pages are not simply the low-numbered ones.
    """
    pages = footprint_pages or profile.footprint_pages
    rng = np.random.RandomState(stable_seed(profile.name, "ref", seed))
    weights = (np.arange(1, pages + 1, dtype=float)
               ** -max(0.0, profile.reuse_alpha))
    cdf = np.cumsum(weights / weights.sum())
    identity = rng.permutation(pages)
    batch = 4096
    produced = 0
    while produced < n_touches:
        count = min(batch, n_touches - produced)
        ranks = np.searchsorted(cdf, rng.rand(count))
        for rank in ranks:
            yield int(identity[min(rank, pages - 1)])
        produced += count


def run_capacity_simulation(profiles: Sequence[BenchmarkProfile], budget,
                            n_touches: int = 50000, seed: int = 0,
                            footprint_pages: Optional[int] = None,
                            cost_model: PagingCostModel = PagingCostModel()
                            ) -> tuple:
    """Replay the profiles' reference strings under one shared budget.

    Each profile gets ``n_touches // len(profiles)`` touches over its
    own page range, offset by the footprints before it; every step
    touches one page per profile, in order.  One profile is one
    benchmark, four are a 4-core mix.  Returns (stats, runtime).
    """
    steps = n_touches // len(profiles)
    streams = []
    offset = 0
    for profile in profiles:
        pages = footprint_pages or profile.footprint_pages
        streams.append([offset + page for page in
                        reference_string(profile, steps, seed, pages)])
        offset += pages
    sim = LRUPagingSimulator(budget)
    for step in range(steps):
        progress = step / steps
        for stream in streams:
            sim.touch(stream[step], progress)
    return sim.stats, cost_model.runtime(sim.stats)
