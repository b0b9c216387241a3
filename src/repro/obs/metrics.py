"""Fixed-bucket histogram with percentile estimates.

The pressure controller (:mod:`repro.pressure.controller`) records
admission-stall lengths in :class:`Histogram` objects and reports
their p50/p95/p99 (docs/PRESSURE.md).
"""

from __future__ import annotations

import bisect
from typing import Sequence


class Histogram:
    """Fixed-bucket histogram over non-negative observations.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last edge (bounded by the tracked maximum,
    so :meth:`percentile` stays finite).
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "maximum")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (``0 <= q <= 100``).

        Linear interpolation within the covering bucket — the usual
        fixed-bucket estimate (Prometheus ``histogram_quantile``
        style); exact whenever a bucket holds a single distinct value
        (e.g. the 8-byte line-size steps).  The overflow bucket is
        capped at the maximum ever observed.  Returns 0.0 for an empty
        histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        previous = min(0.0, self.bounds[0])
        for bound, count in zip(self.bounds, self.counts):
            if count:
                if cumulative + count >= target:
                    fraction = (target - cumulative) / count
                    fraction = max(0.0, min(1.0, fraction))
                    return previous + (bound - previous) * fraction
                cumulative += count
            previous = bound
        return self.maximum
