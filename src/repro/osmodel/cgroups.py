"""Memory budgeting, mirroring the paper's cgroups methodology (§VI-A).

The authors budget a benchmark's memory with Linux cgroups: a *static*
budget replicates a regular (uncompressed) constrained system; a
*dynamic* budget that follows the workload's real-time compression
ratio emulates a compressed system ("change the memory available to
the benchmark dynamically according to its real-time compressibility").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class StaticBudget:
    """Fixed resident-page budget (uncompressed constrained system)."""

    pages: int

    def resident_limit(self, progress: float) -> int:
        return self.pages


class DynamicBudget:
    """Budget scaled by the compression-ratio timeline.

    ``ratio_timeline`` holds the workload's effective compression ratio
    sampled at equally spaced progress points (the paper's saved
    vectors over instruction intervals); the effective budget at any
    progress is ``base_pages * ratio`` — compression stretches how many
    OSPA pages fit in the same machine memory.
    """

    def __init__(self, base_pages: int, ratio_timeline: Sequence[float]) -> None:
        if base_pages <= 0:
            raise ValueError("base budget must be positive")
        if not ratio_timeline:
            raise ValueError("need at least one ratio sample")
        if any(r < 1.0 for r in ratio_timeline):
            raise ValueError("compression ratios below 1.0 are not meaningful here")
        self.base_pages = base_pages
        self.timeline = list(ratio_timeline)

    def ratio_at(self, progress: float) -> float:
        progress = min(max(progress, 0.0), 1.0)
        index = min(int(progress * len(self.timeline)), len(self.timeline) - 1)
        return self.timeline[index]

    def resident_limit(self, progress: float) -> int:
        return max(1, int(self.base_pages * self.ratio_at(progress)))

