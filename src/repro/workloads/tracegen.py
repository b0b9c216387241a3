"""LLC-level trace generation (the zsim / CompressPoint substitute).

The simulator consumes the stream a memory controller actually sees:
LLC miss fills and dirty writebacks, annotated with instruction gaps.
``Workload`` owns the evolving memory contents (versions per line,
class overrides applied by overwrite phases); ``TraceGenerator``
produces the deterministic event stream from the benchmark profile's
locality/miss-rate parameters.

Traces model a CompressPoint: memory is already populated when the
region starts (the simulator installs the initial image), and the
stream mixes re-reads, rewrites of similar data, and phase-dependent
overwrites that change compressibility — the behaviour that drives the
paper's overflow, repacking and prediction machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .._util import stable_seed
from ..machine import LINES_PER_PAGE
from .datagen import LineClass, PageImageGenerator
from .profiles import BenchmarkProfile


@dataclass(frozen=True)
class TraceEvent:
    """One LLC-level memory event."""

    gap: int            # instructions retired since the previous event
    is_writeback: bool
    page: int
    line: int


class Workload:
    """Evolving memory contents for one benchmark instance."""

    def __init__(self, profile: BenchmarkProfile, scale: float = 1.0,
                 seed: int = 0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.profile = profile
        self.seed = seed
        self.pages = max(16, int(profile.footprint_pages * scale))
        mix = dict(profile.mix)
        if profile.zero_page_fraction > 0:
            remaining = 1.0 - profile.zero_page_fraction
            mix = {cls: w * remaining for cls, w in mix.items()}
            mix[LineClass.ZERO] = profile.zero_page_fraction
        self.generator = PageImageGenerator(
            f"{profile.name}#{seed}", mix,
            zero_line_fraction=profile.zero_line_fraction,
        )
        self._versions: Dict[Tuple[int, int], int] = {}
        self._overrides: Dict[Tuple[int, int], LineClass] = {}

    def line_data(self, page: int, line: int) -> bytes:
        """Current content of a line."""
        key = (page, line)
        return self.generator.line(
            page, line,
            version=self._versions.get(key, 0),
            override=self._overrides.get(key),
        )

    def apply_writeback(self, page: int, line: int,
                        override: Optional[LineClass]) -> bytes:
        """Advance a line to its next version; returns the new content.

        A writeback replaces the line's content entirely: with an
        ``override`` the line takes that class; without one it reverts
        to the page's own class (clearing any earlier override).
        """
        key = (page, line)
        self._versions[key] = self._versions.get(key, 0) + 1
        if override is not None:
            self._overrides[key] = override
        else:
            self._overrides.pop(key, None)
        return self.line_data(page, line)

    def page_lines(self, page: int):
        return [self.line_data(page, line) for line in range(LINES_PER_PAGE)]


class TraceGenerator:
    """Deterministic LLC event stream from a benchmark profile."""

    def __init__(self, workload: Workload, seed: int = 0) -> None:
        self.workload = workload
        self.profile = workload.profile
        self.seed = seed

    def events(self, n_events: int) -> Iterator[TraceEvent]:
        """Yield ``n_events`` trace events.

        Page choice: hot set with probability ``hot_weight``, else the
        whole footprint.  Line choice: continue a sequential run with
        probability ``sequential``, else jump.  Event kind: writeback
        with probability ``write_fraction``.
        """
        profile = self.profile
        pages = self.workload.pages
        hot_pages = max(1, int(pages * profile.hot_fraction))
        rng = np.random.RandomState(
            stable_seed(profile.name, "trace", self.seed)
        )
        gap_p = min(1.0, profile.mpki / 1000.0)

        page = int(rng.randint(0, pages))
        line = int(rng.randint(0, LINES_PER_PAGE))
        for _ in range(n_events):
            if rng.rand() < profile.sequential:
                line += 1
                if line >= LINES_PER_PAGE:
                    line = 0
                    page = (page + 1) % pages
            else:
                if rng.rand() < profile.hot_weight:
                    # Popularity within the hot set is skewed (zipf-like):
                    # skew=1 is uniform, larger concentrates on few pages.
                    page = int(hot_pages * (rng.rand() ** profile.skew))
                else:
                    page = int(rng.randint(0, pages))
                line = int(rng.randint(0, LINES_PER_PAGE))
            is_writeback = bool(rng.rand() < profile.write_fraction)
            gap = int(rng.geometric(gap_p))
            yield TraceEvent(gap=gap, is_writeback=is_writeback,
                             page=page, line=line)

    def overwrite_class_at(self, progress: float,
                           rng: np.random.RandomState) -> Optional[LineClass]:
        """Class override for a writeback at ``progress`` through the trace."""
        _, override, rate = self.profile.phase_at(progress)
        if override is not None and rng.rand() < rate:
            return override
        if self.profile.churn and rng.rand() < self.profile.churn:
            return LineClass.RANDOM
        return None
