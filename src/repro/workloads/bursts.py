"""Deterministic overload traffic shapes for pressure campaigns.

The pressure subsystem (repro.pressure, docs/PRESSURE.md) drives the
compressed-memory node through sustained multi-tenant overload.  The
traffic side of every scenario comes from a :class:`BurstSchedule`:
for any progress in ``[0, 1]`` it answers *how hard is this tenant
pushing* (``rate_at`` — a multiplier over the tenant's base request
rate) and *how compressible is what it writes*
(``incompressible_fraction`` — the share of freshly written lines that
take random, incompressible content).

Three shapes cover the overload regimes the campaigns sweep:

* ``collapse`` — compressibility-collapse ramp: traffic stays level
  while the data written degrades from compressible to random, the
  exact failure mode Compresso's ballooning ladder exists for (§V-B).
* ``stampede`` — a tenant stampede: a square pulse of extra traffic
  (everyone piles in at once), data compressibility unchanged.
* ``diurnal`` — a smooth daily cycle: sinusoidal rate swing with a
  mild compressibility dip at the peak (peak-hour content is messier).

Every shape recedes by the end of the window (the tail returns to the
baseline), so campaigns can assert recovery after pressure passes.
All functions are pure and float-deterministic: the same (shape,
intensity, progress) triple always yields the same numbers, keeping
campaign cells content-addressable by the runner cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Registered burst shapes (the campaign spec grammar's scenario names).
BURST_SHAPES = ("collapse", "stampede", "diurnal")

#: Fraction of the window over which every shape has receded: the last
#: ``RECEDE_TAIL`` of progress is guaranteed back at baseline rate and
#: compressibility, so recovery drills have a quiet tail to observe.
RECEDE_TAIL = 0.2


def _plateau(progress: float, rise: float, fall: float) -> float:
    """0→1 ramp over ``[0, rise]``, hold at 1, 1→0 ramp over ``[fall, 1]``."""
    progress = min(max(progress, 0.0), 1.0)
    if progress < rise:
        return progress / rise
    if progress > fall:
        return max(0.0, (1.0 - progress) / (1.0 - fall))
    return 1.0


@dataclass(frozen=True)
class BurstSchedule:
    """One tenant's overload profile: shape x intensity.

    ``intensity`` scales how far the shape departs from the baseline:
    1.0 is the nominal campaign stress level, higher values push the
    node deeper into the degradation ladder.
    """

    shape: str
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in BURST_SHAPES:
            raise ValueError(
                f"unknown burst shape {self.shape!r}; known: {BURST_SHAPES}")
        if self.intensity <= 0:
            raise ValueError("burst intensity must be positive")

    def rate_at(self, progress: float) -> float:
        """Request-rate multiplier (>= 0) at ``progress`` in [0, 1]."""
        envelope = _plateau(progress, rise=0.25, fall=1.0 - RECEDE_TAIL)
        if self.shape == "collapse":
            # Traffic holds steady; the stress comes from the data.
            return 1.0
        if self.shape == "stampede":
            # Square pulse: everyone arrives in the middle third.
            pulse = 1.0 if 0.3 <= progress <= 0.6 else 0.0
            return 1.0 + 2.0 * self.intensity * pulse * envelope
        # diurnal: one full day-cycle swing across the window.
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi *
                                      min(max(progress, 0.0), 1.0)))
        return 1.0 + self.intensity * swing * envelope

    def incompressible_fraction(self, progress: float) -> float:
        """Share of written lines that take random content, in [0, 1]."""
        envelope = _plateau(progress, rise=0.3, fall=1.0 - RECEDE_TAIL)
        if self.shape == "collapse":
            return min(1.0, 0.9 * self.intensity * envelope)
        if self.shape == "stampede":
            return 0.0
        # diurnal: peak-hour content is somewhat less compressible.
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi *
                                      min(max(progress, 0.0), 1.0)))
        return min(1.0, 0.3 * self.intensity * swing * envelope)
