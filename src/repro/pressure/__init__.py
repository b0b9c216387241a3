"""Memory-pressure resilience: multi-tenant overload control (docs/PRESSURE.md).

Compresso's pragmatic claim is that a compressed-memory system must
survive compressibility collapse gracefully — balloon away the
capacity it over-promised instead of crashing the OS (§V-B).  This
package makes that ladder a tested, multi-tenant subsystem:

* :class:`PressureController` layers admission control (token-bucket
  gate), priority-class request shedding, per-tenant budget
  enforcement and a degraded-mode watchdog over the existing
  :class:`~repro.core.controller.CompressedMemoryController` +
  :class:`~repro.core.ballooning.BalloonDriver` stack.  The
  degradation ladder runs balloon → emergency repack → degraded mode
  → per-tenant page-out, every transition traced via registered
  ``obs`` events.
* :func:`pressure_cell` drives one overload scenario (compressibility
  collapse, tenant stampedes, diurnal bursts — see
  :mod:`repro.workloads.bursts`), reconciling shed/denied/recovery
  counts against the trace with zero silent drops, and checking the
  node exits degraded mode once pressure recedes.  The sweep across
  intensities and allocation schemes is
  ``python -m repro.analysis run --filter pressure``.

See docs/PRESSURE.md for the ladder states, the knob reference and
the fairness metrics.
"""

from .controller import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    PRIORITY_STANDARD,
    STALL_BOUNDS,
    PressureConfig,
    PressureController,
    PressureStats,
    TenantSpec,
    TokenBucket,
    jain_index,
)
from .campaign import PressureCellOutcome, pressure_cell, run_recovery_drill

__all__ = [
    "PRIORITY_BEST_EFFORT",
    "PRIORITY_CRITICAL",
    "PRIORITY_STANDARD",
    "STALL_BOUNDS",
    "PressureCellOutcome",
    "PressureConfig",
    "PressureController",
    "PressureStats",
    "TenantSpec",
    "TokenBucket",
    "jain_index",
    "pressure_cell",
    "run_recovery_drill",
]
