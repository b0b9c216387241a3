"""Fault injection and recovery campaigns (docs/ROBUSTNESS.md).

Deterministic, seedable corruption of the compressed-memory model's
internal structures, plus the campaign cell that reconciles injected
faults against the detection (``fault_*``) and recovery
(``recovery_*``) trace events.  The sweep over sites and rates is
``python -m repro.analysis run --filter faults``.
"""

from .campaign import (
    CellOutcome,
    campaign_cell,
    matches,
    reconcile,
)
from .faults import (
    SITES,
    FaultInjector,
    FaultRecord,
    FaultSpec,
    parse_fault_spec,
)

__all__ = [
    "SITES",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "parse_fault_spec",
    "CellOutcome",
    "campaign_cell",
    "matches",
    "reconcile",
]
