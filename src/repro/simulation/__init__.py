"""Simulation drivers: cycle-based, 4-core, capacity (DESIGN.md)."""

from .capacity import (
    CapacityConfig,
    CapacityResult,
    capacity_impact,
)
from .compresspoints import (
    IntervalProfile,
    PointSelection,
    kmeans,
    profile_intervals,
    representativeness_error,
    select_points,
)
from .configs import (
    SYSTEM_ORDER,
    chunk_vs_variable_configs,
    optimization_ladder,
    system_config,
)
from .multicore import MulticoreResult, simulate_multicore
from .simulator import (
    SimulationConfig,
    SimulationResult,
    UncompressedController,
    simulate,
)

__all__ = [
    "CapacityConfig",
    "CapacityResult",
    "IntervalProfile",
    "MulticoreResult",
    "PointSelection",
    "SYSTEM_ORDER",
    "SimulationConfig",
    "SimulationResult",
    "UncompressedController",
    "capacity_impact",
    "chunk_vs_variable_configs",
    "kmeans",
    "optimization_ladder",
    "profile_intervals",
    "representativeness_error",
    "select_points",
    "simulate",
    "simulate_multicore",
    "system_config",
]
