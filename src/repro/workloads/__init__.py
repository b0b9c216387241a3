"""Synthetic workloads substituting the paper's benchmarks (DESIGN.md)."""

from .bursts import BURST_SHAPES, BurstSchedule
from .datagen import (
    LineClass,
    LinePool,
    PageImageGenerator,
    make_line,
)
from .mixes import MIX_ORDER, MIXES, mix_profiles
from .profiles import (
    BENCHMARK_ORDER,
    CAPACITY_STALLERS,
    PROFILES,
    BenchmarkProfile,
    Phase,
    get_profile,
)
from .tracegen import TraceEvent, TraceGenerator, Workload

__all__ = [
    "BENCHMARK_ORDER",
    "BURST_SHAPES",
    "BenchmarkProfile",
    "BurstSchedule",
    "CAPACITY_STALLERS",
    "LineClass",
    "LinePool",
    "MIXES",
    "MIX_ORDER",
    "PROFILES",
    "PageImageGenerator",
    "Phase",
    "TraceEvent",
    "TraceGenerator",
    "Workload",
    "get_profile",
    "make_line",
    "mix_profiles",
]
