"""OS substrate: virtual memory, budgets, LRU paging (DESIGN.md)."""

from .cgroups import DynamicBudget, StaticBudget
from .paging import (
    LRUPagingSimulator,
    PagingCostModel,
    PagingStats,
    reference_string,
    run_capacity_simulation,
)
from .vm import VirtualMemory

__all__ = [
    "DynamicBudget",
    "LRUPagingSimulator",
    "PagingCostModel",
    "PagingStats",
    "StaticBudget",
    "VirtualMemory",
    "reference_string",
    "run_capacity_simulation",
]
