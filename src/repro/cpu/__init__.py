"""CPU core timing substrate (DESIGN.md)."""

from .core import AnalyticCore, CoreStats

__all__ = ["AnalyticCore", "CoreStats"]
