"""Per-layer tracing of the simulator from outside its source tree.

The benchmark wraps each layer's public entry points (``LAYERS``) in a
``perf_counter`` span pushed on a stack.  A span's self time is its
duration minus the time of the spans it encloses, so the self times of
all layers plus ``unattributed`` (time outside every span) add up to the
traced wall time.  Per-call spans would be millions of records, so the
trace keeps only aggregates per (entry point, parent entry point), plus
one phase record per ``simulate``/``simulate_multicore`` call.

``Trace.install()`` patches the classes and every ``repro`` module that
holds a reference to a wrapped function; ``Trace.uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

from repro.compression.base import Compressor
from repro.core.controller import CompressedMemoryController
from repro.core.lcp import LCPPack
from repro.core.linepack import LinePack
from repro.core.metadata_cache import MetadataCache
from repro.core.packing import PageLayout
from repro.cpu.core import AnalyticCore
from repro.memory.allocator import ChunkAllocator, VariableAllocator
from repro.memory.dram import DRAMSystem
from repro.osmodel import paging
from repro.simulation import multicore, simulator
from repro.workloads.datagen import PageImageGenerator
from repro.workloads.tracegen import TraceGenerator, Workload

#: (layer, owner, entry points).  The owner is a class, whose methods
#: are wrapped where the MRO defines them, or a module, whose functions
#: are wrapped in every ``repro`` module that imported them.
LAYERS: Tuple[Tuple[str, object, Tuple[str, ...]], ...] = (
    ("workloads.datagen", PageImageGenerator, ("line",)),
    ("workloads.tracegen", TraceGenerator, ("events", "overwrite_class_at")),
    ("workloads.tracegen", Workload, ("page_lines", "apply_writeback")),
    ("core.controller", CompressedMemoryController,
     ("read_line", "write_line", "install_page", "flush_metadata",
      "compression_ratio")),
    ("core.packing", LinePack, ("pack", "pack_candidates", "layout_from_bins")),
    ("core.packing", LCPPack, ("pack", "pack_candidates", "layout_from_bins")),
    ("core.packing", PageLayout, ("locate",)),
    ("core.metadata_cache", MetadataCache,
     ("access", "lookup", "fill", "mark_dirty", "reshape", "flush")),
    ("compression", Compressor, ("compressed_size_bytes",)),
    ("memory.allocator", ChunkAllocator, ("allocate", "free")),
    ("memory.allocator", VariableAllocator, ("allocate_region", "free_region")),
    ("memory.dram", DRAMSystem, ("access",)),
    ("cpu", AnalyticCore, ("advance_instructions", "stall")),
    ("simulation", simulator, ("simulate",)),
    ("simulation", multicore, ("simulate_multicore",)),
    ("osmodel", paging, ("run_capacity_simulation", "reference_string")),
    ("osmodel", paging.LRUPagingSimulator, ("touch",)),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))
ROOT = "unattributed"

# Entry points that delimit a simulate call's phases: the install ends
# at the first trace event, and the flush is the metadata flush.
_EVENTS = "TraceGenerator.events"
_FLUSH = "CompressedMemoryController.flush_metadata"


def entry_points() -> List[Tuple[str, object, str]]:
    """Every wrapped (layer, owner, attribute), owners resolved."""
    points = []
    for layer, owner, names in LAYERS:
        for name in names:
            if isinstance(owner, type):
                owner_cls = next(k for k in owner.__mro__ if name in vars(k))
                points.append((layer, owner_cls, name))
            else:
                points.append((layer, owner, name))
    return list(dict.fromkeys(points))


def _label(owner, name: str) -> str:
    if isinstance(owner, ModuleType):
        return f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
    return f"{owner.__name__}.{name}"


def patch_function(module: ModuleType, name: str,
                   wrap: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``module.name`` in every ``repro`` module that holds it.

    Returns the undo function.  Modules that ran ``from x import name``
    hold their own reference, so each one is patched.
    """
    original = getattr(module, name)
    wrapper = wrap(original)
    holders = [
        mod for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "repro"
        and vars(mod).get(name) is original
    ]
    for mod in holders:
        setattr(mod, name, wrapper)

    def undo() -> None:
        for mod in holders:
            setattr(mod, name, original)
    return undo


def patch_method(cls: type, name: str,
                 wrap: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``cls.name`` (defined on ``cls`` itself); returns the undo."""
    original = vars(cls)[name]
    setattr(cls, name, wrap(original))
    return lambda: setattr(cls, name, original)


class _SpannedIterator:
    """Iterator whose every ``next()`` is a span."""

    def __init__(self, iterator, step: Callable) -> None:
        self._iterator = iterator
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._iterator)


class Trace:
    """Span stack, per-entry-point aggregates and per-call phases."""

    def __init__(self) -> None:
        self._stack: List[list] = [[ROOT, 0.0]]
        #: (entry, parent entry) -> [calls, self seconds]
        self.aggregates: Dict[Tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0])
        self.layer_of: Dict[str, str] = {ROOT: ROOT}
        #: One record per outermost simulate/simulate_multicore call.
        self.phases: List[dict] = []
        self._call: Optional[dict] = None
        self._undo: List[Callable[[], None]] = []

    # -- spans ------------------------------------------------------------

    def _span(self, entry: str, fn: Callable,
              hook: Optional[Callable[[float, float], None]] = None):
        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [entry, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                totals = aggregates[entry, parent[0]]
                totals[0] += 1
                totals[1] += elapsed - frame[1]
                if hook is not None:
                    hook(start, elapsed)
        return span

    def _mark_first_event(self, start: float, elapsed: float) -> None:
        call = self._call
        if call is not None and call["first_event"] is None:
            call["first_event"] = start

    def _add_flush(self, start: float, elapsed: float) -> None:
        if self._call is not None:
            self._call["flush_s"] += elapsed

    def _wrapper(self, layer: str, owner, name: str):
        entry = _label(owner, name)
        self.layer_of[entry] = layer
        hook = self._add_flush if entry == _FLUSH else None

        def wrap(fn):
            if inspect.isgeneratorfunction(fn):
                step_entry = f"{entry}.next"
                self.layer_of[step_entry] = layer
                step = self._span(
                    step_entry, next,
                    self._mark_first_event if entry == _EVENTS else None)

                @functools.wraps(fn)
                def generator(*args, **kwargs):
                    return _SpannedIterator(fn(*args, **kwargs), step)
                return generator
            spanned = functools.wraps(fn)(self._span(entry, fn, hook))
            if layer != "simulation":
                return spanned

            @functools.wraps(fn)
            def simulate_call(*args, **kwargs):
                call = self._call = {"call": entry, "first_event": None,
                                     "flush_s": 0.0}
                start = time.perf_counter()
                try:
                    return spanned(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._call = None
                    first = call.pop("first_event") or end
                    call["wall_s"] = end - start
                    call["install_s"] = first - start
                    call["events_s"] = end - first - call["flush_s"]
                    self.phases.append(call)
            return simulate_call
        return wrap

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "Trace":
        for layer, owner, name in entry_points():
            wrap = self._wrapper(layer, owner, name)
            if isinstance(owner, ModuleType):
                self._undo.append(patch_function(owner, name, wrap))
            else:
                self._undo.append(patch_method(owner, name, wrap))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Trace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def calls(self, entry: str, parent: Optional[str] = None) -> int:
        return sum(totals[0] for (child, up), totals in self.aggregates.items()
                   if child == entry and parent in (None, up))

    def layer_self_s(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per layer; ``unattributed`` is the rest of ``wall_s``."""
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for (entry, _), (_, seconds) in self.aggregates.items():
            self_s[self.layer_of[entry]] += seconds
        self_s[ROOT] = wall_s - sum(self_s.values())
        return self_s

    def layer_calls(self) -> Dict[str, int]:
        calls = dict.fromkeys(LAYER_NAMES, 0)
        for (entry, _), (count, _) in self.aggregates.items():
            calls[self.layer_of[entry]] += count
        return calls

    def records(self) -> List[dict]:
        """Aggregates as JSON-ready records, busiest first."""
        rows = [
            {"entry": entry, "layer": self.layer_of[entry],
             "parent": parent, "parent_layer": self.layer_of[parent],
             "calls": calls, "self_s": seconds}
            for (entry, parent), (calls, seconds) in self.aggregates.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])
