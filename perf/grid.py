"""The benchmark's workloads: input construction, cells, digests, checks.

A workload is a fixed, ordered list of cells.  A cell is one call into a
public entry point of the simulator (``simulate``, ``simulate_multicore``
or ``run_fig10``) on inputs the benchmark builds from ``--seed``.  Every
cell's result is reduced to a sha256 digest of its deterministic outputs
and checked two ways: against ``expected.json`` when that file has a
record for (Python minor version, workload, seed), and against
invariants that hold for any seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.analysis import experiments
from repro.runner import Runner
from repro.simulation import multicore, simulator
from repro.workloads.mixes import mix_profiles
from repro.workloads.profiles import PROFILES

from layers import Trace, patch_function

SYSTEMS = ("uncompressed", "lcp", "compresso")
#: ``--smoke`` runs each workload at this fraction of its trace length,
#: on its first profile, mix or benchmark only.
SMOKE_DIVISOR = 50
STREAM_PROFILES = ("gcc", "libquantum", "omnetpp")

#: Workload definitions; perf/README.md gives the reason for each.
WORKLOADS: Dict[str, dict] = {
    "read-stream": {"profiles": STREAM_PROFILES, "write_fraction": 0.0,
                    "scale": 0.008, "n_events": 60000},
    "write-stream": {"profiles": STREAM_PROFILES, "write_fraction": 0.6,
                     "scale": 0.008, "n_events": 3000},
    "mix-4core": {"mixes": ("mix4", "mix10"), "scale": 0.002,
                  "n_events": 800},
    "fig10-quick": {"benchmarks": ("gcc", "omnetpp")},
}


def python_minor() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


@dataclasses.dataclass(frozen=True)
class Cell:
    """One timed call; cells of one ``group`` replay the same trace."""

    name: str
    group: str
    run: Callable[[], Any]
    #: Trace events the call simulates (0 for a whole figure).
    events: int


def build_cells(workload: str, seed: int, smoke: bool = False) -> List[Cell]:
    """The workload's inputs and calls, in their fixed order."""
    spec = WORKLOADS[workload]
    if smoke:
        spec = {key: value[:1] if isinstance(value, tuple) else value
                for key, value in spec.items()}
    divisor = SMOKE_DIVISOR if smoke else 1
    if "benchmarks" in spec:
        scale = dataclasses.replace(experiments.QUICK, seed=seed,
                                    benchmarks=spec["benchmarks"])
        if smoke:
            scale = dataclasses.replace(
                scale, scale=0.008, n_events=scale.n_events // divisor,
                capacity_touches=scale.capacity_touches // divisor)
        return [Cell("fig10", "fig10", lambda: experiments.run_fig10(
            scale, runner=Runner()), 0)]
    sim = simulator.SimulationConfig(
        n_events=max(1, spec["n_events"] // divisor), scale=spec["scale"],
        seed=seed)
    cells = []
    if "mixes" in spec:
        for mix in spec["mixes"]:
            profiles = mix_profiles(mix)[:2 if smoke else None]
            for system in SYSTEMS:
                cells.append(Cell(
                    f"{mix}/{system}", mix,
                    _late_bound(multicore, "simulate_multicore", profiles,
                                system, sim, mix),
                    sim.n_events * len(profiles)))
        return cells
    for name in spec["profiles"]:
        profile = dataclasses.replace(PROFILES[name],
                                      write_fraction=spec["write_fraction"])
        for system in SYSTEMS:
            cells.append(Cell(
                f"{name}/{system}", name,
                _late_bound(simulator, "simulate", profile, system, sim),
                sim.n_events))
    return cells


def _late_bound(module, name: str, *args) -> Callable[[], Any]:
    """Call ``module.name`` looked up at call time, so that the timing
    and tracing wrappers installed after set-up are the ones called."""
    return lambda: getattr(module, name)(*args)


# -- digests and checks -------------------------------------------------------

def _numeric_fields(obj) -> Dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if type(getattr(obj, f.name)) in (int, float)}


def payload(result) -> dict:
    """The deterministic outputs a digest covers."""
    if isinstance(result, experiments.ExperimentResult):
        return {"rows": result.rows, "summary": result.summary}
    common = {
        "controller_stats": _numeric_fields(result.controller_stats),
        "dram_stats": _numeric_fields(result.dram_stats),
        "ratio_timeline": result.ratio_timeline,
    }
    if isinstance(result, multicore.MulticoreResult):
        return dict(common, core_cycles=result.core_cycles,
                    core_instructions=result.core_instructions)
    return dict(common, cycles=result.cycles, instructions=result.instructions,
                final_ratio=result.final_ratio)


def digest(result) -> str:
    text = json.dumps(payload(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def instructions(result):
    if isinstance(result, multicore.MulticoreResult):
        return result.core_instructions
    return getattr(result, "instructions", None)


def invariant_error(cell: Cell, result) -> Optional[str]:
    """A seed-independent check of one cell's result, or ``None``."""
    if isinstance(result, experiments.ExperimentResult):
        if not result.rows or not all(
                math.isfinite(value) for value in result.summary.values()):
            return "fig10 produced no rows or a non-finite summary"
        return None
    stats = result.controller_stats
    served = stats.demand_reads + stats.demand_writes
    if served != cell.events:
        return f"controller served {served} of {cell.events} events"
    return None


# -- running ------------------------------------------------------------------

class CallLog:
    """Times every ``simulate``/``simulate_multicore`` call.

    Records the system, the number of trace events and the wall time of
    each call, and keeps its result for the simulated per-layer rates.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, fn):
        signature = inspect.signature(fn)

        def timed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sim = bound.arguments["sim"]
            inputs = bound.arguments.get("profiles", [None])
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - start
            self.records.append({
                "system": bound.arguments["system"],
                "events": sim.n_events * len(inputs),
                "wall_s": wall, "result": result})
            return result
        return timed

    def __enter__(self) -> "CallLog":
        self._undo = [patch_function(simulator, "simulate", self._wrap),
                      patch_function(multicore, "simulate_multicore",
                                     self._wrap)]
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()


def run_pass(cells: List[Cell], expected: Optional[Dict[str, str]] = None,
             trace: Optional[Trace] = None) -> dict:
    """Run the cells in order; returns the pass report.

    ``expected`` maps cell name to digest; a cell missing from it is
    reported as unchecked.  The report lists each cell and each timed
    ``simulate*`` call.  With ``trace`` the layer wrappers are installed
    for the pass, removed after it, and the per-layer metrics reported.
    """
    expected = expected or {}
    with CallLog() as log, trace or contextlib.nullcontext():
        outcomes = [_run_cell(cell, expected) for cell in cells]
    _check_groups(cells, outcomes)
    for outcome in outcomes:
        outcome.pop("result", None)
    wall = sum(outcome["wall_s"] for outcome in outcomes)
    report = {"cells": outcomes, "wall_s": wall,
              "calls": [{key: record[key] for key in ("system", "events",
                                                      "wall_s")}
                        for record in log.records]}
    if trace is not None:
        report["metrics"] = layer_metrics(log.records, trace, wall)
    return report


def layer_metrics(calls: List[dict], trace: Trace,
                  wall: float) -> Dict[str, float]:
    """Self time, calls and share per layer, plus the per-layer rates."""
    metrics: Dict[str, float] = {}
    self_s = trace.layer_self_s(wall)
    layer_calls = trace.layer_calls()
    for layer, seconds in self_s.items():
        if layer in layer_calls:
            metrics[f"{layer}.calls"] = layer_calls[layer]
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.self_share"] = seconds / wall
    line = "PageImageGenerator.line"
    metrics["workloads.datagen.install_lines"] = trace.calls(
        line, "Workload.page_lines")
    metrics["workloads.datagen.writeback_lines"] = trace.calls(
        line, "Workload.apply_writeback")
    stored = (64 * trace.calls("CompressedMemoryController.install_page")
              + trace.calls("CompressedMemoryController.write_line"))
    metrics["compression.size_computations_per_line"] = (
        trace.calls("Compressor.compressed_size_bytes") / max(1, stored))
    stats = [call["result"].controller_stats for call in calls]
    lookups = sum(s.metadata_hits + s.metadata_misses for s in stats)
    metrics["core.metadata_cache.hit_rate"] = (
        sum(s.metadata_hits for s in stats) / max(1, lookups))
    dram = [call["result"].dram_stats for call in calls]
    metrics["memory.dram.row_hit_rate"] = (
        sum(d.row_hits for d in dram) / max(1, sum(d.accesses for d in dram)))
    for phase in ("install", "events", "flush"):
        metrics[f"phase.{phase}_share"] = sum(
            record[f"{phase}_s"] for record in trace.phases) / wall
    return metrics


def _run_cell(cell: Cell, expected: Dict[str, str]) -> dict:
    """Time one cell.  ``error`` is an exception or a failed invariant;
    ``check`` is ``match``, ``mismatch`` or ``unchecked``."""
    outcome = {"name": cell.name, "ok": False, "error": None,
               "check": "unchecked", "digest": None}
    start = time.perf_counter()
    try:
        result = cell.run()
    except Exception:    # a failing cell counts; the pass goes on
        outcome["wall_s"] = time.perf_counter() - start
        outcome["error"] = traceback.format_exc(limit=3)
        print(f"cell {cell.name} raised:\n{outcome['error']}",
              file=sys.stderr)
        return outcome
    outcome["wall_s"] = time.perf_counter() - start
    outcome["digest"] = digest(result)
    outcome["result"] = result
    outcome["error"] = invariant_error(cell, result)
    if cell.name in expected:
        outcome["check"] = ("match" if expected[cell.name] == outcome["digest"]
                            else "mismatch")
    outcome["ok"] = outcome["error"] is None and outcome["check"] != "mismatch"
    return outcome


def _check_groups(cells: List[Cell], outcomes: List[dict]) -> None:
    """Cells of one group replay one trace: their instructions agree."""
    seen: Dict[str, Any] = {}
    for cell, outcome in zip(cells, outcomes):
        if "result" not in outcome:
            continue
        count = instructions(outcome["result"])
        reference = seen.setdefault(cell.group, count)
        if count != reference:
            outcome["ok"] = False
            outcome["error"] = outcome["error"] or (
                f"instructions {count} differ from the group's {reference}")
