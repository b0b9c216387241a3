#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, with per-layer tracing.

Run one workload and print every metric, then one JSON result line::

    python3 perf/run.py --workload read-stream --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --workload read-stream --trace       # per-layer run

Other modes::

    python3 perf/run.py --all --repeat 3 --set base   # perf/out/base.json
    python3 perf/run.py --rebaseline                  # rewrite expected.json

Each pass of a workload is a fresh interpreter, run one at a time with
one BLAS thread, so process-wide caches start empty exactly as in one
``run`` unit.  Passes repeat until another would overrun ``--seconds``;
the metrics are medians over passes.  This process imports nothing from the
simulator: it only spawns passes, checks them and reports.  See
perf/README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
EXPECTED = PERF / "expected.json"
#: Seeds with recorded digests; 2 is the held-out seed.
BASELINE_SEEDS = (1, 2)
#: Set-up is timed in at least this many fresh interpreters per run.
SETUP_SAMPLES = 5
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A pass could not run or report; the run prints no result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


# -- one pass, in a fresh interpreter -------------------------------------------

def pass_report(workload: str, seed: int, traced: bool, smoke: bool,
                spawned_at: float, setup_only: bool = False) -> dict:
    """Build the inputs, run the cells once and report.

    ``setup_s`` runs from ``spawned_at`` (``time.monotonic()`` in the
    spawning process) to inputs ready: interpreter start, imports and
    input construction.
    """
    import grid
    import layers
    import numpy
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise BenchmarkError(f"simulator imported from {repro.__file__}, "
                             f"not from {ROOT / 'src'}")
    cells = grid.build_cells(workload, seed, smoke)
    report = {"setup_s": time.monotonic() - spawned_at}
    if setup_only:
        return report
    expected = {} if smoke else load_expected().get(
        grid.python_minor(), {}).get(workload, {}).get(str(seed), {})
    trace = layers.Trace() if traced else None
    report.update(grid.run_pass(cells, expected, trace))
    if trace is not None:
        report["trace"] = {"aggregates": trace.records(),
                           "calls": trace.phases}
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    report["python"] = grid.python_minor()
    report["numpy"] = numpy.__version__
    return report


def child_main(args) -> None:
    report = pass_report(args.workload, args.seed, bool(args.trace),
                         args.smoke, args.spawned_at, args.setup_only)
    trace = report.pop("trace", None)
    if trace is not None and not args.smoke:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}.trace.json").write_text(json.dumps(
            dict(trace, workload=args.workload, seed=args.seed,
                 wall_s=report["wall_s"], metrics=report["metrics"]),
            indent=1))
    print(json.dumps(report))


def spawn_pass(workload: str, seed: int, traced: bool = False,
               smoke: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    command = [sys.executable, str(PERF / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced))]
    command += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} pass exited with code {done.returncode}")
    return json.loads(lines[-1])


# -- one run: passes until the time budget is spent ---------------------------

def median_walls(reports: List[dict], key: str) -> List[float]:
    """Each cell's or call's median wall time over the passes."""
    return [statistics.median(walls) for walls in
            zip(*([item["wall_s"] for item in r[key]] for r in reports))]


def end_to_end(untraced: List[dict]) -> Dict[str, float]:
    """Events per second of host time, overall and per system, and wall
    time, from each call's median wall time over the passes."""
    calls = untraced[0]["calls"]
    walls = median_walls(untraced, "calls")

    def rate(system: Optional[str] = None) -> float:
        chosen = [i for i, call in enumerate(calls)
                  if system in (None, call["system"])]
        seconds = sum(walls[i] for i in chosen)
        if not seconds:
            raise BenchmarkError(f"no timed {system or 'simulate'} calls")
        return sum(calls[i]["events"] for i in chosen) / seconds

    metrics = {"events_per_s": rate(),
               "wall_s": sum(median_walls(untraced, "cells"))}
    for system in dict.fromkeys(call["system"] for call in calls):
        metrics[f"events_per_s.{system}"] = rate(system)
    return metrics


def summarize(untraced: List[dict], traced: List[dict],
              setups: List[float]) -> dict:
    """Metrics over passes, attempted and failed cells, digests.

    A cell fails when it raised, broke an invariant, mismatched its
    recorded digest, or gave a digest that differs from the first
    pass's (a traced pass must match an untraced one).
    """
    reports = untraced + traced
    digests = {cell["name"]: cell["digest"] for cell in reports[0]["cells"]}
    cells = [cell for report in reports for cell in report["cells"]]
    failed = [cell for cell in cells
              if not cell["ok"] or cell["digest"] != digests[cell["name"]]]
    checks = sorted({cell["check"] for cell in cells})
    if traced:
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in traced[0]["metrics"]}
        metrics["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced) - 1)
    else:
        metrics = end_to_end(untraced)
        metrics["peak_rss_mb"] = statistics.median(
            r["peak_rss_mb"] for r in untraced)
        metrics["setup_s"] = statistics.median(setups)
    return {"metrics": metrics, "attempted": len(cells),
            "failed": len(failed), "checks": checks, "digests": digests,
            "python": reports[0]["python"], "numpy": reports[0]["numpy"]}


def measure(workload: str, seed: int, seconds: float, traced: bool = False,
            smoke: bool = False) -> dict:
    """One run: rounds of passes (an untraced and a traced one when
    ``traced``) until another round would overrun ``seconds``; at least
    one round."""
    modes = (False, True) if traced else (False,)
    passes: Dict[bool, List[dict]] = {False: [], True: []}
    start = time.monotonic()
    longest = 0.0
    while True:
        for mode in modes:
            began = time.monotonic()
            passes[mode].append(spawn_pass(workload, seed, mode, smoke))
            longest = max(longest, time.monotonic() - began)
        if time.monotonic() - start + longest * len(modes) > seconds:
            break
    setups = [r["setup_s"] for r in passes[False] + passes[True]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_pass(workload, seed, smoke=smoke,
                                 setup_only=True)["setup_s"])
    return summarize(passes[False], passes[True], setups)


def result_line(run: dict, declared: List[dict]) -> dict:
    """The final JSON line: exactly the declared metrics, with units."""
    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


# -- sets of runs and rebaselining ----------------------------------------------

def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(name: str, repeat: int, seed: int, seconds: float) -> Path:
    """``repeat`` rounds of every workload, round-robin."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = []
    for index in range(repeat):
        for workload in (w["name"] for w in spec["workloads"]):
            run = measure(workload, seed, seconds)
            run.update(workload=workload, repeat=index)
            runs.append(run)
            for metric, unit in units.items():
                print(f"{workload} {metric} {run['metrics'][metric]!r} {unit}")
            print(f"{workload} failed {run['failed']} of {run['attempted']}")
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        mine = [run for run in runs if run["workload"] == workload]
        summary[workload] = {
            metric: dict(quartiles([run["metrics"][metric] for run in mine]),
                         unit=units[metric])
            for metric in units}
        summary[workload]["failed_frac"] = (
            sum(run["failed"] for run in mine)
            / sum(run["attempted"] for run in mine))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps({
        "set": name, "seed": seed, "seconds": seconds, "repeat": repeat,
        "python": runs[0]["python"], "numpy": runs[0]["numpy"],
        "commit": commit(), "runs": runs, "summary": summary}, indent=1))
    return path


def rebaseline() -> List[str]:
    """Record every cell's digest at the baseline seeds for this Python;
    returns the cells whose digest moved."""
    expected = load_expected()
    records: Dict[str, dict] = {}
    python = None
    for workload in (w["name"] for w in load_spec()["workloads"]):
        for seed in BASELINE_SEEDS:
            report = spawn_pass(workload, seed)
            broken = [c["name"] for c in report["cells"] if c["error"]]
            if broken:
                raise BenchmarkError(f"{workload} seed {seed}: cells "
                                     f"{broken} failed; nothing rewritten")
            python = report["python"]
            records.setdefault(workload, {})[str(seed)] = {
                c["name"]: c["digest"] for c in report["cells"]}
    old = expected.get(python, {})
    moved = [f"{workload} seed {seed} {cell}"
             for workload, seeds in records.items()
             for seed, cells in seeds.items()
             for cell, value in cells.items()
             if old.get(workload, {}).get(seed, {}).get(cell) != value]
    expected[python] = records
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return moved


# -- command line ---------------------------------------------------------------

def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name (BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of one run (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload at 1/50 of its trace length")
    parser.add_argument("--all", action="store_true",
                        help="every workload, round-robin, into a set file")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--set", default=time.strftime("%Y%m%d-%H%M%S"),
                        help="set name for --all (perf/out/SET.json)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite perf/expected.json for this Python")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    try:
        if args.rebaseline:
            moved = rebaseline()
            print(f"rewrote {EXPECTED.name}; {len(moved)} cells moved")
            for cell in moved:
                print(f"moved: {cell}")
            return 0
        if args.all:
            print(f"wrote {run_set(args.set, args.repeat, args.seed, args.seconds)}")
            return 0
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        run = measure(args.workload, args.seed, args.seconds,
                      traced=bool(args.trace), smoke=args.smoke)
        line = result_line(run, spec["per_layer" if args.trace
                                     else "end_to_end"])
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for metric, entry in line["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(f"cells {run['attempted']} failed {run['failed']} "
          f"digests {'/'.join(run['checks'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
