"""Exporters: Chrome trace-event JSON, CSV timelines, terminal summary.

The Chrome trace format (one JSON object with a ``traceEvents`` array)
loads directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Two tracks are emitted:

* **pid 1 — simulated time**: instant events (``ph: "i"``) for every
  trace event, with ``ts`` equal to the simulated-access clock
  (interpreted as microseconds — 1 "us" = 1 demand access), plus
  counter events (``ph: "C"``) carrying the per-window split /
  overflow / metadata extra-access series;
* **pid 2 — wall clock**: complete events (``ph: "X"``) for the
  simulator's wall-clock phases (install / simulate / flush).

:func:`timeline_csv` exports the windowed timeline as CSV;
:func:`summary` renders the terminal report the ``trace`` CLI prints.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from .timeline import TimelineWindow, build_timeline
from .tracer import SOURCES, Tracer

#: Track identities in the Chrome trace output.
_SIM_PID = 1
_WALL_PID = 2


def chrome_trace(tracer: Tracer, window: Optional[int] = None) -> dict:
    """Render a tracer's events and phases as a Chrome trace object."""
    window = window or tracer.digest_window
    trace_events: List[dict] = [
        {"ph": "M", "pid": _SIM_PID, "name": "process_name",
         "args": {"name": "simulated clock (1us = 1 demand access)"}},
        {"ph": "M", "pid": _SIM_PID, "tid": 1, "name": "thread_name",
         "args": {"name": "events"}},
        {"ph": "M", "pid": _WALL_PID, "name": "process_name",
         "args": {"name": "wall clock"}},
        {"ph": "M", "pid": _WALL_PID, "tid": 1, "name": "thread_name",
         "args": {"name": "phases"}},
    ]
    for event in tracer.events:
        args = {"extra": event.extra}
        if event.page is not None:
            args["page"] = event.page
        if event.args:
            args.update(event.args)
        trace_events.append({
            "name": event.name, "ph": "i", "s": "t",
            "ts": event.clock, "pid": _SIM_PID, "tid": 1, "args": args,
        })
    for win in build_timeline(tracer.events, window,
                              end_clock=tracer.clock):
        trace_events.append({
            "name": "extra_accesses", "ph": "C",
            "ts": win.start_clock, "pid": _SIM_PID,
            "args": {source: win.extra_by_source[source]
                     for source in SOURCES},
        })
    for name, start_s, duration_s in tracer.phase_spans:
        trace_events.append({
            "name": name, "ph": "X",
            "ts": start_s * 1e6, "dur": duration_s * 1e6,
            "pid": _WALL_PID, "tid": 1,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path,
                       window: Optional[int] = None) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(tracer, window=window), handle)


def timeline_csv(windows: Iterable[TimelineWindow]) -> str:
    """Windowed timeline as CSV (one row per window)."""
    lines = ["window,start_clock,end_clock,split,overflow,metadata,"
             "total_extra,events"]
    for win in windows:
        n_events = sum(win.event_counts.values())
        lines.append(
            f"{win.index},{win.start_clock},{win.end_clock},"
            f"{win.extra_by_source['split']},"
            f"{win.extra_by_source['overflow']},"
            f"{win.extra_by_source['metadata']},"
            f"{win.total_extra},{n_events}")
    return "\n".join(lines) + "\n"


def summary(tracer: Tracer, stats=None,
            window: Optional[int] = None) -> str:
    """Terminal report: totals, per-source breakdown, busiest windows,
    and phase times."""
    window = window or tracer.digest_window
    lines = ["== trace summary =="]
    lines.append(f"clock: {tracer.clock} demand accesses, "
                 f"{len(tracer.events)} events")
    by_source = tracer.extra_by_source()
    total = sum(by_source.values())
    lines.append(
        "extra accesses: "
        + ", ".join(f"{source}={by_source[source]}" for source in SOURCES)
        + f", total={total}")
    if stats is not None:
        lines.append(f"controller extra_accesses: {stats.extra_accesses} "
                     f"(reconciles: {stats.extra_accesses == total})")
    counts = tracer.counts()
    if counts:
        lines.append("event counts:")
        for name in sorted(counts, key=lambda n: -counts[n]):
            lines.append(f"  {name:<22} {counts[name]}")
    windows = build_timeline(tracer.events, window, end_clock=tracer.clock)
    busiest = sorted(windows, key=lambda w: -w.total_extra)[:5]
    if busiest and busiest[0].total_extra:
        lines.append(f"busiest windows (width {window}):")
        for win in busiest:
            if not win.total_extra:
                break
            lines.append(
                f"  [{win.start_clock:>8}..{win.end_clock:>8}) "
                f"extra={win.total_extra} "
                f"(split={win.extra_by_source['split']} "
                f"overflow={win.extra_by_source['overflow']} "
                f"metadata={win.extra_by_source['metadata']})")
    phases = tracer.phase_seconds()
    if phases:
        lines.append("phases (wall clock):")
        for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<22} {seconds * 1e3:8.1f} ms")
    return "\n".join(lines)
