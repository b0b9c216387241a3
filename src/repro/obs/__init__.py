"""Observability: event tracing, timelines, exporters.

See docs/OBSERVABILITY.md for the event schema, clock semantics, and
exporter formats.  Quick tour:

* :class:`Tracer` / :data:`NULL_TRACER` — structured controller events
  on a simulated-access clock (``repro.obs.tracer``);
* :func:`build_timeline` / :func:`timeline_digest` — windowed §IV
  extra-access breakdown (``repro.obs.timeline``);
* :func:`chrome_trace` and friends — Perfetto-loadable JSON, timeline
  CSV, and terminal exporters (``repro.obs.export``);
* :class:`Histogram` — fixed-bucket percentile estimates, used for the
  pressure controller's stall times (``repro.obs.metrics``).
"""

from .export import (
    chrome_trace,
    summary,
    timeline_csv,
    write_chrome_trace,
)
from .metrics import Histogram
from .timeline import TimelineWindow, build_timeline, timeline_digest
from .tracer import (
    EVENT_SOURCES,
    NULL_TRACER,
    SOURCES,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "EVENT_SOURCES",
    "NULL_TRACER",
    "SOURCES",
    "Histogram",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "TimelineWindow",
    "build_timeline",
    "chrome_trace",
    "summary",
    "timeline_csv",
    "timeline_digest",
    "write_chrome_trace",
]
