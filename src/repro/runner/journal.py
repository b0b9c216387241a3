"""Run journal: structured per-unit events appended to ``runs.jsonl``.

Every runner invocation gets a ``run_id``; every work unit produces a
``unit_start`` / ``unit_end`` event pair.  Events are one JSON object
per line, append-only, so successive runs accumulate into a durable
history that tooling can tail or aggregate.  Each append is flushed
and fsynced before :meth:`RunJournal.event` returns, so a crash —
even of the whole machine — loses at most the event being written;
:func:`find_interrupted` then reads the surviving prefix (tolerating
one torn trailing line) and reports which units a crashed run left
unfinished (docs/ROBUSTNESS.md).

Event schema (see also docs/RUNNER.md):

==============  =====================================================
event           required fields (beyond ``event``, ``run_id``, ``ts``)
==============  =====================================================
``run_start``   ``jobs`` (int), ``cache_enabled`` (bool)
``unit_start``  ``unit`` (str), ``experiment`` (str), ``key`` (str or
                null), ``cached`` (bool)
``unit_retry``  ``unit``, ``experiment``, ``key``, ``attempt`` (int),
                ``reason`` (str), ``delay_s`` (float)
``unit_end``    ``unit``, ``experiment``, ``key``, ``cached``,
                ``wall_s`` (float), ``ok`` (bool)
``run_end``     ``wall_s`` (float), ``units`` (int), ``cache_hits``
                (int)
``index``       ``db`` (str), ``sources`` (list), ``inserted``
                (int) — one results-index ingest
                (``python -m repro.analysis index``, docs/RESULTS.md)
``compare``     ``db`` (str), ``run_a`` (str), ``run_b`` (str),
                ``metrics`` (int), ``regressions`` (int) — one
                cross-run comparison
                (``python -m repro.analysis compare``,
                docs/RESULTS.md)
==============  =====================================================

``unit_end`` additionally carries ``stats`` (a ControllerStats summary
dict) when the unit reports one, and ``timeline`` (a
``repro.obs.timeline_digest`` dict — windowed extra-access totals per
§IV source plus the peak window) when the unit ran under a tracer
(``--trace-window`` / ``ExperimentScale.trace_window``).  When the
unit ran with the memory-model sanitizer attached (``--sanitize`` /
``ExperimentScale.sanitize``) it also carries ``sanitizer`` (a dict
with the invariant ``violations`` count summed over the unit's runs,
plus ``faults_injected`` under fault injection — see docs/LINTING.md),
and ``run_start`` records ``sanitize: true`` for the whole run.

Multi-seed runs (``--seeds N``, docs/RESULTS.md) add ``seeds`` and
``base_seed`` (ints) to ``run_start`` and a ``seed`` (int) to every
``unit_start``/``unit_end`` whose params carry one, so downstream
tooling (the results index) can group a unit's samples across seeds.
These optional payloads are *validated when present*: a malformed
``stats``/``timeline``/``sanitizer`` dict is a schema problem, not a
silently journaled (and later silently mis-ingested) blob.
"""

from __future__ import annotations

import json
import os
import time
import uuid
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

DEFAULT_JOURNAL_PATH = "runs.jsonl"

#: event type -> {field name: required type(s)} beyond the common trio.
EVENT_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "run_start": {"jobs": (int,), "cache_enabled": (bool,)},
    "unit_start": {"unit": (str,), "experiment": (str,),
                   "key": (str, type(None)), "cached": (bool,)},
    "unit_retry": {"unit": (str,), "experiment": (str,),
                   "key": (str, type(None)), "attempt": (int,),
                   "reason": (str,), "delay_s": (int, float)},
    "unit_end": {"unit": (str,), "experiment": (str,),
                 "key": (str, type(None)), "cached": (bool,),
                 "wall_s": (int, float), "ok": (bool,)},
    "run_end": {"wall_s": (int, float), "units": (int,),
                "cache_hits": (int,)},
    "index": {"db": (str,), "sources": (list,), "inserted": (int,)},
    "compare": {"db": (str,), "run_a": (str,), "run_b": (str,),
                "metrics": (int,), "regressions": (int,)},
}

_COMMON_FIELDS = {"event": (str,), "run_id": (str,), "ts": (int, float)}


def _check_number_map(value: Any) -> Optional[str]:
    """A dict of string keys to numbers/nulls (the ``stats`` digest)."""
    if not isinstance(value, dict):
        return f"is not an object ({type(value).__name__})"
    for key, entry in value.items():
        if not isinstance(key, str):
            return f"key {key!r} is not a string"
        if isinstance(entry, bool) or not isinstance(
                entry, (int, float, type(None))):
            return f"[{key!r}] is not a number or null"
    return None


def _check_timeline(value: Any) -> Optional[str]:
    """A ``repro.obs.timeline_digest`` dict (docs/OBSERVABILITY.md)."""
    if not isinstance(value, dict):
        return f"is not an object ({type(value).__name__})"
    for name in ("window", "extra_accesses"):
        entry = value.get(name)
        if isinstance(entry, bool) or not isinstance(entry, int):
            return f"[{name!r}] missing or not an int"
    if value["window"] <= 0:
        return "['window'] must be positive"
    by_source = value.get("by_source")
    if not isinstance(by_source, dict):
        return "['by_source'] missing or not an object"
    for source, extra in by_source.items():
        if not isinstance(source, str) or isinstance(extra, bool) \
                or not isinstance(extra, int):
            return f"['by_source'][{source!r}] is not an int"
    peak = value.get("peak", None)
    if peak is not None and not isinstance(peak, dict):
        return "['peak'] is neither an object nor null"
    return None


def _check_sanitizer(value: Any) -> Optional[str]:
    """The sanitizer digest: at least a ``violations`` count."""
    if not isinstance(value, dict):
        return f"is not an object ({type(value).__name__})"
    violations = value.get("violations")
    if isinstance(violations, bool) or not isinstance(violations, int):
        return "['violations'] missing or not an int"
    if violations < 0:
        return "['violations'] is negative"
    return None


def _check_int(value: Any) -> Optional[str]:
    if isinstance(value, bool) or not isinstance(value, int):
        return f"is not an int ({type(value).__name__})"
    return None


#: event type -> {optional field: shape checker}.  These fields may be
#: absent; when present their payload must have the documented shape.
_OPTIONAL_FIELDS: Dict[str, Dict[str, Any]] = {
    "run_start": {"seeds": _check_int, "base_seed": _check_int},
    "unit_start": {"seed": _check_int},
    "unit_end": {"seed": _check_int, "stats": _check_number_map,
                 "timeline": _check_timeline,
                 "sanitizer": _check_sanitizer},
}


class RunJournal:
    """Append-only JSONL event log for one (or more) runner invocations."""

    def __init__(self, path: str | Path = DEFAULT_JOURNAL_PATH,
                 run_id: Optional[str] = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or uuid.uuid4().hex[:12]

    def event(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record written.

        The line is flushed and fsynced before returning, so every
        event that this method returned from survives a crash of the
        process or the machine (crash-safe journal,
        docs/ROBUSTNESS.md).
        """
        record = {"event": event, "run_id": self.run_id,
                  "ts": time.time(), **fields}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return record


def validate_event(record: Any) -> List[str]:
    """Return a list of schema problems for one journal record (empty = ok)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    for name, types in _COMMON_FIELDS.items():
        if name not in record:
            problems.append(f"missing field {name!r}")
        elif not isinstance(record[name], types):
            problems.append(f"field {name!r} has type "
                            f"{type(record[name]).__name__}")
    event = record.get("event")
    if event not in EVENT_SCHEMA:
        problems.append(f"unknown event type {event!r}")
        return problems
    for name, types in EVENT_SCHEMA[event].items():
        if name not in record:
            problems.append(f"{event}: missing field {name!r}")
        elif not isinstance(record[name], types):
            problems.append(f"{event}: field {name!r} has type "
                            f"{type(record[name]).__name__}")
    for name, checker in _OPTIONAL_FIELDS.get(event, {}).items():
        if name not in record:
            continue
        problem = checker(record[name])
        if problem is not None:
            problems.append(f"{event}: field {name!r} {problem}")
    return problems


def read_journal(path: str | Path,
                 skip_invalid: bool = False) -> List[Dict[str, Any]]:
    """Parse every event in a ``runs.jsonl`` file (skipping blank lines).

    A torn *final* line — the signature of a crash mid-append, since
    every append is fsynced whole — is repaired, not propagated: the
    file is truncated back to the last valid newline (with a warning)
    and the surviving prefix is returned, so the next append continues
    a well-formed journal instead of gluing onto half a record.  An
    undecodable line anywhere *else* is genuine corruption and raises,
    unless ``skip_invalid`` drops it.
    """
    target = Path(path)
    data = target.read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    for raw_line in data.splitlines(keepends=True):
        line_start = offset
        offset += len(raw_line)
        line = raw_line.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if not data[offset:].strip():
                # Torn final line: truncate to the last valid newline.
                warnings.warn(
                    f"{target}: torn final line "
                    f"({len(raw_line)} bytes) truncated",
                    RuntimeWarning, stacklevel=2)
                try:
                    with target.open("r+b") as handle:
                        handle.truncate(line_start)
                except OSError:
                    pass   # unwritable journal: still return the prefix
                break
            if not skip_invalid:
                raise
    return records


def find_interrupted(path: str | Path) -> Dict[str, List[Any]]:
    """Reconstruct what a crashed run left unfinished.

    Returns ``{"runs": [run_ids...], "units": [unit_start records...]}``
    where the runs have a ``run_start`` but no ``run_end`` and the
    units have a ``unit_start`` (in such a run or any other) with no
    matching ``unit_end``.  Because the runner journals ``unit_end``
    for every settled unit — success, cache hit or permanent failure —
    an open ``unit_start`` means the process died (or was killed)
    while that unit was in flight; rerunning the sweep with the cache
    enabled recomputes exactly those cells (docs/ROBUSTNESS.md).

    Units are keyed by ``(run_id, unit, key, seed)``: multi-seed
    sweeps (``run --seeds N``) run the same unit label once per seed,
    and a ``unit_end`` for seed 0 must not close seed 1's in-flight
    start — only the exact (unit, seed) pair that finished.  A journal
    that does not exist yet holds no runs, so nothing is interrupted.
    """
    if not Path(path).exists():
        return {"runs": [], "units": []}
    open_units: Dict[tuple, Dict[str, Any]] = {}
    seen_runs: List[str] = []
    ended_runs: set = set()
    for record in read_journal(path, skip_invalid=True):
        run_id = record.get("run_id")
        event = record.get("event")
        if event == "run_start" and run_id not in seen_runs:
            seen_runs.append(run_id)
        elif event == "run_end":
            ended_runs.add(run_id)
        elif event == "unit_start":
            marker = (run_id, record.get("unit"), record.get("key"),
                      record.get("seed"))
            open_units[marker] = record
        elif event == "unit_end":
            open_units.pop(
                (run_id, record.get("unit"), record.get("key"),
                 record.get("seed")), None)
    return {
        "runs": [run for run in seen_runs if run not in ended_runs],
        "units": list(open_units.values()),
    }
