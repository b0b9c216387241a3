"""Parallel executor: fan work units out over ``multiprocessing``.

``Runner.map`` preserves submission order in its results regardless of
completion order, normalizes every fresh result through a JSON
round-trip (so cold, warm and parallel runs return byte-identical
payloads), consults the :class:`~repro.runner.cache.ResultCache`
before computing, and emits ``unit_start``/``unit_end`` journal events
plus a live progress line.  ``jobs=1`` executes inline in the parent
process — the historical deterministic serial path, with no pool and
no pickling.

Crash tolerance (docs/ROBUSTNESS.md): parallel units each run in their
own child process, so a crashing worker (segfault, ``os._exit``,
OOM-kill) or a hanging one (killed at ``timeout`` seconds) loses only
that unit.  The scheduler retries lost units up to ``retries`` times
with exponential backoff and deterministic jitter, journals each
attempt as ``unit_retry``, and records units that exhaust their budget
as :class:`UnitFailure` (``strict=True`` raises
:class:`UnitFailureError` at the end of the sweep; non-strict sweeps
return ``None`` for the failed cells).  Passing ``timeout`` or
``retries`` routes even single-job sweeps through child processes,
since a hang can only be killed across a process boundary.  Unit
processes are daemonic, so a dying parent takes its workers with it.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sys
import time
from dataclasses import dataclass
from queue import Empty
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .journal import RunJournal
from .units import WorkUnit

#: Seconds a worker may be dead before its silence counts as a crash
#: (covers the gap between a child's final queue put and its exit).
_DEATH_GRACE_S = 0.5

#: Queue poll interval while the scheduler waits for results.
_POLL_S = 0.05


@dataclass
class UnitRecord:
    """Timing/caching record for one executed (or cache-served) unit."""

    label: str
    experiment: str
    key: Optional[str]
    cached: bool
    wall_s: float


@dataclass
class UnitFailure:
    """One unit that exhausted its retry budget."""

    label: str
    experiment: str
    key: Optional[str]
    attempts: int
    reason: str


class UnitFailureError(RuntimeError):
    """Raised by a strict ``Runner.map`` when units failed permanently."""


def _worker(payload: Tuple[int, int, Any, Dict[str, Any]], queue) -> None:
    """Child-process entry point: run one unit, report via the queue."""
    index, attempt, fn, params = payload
    started = time.perf_counter()
    try:
        result = fn(**params)
    except BaseException as exc:
        queue.put((index, attempt, False,
                   f"{type(exc).__name__}: {exc}",
                   time.perf_counter() - started))
        return
    queue.put((index, attempt, True, result,
               time.perf_counter() - started))


@dataclass
class _Task:
    """Scheduler state for one not-yet-settled unit."""

    index: int
    unit: WorkUnit
    key: Optional[str]
    attempt: int = 0
    not_before: float = 0.0      # monotonic launch gate (backoff)
    proc: Any = None
    deadline: Optional[float] = None
    started: float = 0.0
    dead_since: Optional[float] = None


class Runner:
    """Schedules work units serially or across worker processes.

    Args:
        jobs: max concurrently running units (1 = serial).
        cache: optional result cache probed before computing.
        journal: optional run journal receiving per-unit events.
        progress: live one-line progress on stderr.
        timeout: per-unit wall-clock budget in seconds; an over-budget
            worker is killed and the unit retried.  ``None`` disables.
        retries: extra attempts after a crash, hang or raising unit.
        backoff: base retry delay; attempt ``n`` waits
            ``backoff * 2**n`` scaled by a deterministic jitter in
            [0.5, 1.5) seeded from the unit key.
        strict: raise :class:`UnitFailureError` at the end of ``map``
            if any unit failed permanently (otherwise its result slot
            is ``None`` and the failure is listed in ``failures``).
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 journal: Optional[RunJournal] = None,
                 progress: bool = False,
                 timeout: Optional[float] = None, retries: int = 0,
                 backoff: float = 0.25, strict: bool = True) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.journal = journal
        self.progress = progress
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = backoff
        self.strict = strict
        self.records: List[UnitRecord] = []
        self.failures: List[UnitFailure] = []

    # -- public API -------------------------------------------------------

    def map(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run every unit, returning results in submission order."""
        units = list(units)
        results: List[Any] = [None] * len(units)
        # Keys are only needed when a cache or journal observes them.
        need_keys = self.cache is not None or self.journal is not None
        keys = [unit.key() if need_keys else None for unit in units]

        started = time.perf_counter()
        base = len(self.records)
        failures_base = len(self.failures)
        done = 0
        pending: List[_Task] = []
        for index, unit in enumerate(units):
            key = keys[index]
            hit = self.cache.get(key) if (self.cache is not None) else None
            self._journal_start(unit, key, cached=hit is not None)
            if hit is not None:
                results[index] = hit
                self._finish(unit, key, hit, wall_s=0.0, cached=True)
                done += 1
                self._progress_line(units, done, started, base)
            else:
                pending.append(_Task(index, unit, key))

        isolate = self.timeout is not None or self.retries > 0
        if not isolate and (self.jobs == 1 or len(pending) <= 1):
            for task in pending:
                unit_started = time.perf_counter()
                result = self._normalize(task.unit.run())
                wall = time.perf_counter() - unit_started
                results[task.index] = result
                self._store(task.unit, task.key, result)
                self._finish(task.unit, task.key, result, wall_s=wall,
                             cached=False)
                done += 1
                self._progress_line(units, done, started, base)
        elif pending:
            self._run_isolated(pending, units, results, started, base, done)
        self._progress_end(units)
        new_failures = self.failures[failures_base:]
        if new_failures and self.strict:
            details = "; ".join(
                f"{f.label} ({f.reason}, {f.attempts} attempts)"
                for f in new_failures)
            raise UnitFailureError(
                f"{len(new_failures)} unit(s) failed permanently: {details}")
        return results

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    # -- process scheduler ------------------------------------------------

    def _run_isolated(self, pending: List[_Task],
                      units: Sequence[WorkUnit], results: List[Any],
                      started: float, base: int, done: int) -> None:
        """Run pending units in child processes with kill-and-retry."""
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        waiting: List[_Task] = list(pending)
        running: Dict[int, _Task] = {}

        while waiting or running:
            now = time.monotonic()
            for task in list(waiting):
                if len(running) >= self.jobs:
                    break
                if task.not_before > now:
                    continue
                waiting.remove(task)
                payload = (task.index, task.attempt, task.unit.fn,
                           dict(task.unit.params))
                task.proc = ctx.Process(target=_worker,
                                        args=(payload, queue), daemon=True)
                task.started = time.perf_counter()
                task.deadline = (None if self.timeout is None
                                 else now + self.timeout)
                task.dead_since = None
                task.proc.start()
                running[task.index] = task

            try:
                message = queue.get(timeout=_POLL_S)
            except Empty:
                message = None
            if message is not None:
                index, attempt, ok, payload, wall = message
                task = running.get(index)
                if task is None or task.attempt != attempt:
                    continue    # stale echo from a worker already killed
                running.pop(index)
                task.proc.join()
                if ok:
                    result = self._normalize(payload)
                    results[index] = result
                    self._store(task.unit, task.key, result)
                    self._finish(task.unit, task.key, result, wall_s=wall,
                                 cached=False)
                    done += 1
                    self._progress_line(units, done, started, base)
                else:
                    settled = self._retry_or_fail(task, payload, waiting)
                    done += settled
                    if settled:
                        self._progress_line(units, done, started, base)
                continue

            now = time.monotonic()
            for index, task in list(running.items()):
                if task.deadline is not None and now >= task.deadline:
                    task.proc.terminate()
                    task.proc.join()
                    running.pop(index)
                    settled = self._retry_or_fail(
                        task, f"timeout after {self.timeout}s", waiting)
                    done += settled
                    if settled:
                        self._progress_line(units, done, started, base)
                elif not task.proc.is_alive():
                    # A finished worker's result may still be draining
                    # through the queue: give it a grace period before
                    # its silence counts as a crash.
                    if task.dead_since is None:
                        task.dead_since = now
                    elif now - task.dead_since > _DEATH_GRACE_S:
                        running.pop(index)
                        settled = self._retry_or_fail(
                            task,
                            f"worker died (exit {task.proc.exitcode})",
                            waiting)
                        done += settled
                        if settled:
                            self._progress_line(units, done, started, base)
        queue.close()

    def _retry_or_fail(self, task: _Task, reason: str,
                       waiting: List[_Task]) -> int:
        """Requeue a lost unit with backoff, or record a permanent failure.

        Returns 1 when the unit settled (failed permanently), 0 when it
        was requeued.
        """
        if task.attempt < self.retries:
            delay = self.backoff * (2 ** task.attempt)
            # Deterministic jitter: same unit + attempt -> same delay.
            rng = random.Random(f"{task.key or task.unit.label}"
                                f":{task.attempt}")
            delay *= 0.5 + rng.random()
            if self.journal is not None:
                self.journal.event(
                    "unit_retry", unit=task.unit.label,
                    experiment=task.unit.experiment, key=task.key,
                    attempt=task.attempt + 1, reason=reason, delay_s=delay)
            task.attempt += 1
            task.not_before = time.monotonic() + delay
            task.proc = None
            waiting.append(task)
            return 0
        self.failures.append(UnitFailure(
            label=task.unit.label, experiment=task.unit.experiment,
            key=task.key, attempts=task.attempt + 1, reason=reason))
        self._finish(task.unit, task.key, None,
                     wall_s=time.perf_counter() - task.started,
                     cached=False, ok=False)
        return 1

    # -- internals --------------------------------------------------------

    @staticmethod
    def _normalize(result: Any) -> Any:
        """JSON round-trip so fresh and cached results are identical."""
        return json.loads(json.dumps(result))

    def _store(self, unit: WorkUnit, key: Optional[str],
               result: Any) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, unit, result)

    def _journal_start(self, unit: WorkUnit, key: Optional[str],
                       cached: bool) -> None:
        if self.journal is not None:
            fields: Dict[str, Any] = dict(
                unit=unit.label, experiment=unit.experiment, key=key,
                cached=cached)
            seed = unit.seed()
            if seed is not None:
                fields["seed"] = seed
            self.journal.event("unit_start", **fields)

    def _finish(self, unit: WorkUnit, key: Optional[str], result: Any,
                wall_s: float, cached: bool, ok: bool = True) -> None:
        self.records.append(UnitRecord(
            label=unit.label, experiment=unit.experiment, key=key,
            cached=cached, wall_s=wall_s))
        if self.journal is not None:
            fields: Dict[str, Any] = dict(
                unit=unit.label, experiment=unit.experiment, key=key,
                cached=cached, wall_s=wall_s, ok=ok)
            seed = unit.seed()
            if seed is not None:
                fields["seed"] = seed
            if isinstance(result, dict) and isinstance(
                    result.get("stats"), dict):
                fields["stats"] = result["stats"]
            if isinstance(result, dict) and isinstance(
                    result.get("timeline"), dict):
                fields["timeline"] = result["timeline"]
            if isinstance(result, dict) and isinstance(
                    result.get("sanitizer"), dict):
                fields["sanitizer"] = result["sanitizer"]
            self.journal.event("unit_end", **fields)

    def _progress_line(self, units: Sequence[WorkUnit], done: int,
                       started: float, base: int) -> None:
        if not self.progress or not units:
            return
        hits = sum(1 for record in self.records[base:] if record.cached)
        elapsed = time.perf_counter() - started
        sys.stderr.write(
            f"\r[{units[0].experiment}] {done}/{len(units)} units "
            f"({hits} cached) {elapsed:.1f}s")
        sys.stderr.flush()

    def _progress_end(self, units: Sequence[WorkUnit]) -> None:
        if self.progress and units:
            sys.stderr.write("\n")
            sys.stderr.flush()


def timing_table(records: Sequence[UnitRecord]) -> str:
    """End-of-run timing table: slowest units first, totals last."""
    lines = ["== run timing =="]
    width = max([len(r.label) for r in records], default=10)
    width = max(width, len("unit"))
    lines.append(f"{'unit':<{width}}  {'wall_s':>8}  cache")
    lines.append("-" * (width + 18))
    for record in sorted(records, key=lambda r: r.wall_s, reverse=True):
        source = "hit" if record.cached else "miss"
        lines.append(
            f"{record.label:<{width}}  {record.wall_s:>8.2f}  {source}")
    total = sum(record.wall_s for record in records)
    hits = sum(1 for record in records if record.cached)
    lines.append("-" * (width + 18))
    lines.append(f"{len(records)} units, {hits} cache hits, "
                 f"{total:.2f}s total unit wall time")
    return "\n".join(lines)
