"""Cross-run SQLite results index (``results_index.sqlite``).

The run journal (``runs.jsonl``) is append-only, write-only history;
this module turns it into a queryable database (docs/RESULTS.md):

* ``runs``    — one row per runner invocation (``run_start`` merged
  with its ``run_end``);
* ``units``   — one row per settled work unit per seed
  (``unit_end``);
* ``metrics`` — the numeric leaves of every unit's journaled
  ``stats``/``timeline``/``sanitizer`` digests, flattened to dotted
  names, one row per (run, unit, seed, metric).

Ingestion is **idempotent**: rows are keyed by their natural identity
(run id + unit + seed), inserts use
``INSERT OR IGNORE``/conflict-update upserts, and
:meth:`ResultsIndex.ingest_journal` reports how many rows were
actually new — re-ingesting an already-indexed journal inserts zero.
Records that fail :func:`repro.runner.validate_event` are counted and
skipped, never half-ingested.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..runner import read_journal, validate_event

DEFAULT_DB_PATH = "results_index.sqlite"

#: ``units.seed``/``metrics.seed`` value for seedless units (SQLite
#: primary keys cannot contain NULL).
NO_SEED = -1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        TEXT PRIMARY KEY,
    started       REAL,
    finished      REAL,
    jobs          INTEGER,
    cache_enabled INTEGER,
    scale         TEXT,
    sanitize      TEXT,
    seeds         INTEGER,
    base_seed     INTEGER,
    experiments   TEXT,
    units         INTEGER,
    cache_hits    INTEGER,
    wall_s        REAL,
    source        TEXT
);
CREATE TABLE IF NOT EXISTS units (
    run_id     TEXT NOT NULL,
    unit       TEXT NOT NULL,
    seed       INTEGER NOT NULL DEFAULT -1,
    experiment TEXT,
    key        TEXT,
    cached     INTEGER,
    ok         INTEGER,
    wall_s     REAL,
    ts         REAL,
    violations INTEGER,
    PRIMARY KEY (run_id, unit, seed)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    unit   TEXT NOT NULL,
    seed   INTEGER NOT NULL DEFAULT -1,
    metric TEXT NOT NULL,
    value  REAL,
    PRIMARY KEY (run_id, unit, seed, metric)
);
CREATE INDEX IF NOT EXISTS metrics_by_name
    ON metrics (metric, run_id);
"""

_TABLES = ("runs", "units", "metrics")


def flatten_metrics(digest: Any, prefix: str = "") -> Iterator[
        Tuple[str, float]]:
    """Yield the numeric leaves of a nested digest as dotted names.

    Booleans and nulls are skipped; nested dicts recurse so a future
    digest carrying e.g. ``{"size": {"p95": 48}}`` lands in the index
    as ``size.p95`` without a schema change.
    """
    if not isinstance(digest, dict):
        return
    for key in sorted(digest, key=str):
        value = digest[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from flatten_metrics(value, prefix=f"{name}.")
        elif isinstance(value, bool) or value is None:
            continue
        elif isinstance(value, (int, float)):
            yield (name, float(value))


class ResultsIndex:
    """One open results database; use as a context manager or `close()`."""

    def __init__(self, path: str | Path = DEFAULT_DB_PATH) -> None:
        self.path = Path(path)
        self.conn = sqlite3.connect(str(self.path))
        self.conn.row_factory = sqlite3.Row
        self.conn.executescript(_SCHEMA)
        self.conn.commit()

    def __enter__(self) -> "ResultsIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.conn.close()

    # -- ingestion --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Current row count per table."""
        return {
            table: self.conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in _TABLES
        }

    def ingest_journal(self, path: str | Path) -> Dict[str, int]:
        """Upsert every valid event of one ``runs.jsonl`` file.

        Returns ``{"runs": n, "units": n, "metrics": n, "skipped": n}``
        where the table entries count rows that are *new* (idempotent
        re-ingest reports zeros) and ``skipped`` counts schema-invalid
        records.
        """
        before = self.counts()
        source = Path(path).name
        skipped = 0
        run_rows: Dict[str, Dict[str, Any]] = {}
        for record in read_journal(path, skip_invalid=True):
            if validate_event(record):
                skipped += 1
                continue
            event = record["event"]
            run_id = record["run_id"]
            if event == "run_start":
                row = run_rows.setdefault(run_id, {"run_id": run_id})
                row.update(
                    started=record["ts"], jobs=record["jobs"],
                    cache_enabled=int(record["cache_enabled"]),
                    scale=record.get("scale"),
                    sanitize=_text_or_null(record.get("sanitize")),
                    seeds=record.get("seeds"),
                    base_seed=record.get("base_seed"),
                    experiments=json.dumps(record.get("experiments"))
                    if record.get("experiments") is not None else None,
                    source=source)
            elif event == "run_end":
                row = run_rows.setdefault(run_id, {"run_id": run_id})
                row.update(finished=record["ts"],
                           units=record["units"],
                           cache_hits=record["cache_hits"],
                           wall_s=record["wall_s"], source=source)
            elif event == "unit_end":
                self._ingest_unit_end(record)
            # unit_start/unit_retry/index/compare events carry no
            # indexed state beyond what unit_end/run rows already hold.
        for row in run_rows.values():
            self._upsert_run(row)
        self.conn.commit()
        after = self.counts()
        inserted = {table: after[table] - before[table]
                    for table in _TABLES}
        inserted["skipped"] = skipped
        return inserted

    # -- queries ----------------------------------------------------------

    def runs(self) -> List[Dict[str, Any]]:
        """Every indexed run, oldest first."""
        rows = self.conn.execute(
            "SELECT * FROM runs ORDER BY started IS NULL, started, "
            "run_id").fetchall()
        return [dict(row) for row in rows]

    def resolve_run(self, run_ref: str) -> str:
        """Resolve a (possibly abbreviated) run id to the full one."""
        rows = self.conn.execute(
            "SELECT run_id FROM runs WHERE run_id = ?",
            (run_ref,)).fetchall()
        if not rows:
            rows = self.conn.execute(
                "SELECT run_id FROM runs WHERE run_id LIKE ? "
                "ORDER BY run_id", (run_ref + "%",)).fetchall()
        if not rows:
            raise KeyError(f"no indexed run matches {run_ref!r}")
        if len(rows) > 1:
            matches = ", ".join(row["run_id"] for row in rows)
            raise KeyError(f"run prefix {run_ref!r} is ambiguous: "
                           f"{matches}")
        return rows[0]["run_id"]

    def units_for(self, run_id: str) -> List[Dict[str, Any]]:
        rows = self.conn.execute(
            "SELECT * FROM units WHERE run_id = ? ORDER BY unit, seed",
            (run_id,)).fetchall()
        return [dict(row) for row in rows]

    def metric_names(self, run_id: str) -> List[str]:
        rows = self.conn.execute(
            "SELECT DISTINCT metric FROM metrics WHERE run_id = ? "
            "ORDER BY metric", (run_id,)).fetchall()
        return [row["metric"] for row in rows]

    def metric_samples(self, run_id: str,
                       metrics: Optional[Sequence[str]] = None
                       ) -> Dict[Tuple[str, str], List[float]]:
        """``{(unit, metric): [values across seeds]}`` for one run.

        Values are ordered by seed so two same-seed runs line up
        sample by sample.
        """
        query = ("SELECT unit, metric, value FROM metrics "
                 "WHERE run_id = ? AND value IS NOT NULL")
        params: List[Any] = [run_id]
        if metrics:
            placeholders = ",".join("?" for _ in metrics)
            query += f" AND metric IN ({placeholders})"
            params.extend(metrics)
        query += " ORDER BY unit, metric, seed"
        samples: Dict[Tuple[str, str], List[float]] = {}
        for row in self.conn.execute(query, params):
            samples.setdefault((row["unit"], row["metric"]),
                               []).append(row["value"])
        return samples

    # -- internals --------------------------------------------------------

    def _ingest_unit_end(self, record: Dict[str, Any]) -> None:
        seed = record.get("seed", NO_SEED)
        sanitizer = record.get("sanitizer")
        violations = (sanitizer.get("violations")
                      if isinstance(sanitizer, dict) else None)
        self.conn.execute(
            "INSERT OR IGNORE INTO units (run_id, unit, seed, "
            "experiment, key, cached, ok, wall_s, ts, violations) "
            "VALUES (?,?,?,?,?,?,?,?,?,?)",
            (record["run_id"], record["unit"], seed,
             record["experiment"], record["key"],
             int(record["cached"]), int(record["ok"]),
             record["wall_s"], record["ts"], violations))
        digests = {"": record.get("stats"),
                   "timeline.": record.get("timeline"),
                   "sanitizer.": record.get("sanitizer")}
        for prefix, digest in digests.items():
            for metric, value in flatten_metrics(digest, prefix=prefix):
                self.conn.execute(
                    "INSERT OR IGNORE INTO metrics (run_id, unit, "
                    "seed, metric, value) VALUES (?,?,?,?,?)",
                    (record["run_id"], record["unit"], seed, metric,
                     value))

    def _upsert_run(self, row: Dict[str, Any]) -> None:
        columns = ("run_id", "started", "finished", "jobs",
                   "cache_enabled", "scale", "sanitize", "seeds",
                   "base_seed", "experiments", "units", "cache_hits",
                   "wall_s", "source")
        values = tuple(row.get(column) for column in columns)
        updates = ", ".join(
            f"{column} = COALESCE(excluded.{column}, runs.{column})"
            for column in columns[1:])
        self.conn.execute(
            f"INSERT INTO runs ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)}) "
            f"ON CONFLICT(run_id) DO UPDATE SET {updates}",
            values)


def _text_or_null(value: Any) -> Optional[str]:
    if value is None:
        return None
    return value if isinstance(value, str) else repr(value)


__all__ = [
    "DEFAULT_DB_PATH",
    "NO_SEED",
    "ResultsIndex",
    "flatten_metrics",
]
