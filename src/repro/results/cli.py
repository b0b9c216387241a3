"""CLI entry points for the results index and the regression gate.

Wired into ``python -m repro.analysis`` (docs/RESULTS.md)::

    python -m repro.analysis index                 # ingest runs.jsonl
    python -m repro.analysis index --rebuild       # drop and re-ingest
    python -m repro.analysis index --runs          # list indexed runs
    python -m repro.analysis compare RUN_A RUN_B   # gate B against A

``index`` is idempotent — re-running it over an already-ingested
journal inserts zero rows — and both commands journal what they did
(``index`` / ``compare`` events, see :mod:`repro.runner.journal`).
``compare`` exits nonzero when the candidate run regresses a gated
metric with statistical significance.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from ..runner import RunJournal
from .compare import (
    DEFAULT_ALPHA,
    DEFAULT_MIN_EFFECT,
    DEFAULT_SINGLE_SAMPLE_EFFECT,
    compare_runs,
    render_comparison,
)
from .index import DEFAULT_DB_PATH, ResultsIndex

DEFAULT_SOURCE = "runs.jsonl"


def index_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis index",
        description="Maintain the cross-run SQLite results index "
                    "(docs/RESULTS.md).",
    )
    parser.add_argument("sources", nargs="*", metavar="PATH",
                        help="journals (*.jsonl) to ingest (default: "
                             "runs.jsonl when present)")
    parser.add_argument("--db", default=DEFAULT_DB_PATH, metavar="PATH",
                        help=f"index database (default: {DEFAULT_DB_PATH})")
    parser.add_argument("--rebuild", action="store_true",
                        help="delete the database first and re-ingest "
                             "from scratch")
    parser.add_argument("--runs", action="store_true",
                        help="list the indexed runs and exit (no ingest)")
    parser.add_argument("--metrics", default=None, metavar="RUN",
                        help="list the metric names indexed for RUN "
                             "(a run-id prefix) and exit")
    parser.add_argument("--journal", default="runs.jsonl", metavar="PATH",
                        help="journal the ingest there "
                             "(default: runs.jsonl)")
    parser.add_argument("--no-journal", dest="journal",
                        action="store_const", const="",
                        help="do not journal the ingest")
    args = parser.parse_args(argv)

    if args.runs or args.metrics:
        with ResultsIndex(args.db) as index:
            if args.metrics:
                run_id = index.resolve_run(args.metrics)
                for metric in index.metric_names(run_id):
                    print(metric)
                return 0
            rows = index.runs()
            if not rows:
                print(f"{args.db}: no runs indexed yet")
                return 0
            for row in rows:
                seeds = row["seeds"] or 1
                print(f"{row['run_id']:<16} scale={row['scale'] or '?':<8} "
                      f"seeds={seeds:<3} units={row['units'] or 0:<4} "
                      f"source={row['source']}")
            return 0

    sources = args.sources or (
        [DEFAULT_SOURCE] if Path(DEFAULT_SOURCE).is_file() else [])
    if not sources:
        parser.error("nothing to ingest: no sources given and "
                     f"{DEFAULT_SOURCE} does not exist")
    missing = [source for source in sources
               if not Path(source).is_file()]
    if missing:
        parser.error(f"source file(s) not found: {missing}")

    if args.rebuild:
        Path(args.db).unlink(missing_ok=True)
    total_inserted = 0
    with ResultsIndex(args.db) as index:
        for source in sources:
            inserted = index.ingest_journal(source)
            new_rows = sum(inserted.get(table, 0) for table in
                           ("runs", "units", "metrics"))
            total_inserted += new_rows
            skipped = inserted.get("skipped", 0)
            detail = ", ".join(f"{table}+{count}" for table, count
                               in sorted(inserted.items())
                               if table != "skipped" and count)
            print(f"index: {source}: {new_rows} new row(s)"
                  + (f" ({detail})" if detail else "")
                  + (f", {skipped} invalid record(s) skipped"
                     if skipped else ""))
        counts = index.counts()
    print(f"index: {args.db}: " + ", ".join(
        f"{counts[table]} {table}" for table in sorted(counts)))
    if args.journal:
        RunJournal(args.journal).event(
            "index", db=args.db, sources=list(sources),
            inserted=total_inserted)
    return 0


def compare_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis compare",
        description="Statistical cross-run regression gate over the "
                    "results index (docs/RESULTS.md).  Exits 1 when "
                    "candidate RUN_B significantly regresses a gated "
                    "metric relative to baseline RUN_A.",
    )
    parser.add_argument("run_a", metavar="RUN_A",
                        help="baseline run id (unambiguous prefix ok)")
    parser.add_argument("run_b", metavar="RUN_B",
                        help="candidate run id (unambiguous prefix ok)")
    parser.add_argument("--db", default=DEFAULT_DB_PATH, metavar="PATH",
                        help=f"index database (default: {DEFAULT_DB_PATH})")
    parser.add_argument("--metrics", default=None, metavar="NAME[,NAME..]",
                        help="compare only these metrics (dotted names "
                             "as indexed; default: all shared metrics)")
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="significance level for the two-sided test "
                             f"(default: {DEFAULT_ALPHA})")
    parser.add_argument("--min-effect", type=float,
                        default=DEFAULT_MIN_EFFECT, metavar="FRAC",
                        help="ignore relative changes smaller than FRAC "
                             f"(default: {DEFAULT_MIN_EFFECT})")
    parser.add_argument("--single-sample-effect", type=float,
                        default=DEFAULT_SINGLE_SAMPLE_EFFECT,
                        metavar="FRAC",
                        help="threshold used instead of a significance "
                             "test when either run has one seed "
                             f"(default: {DEFAULT_SINGLE_SAMPLE_EFFECT})")
    parser.add_argument("--seed", type=int, default=0,
                        help="resampling seed for the permutation test "
                             "(default: 0)")
    parser.add_argument("--verbose", action="store_true",
                        help="show every shared metric, not just gated "
                             "and changed ones")
    parser.add_argument("--journal", default="runs.jsonl", metavar="PATH",
                        help="journal the comparison there "
                             "(default: runs.jsonl)")
    parser.add_argument("--no-journal", dest="journal",
                        action="store_const", const="",
                        help="do not journal the comparison")
    args = parser.parse_args(argv)
    if not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must be in (0, 1)")
    if args.min_effect < 0.0 or args.single_sample_effect < 0.0:
        parser.error("effect thresholds must be non-negative")

    metrics = None
    if args.metrics:
        metrics = [name.strip() for name in args.metrics.split(",")
                   if name.strip()]
    if not Path(args.db).is_file():
        parser.error(f"no index database at {args.db} "
                     "(run 'python -m repro.analysis index' first)")
    with ResultsIndex(args.db) as index:
        try:
            comparison = compare_runs(
                index, args.run_a, args.run_b, metrics=metrics,
                alpha=args.alpha, min_effect=args.min_effect,
                single_sample_effect=args.single_sample_effect,
                seed=args.seed)
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
    print(render_comparison(comparison, verbose=args.verbose))
    if args.journal:
        RunJournal(args.journal).event(
            "compare", db=args.db, run_a=comparison.run_a,
            run_b=comparison.run_b,
            metrics=len(comparison.verdicts),
            regressions=len(comparison.regressions))
    return 1 if comparison.regressions else 0


__all__ = ["compare_main", "index_main"]
