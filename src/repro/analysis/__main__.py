"""Command-line experiment runner.

Every operation is a subcommand.  ``run`` is the documented interface
for regenerating the paper's figures and tables (docs/RUNNER.md):
parallel execution, content-addressed result caching under
``.repro_cache/``, and a ``runs.jsonl`` run journal::

    python -m repro.analysis run --jobs 4 --scale quick
    python -m repro.analysis run --filter fig10 --filter tab2
    python -m repro.analysis run --no-cache --jobs 1 --scale default
    python -m repro.analysis run --filter fig4 --trace-window 1000
    python -m repro.analysis run --filter fig4 --sanitize

At the shipped presets ``run`` also checks the paper's claims
(:mod:`repro.analysis.claims`) against each experiment it regenerates,
prints ``claims: K/N hold`` under its table, and exits 1 if any claim
flipped.

Robustness knobs (docs/ROBUSTNESS.md): ``--inject`` runs every
cycle-based unit under fault injection (pairing it with
``--sanitize recover`` unless another mode was chosen), ``--timeout``
and ``--retries`` make the sweep crash/hang-tolerant, and ``--resume``
reports what an interrupted run left unfinished before recomputing
exactly those cells (finished cells come from the cache)::

    python -m repro.analysis run --filter faults --scale quick
    python -m repro.analysis run --inject line:0.01,meta:0.005
    python -m repro.analysis run --jobs 4 --timeout 300 --retries 2
    python -m repro.analysis run --resume

The ``trace`` subcommand (docs/OBSERVABILITY.md) runs one traced
simulation per matching benchmark and exports the event stream::

    python -m repro.analysis trace --filter gcc --out trace.json
    python -m repro.analysis trace --filter mcf --window 500 --csv tl.csv

The ``lint`` subcommand (docs/LINTING.md) runs the reprolint static
checks over the tree and exits nonzero on any error finding::

    python -m repro.analysis lint
    python -m repro.analysis lint --rules stats-emit,emit-registered
    python -m repro.analysis lint src/repro/core/controller.py

The ``index`` and ``compare`` subcommands (docs/RESULTS.md) maintain
the cross-run SQLite results index and the statistical regression
gate over it::

    python -m repro.analysis index
    python -m repro.analysis index --runs
    python -m repro.analysis compare RUN_A RUN_B
    python -m repro.analysis run --seeds 5 --filter fig4

A missing or unknown subcommand prints a usage line listing the
subcommands and exits 2.  Results render as the same rows/series the
paper reports, with the paper's stated reference values attached.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import (
    DEFAULT,
    FULL,
    QUICK,
    render,
    run_ablation_design_space,
    run_faults,
    run_fig2,
    run_fig4,
    run_fig6,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_pressure,
    run_sec7_energy_area,
    run_tab2,
)
from ..runner import ResultCache, RunJournal, Runner, timing_table
from ..simulation.configs import SYSTEM_ORDER
from .claims import check_claims

RUNNERS = {
    "fig2": run_fig2,
    "fig4": run_fig4,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "tab2": run_tab2,
    "ablation": run_ablation_design_space,
    "sec7": run_sec7_energy_area,
    "faults": run_faults,
    "pressure": run_pressure,
}

#: ``--sanitize`` argument -> ExperimentScale.sanitize value.
_SANITIZE_MODES = {"on": True, "strict": "strict", "recover": "recover"}

SCALES = {"quick": QUICK, "default": DEFAULT, "full": FULL}


def _invoke(name: str, scale, runner: Runner):
    """Call one experiment runner (sec7 is analytic and takes no scale)."""
    fn = RUNNERS[name]
    if name == "sec7":
        return fn(runner=runner)
    return fn(scale, runner=runner)


def _run_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis run",
        description="Parallel, cached, journaled experiment regeneration.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = deterministic serial "
                             "path, default)")
    parser.add_argument("--cache", dest="cache",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="reuse/populate the content-addressed result "
                             "cache (default: on)")
    parser.add_argument("--cache-dir", default=".repro_cache",
                        help="cache directory (default: .repro_cache)")
    parser.add_argument("--journal", default="runs.jsonl", metavar="PATH",
                        help="run-journal JSONL path (default: runs.jsonl)")
    parser.add_argument("--no-journal", dest="journal",
                        action="store_const", const="",
                        help="disable the run journal")
    parser.add_argument("--filter", action="append", default=[],
                        metavar="PATTERN",
                        help="only experiments whose id contains PATTERN "
                             "(repeatable; default: all)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick",
                        help="problem size (default: quick)")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="run every experiment N times with seeds "
                             "base_seed..base_seed+N-1 and journal the "
                             "seed per unit, so the results index can "
                             "test metric differences for significance "
                             "(docs/RESULTS.md; default: 1)")
    parser.add_argument("--trace-window", type=int, default=None, metavar="N",
                        help="trace cycle-based units and journal a "
                             "timeline digest with N-access windows "
                             "(default: tracing off)")
    parser.add_argument("--sanitize", nargs="?", const="on", default=None,
                        choices=sorted(_SANITIZE_MODES), metavar="MODE",
                        help="attach the memory-model sanitizer "
                             "(docs/LINTING.md) to cycle-based units and "
                             "journal the invariant-violation counts; "
                             "MODE is 'on' (default), 'strict' (raise on "
                             "the first violation) or 'recover' (repair "
                             "detected corruption, docs/ROBUSTNESS.md)")
    parser.add_argument("--inject", default=None, metavar="SPEC",
                        help="fault-injection spec for cycle-based units "
                             "(site:rate[:burst], comma-separated; see "
                             "docs/ROBUSTNESS.md); implies "
                             "--sanitize recover unless a mode was given")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any unit running longer than "
                             "this (default: no timeout)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry crashed/hung/raising units up to N "
                             "times with exponential backoff (default: 0)")
    parser.add_argument("--resume", action="store_true",
                        help="report what an interrupted previous run left "
                             "unfinished (from the journal), then rerun; "
                             "cached cells are not recomputed")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.retries < 0:
        parser.error("--retries must be non-negative")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.trace_window is not None and args.trace_window < 1:
        parser.error("--trace-window must be at least 1")
    if args.inject:
        from ..inject import parse_fault_spec
        try:
            parse_fault_spec(args.inject)
        except ValueError as exc:
            parser.error(str(exc))

    names = list(RUNNERS)
    if args.filter:
        names = [name for name in names
                 if any(pattern in name for pattern in args.filter)]
    if not names:
        parser.error(f"no experiment matches {args.filter}; "
                     f"known: {sorted(RUNNERS)}")

    if args.resume:
        if not args.journal:
            parser.error("--resume needs the run journal (drop --no-journal)")
        from ..runner import find_interrupted
        interrupted = find_interrupted(args.journal)
        if interrupted["runs"] or interrupted["units"]:
            print(f"resume: {len(interrupted['runs'])} interrupted run(s) "
                  f"in {args.journal}")
            for record in interrupted["units"]:
                print(f"resume: unit {record['unit']!r} "
                      f"({record['experiment']}) never finished; "
                      "will recompute")
        else:
            print(f"resume: no interrupted runs in {args.journal}")

    cache = ResultCache(args.cache_dir) if args.cache else None
    journal = RunJournal(args.journal) if args.journal else None
    runner = Runner(jobs=args.jobs, cache=cache, journal=journal,
                    progress=True, timeout=args.timeout,
                    retries=args.retries,
                    strict=not (args.timeout or args.retries))
    scale = SCALES[args.scale]
    if args.trace_window is not None:
        scale = dataclasses.replace(scale, trace_window=args.trace_window)
    sanitize = args.sanitize
    if args.inject and sanitize is None:
        sanitize = "recover"
    if sanitize:
        scale = dataclasses.replace(scale,
                                    sanitize=_SANITIZE_MODES[sanitize])
    if args.inject:
        scale = dataclasses.replace(scale, faults=args.inject)
    started = time.time()
    if journal is not None:
        journal.event("run_start", jobs=runner.jobs,
                      cache_enabled=cache is not None,
                      experiments=names, scale=args.scale,
                      sanitize=sanitize, seeds=args.seeds,
                      base_seed=scale.seed)
    flipped = []
    for offset in range(args.seeds):
        seed_scale = (scale if offset == 0
                      else dataclasses.replace(scale,
                                               seed=scale.seed + offset))
        if args.seeds > 1:
            print(f"--- seed {seed_scale.seed} "
                  f"({offset + 1}/{args.seeds}) ---")
        for name in names:
            result = _invoke(name, seed_scale, runner)
            print(render(result))
            # Claims are stated for the shipped presets at their base
            # seed; any other scale or seed prints no verdicts.
            if seed_scale in (QUICK, DEFAULT, FULL):
                flipped += check_claims(name, result)
            print()
    if journal is not None:
        journal.event("run_end", wall_s=time.time() - started,
                      units=len(runner.records),
                      cache_hits=runner.cache_hits)
    print(timing_table(runner.records))
    return 1 if flipped else 0


def _trace_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis trace",
        description="Run traced simulations and export the event stream "
                    "(docs/OBSERVABILITY.md).",
    )
    parser.add_argument("--filter", action="append", default=[],
                        metavar="PATTERN",
                        help="only benchmarks whose name contains PATTERN "
                             "(repeatable; default: gcc)")
    parser.add_argument("--system", choices=SYSTEM_ORDER,
                        default="compresso",
                        help="system configuration to trace "
                             "(default: compresso)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick",
                        help="problem size (default: quick)")
    parser.add_argument("--window", type=int, default=1000, metavar="N",
                        help="timeline window in demand accesses "
                             "(default: 1000)")
    parser.add_argument("--events", type=int, default=None, metavar="N",
                        help="simulate N trace events (overrides the "
                             "scale preset)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write Chrome trace-event JSON here "
                             "(load in Perfetto / chrome://tracing)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write the windowed timeline as CSV here")
    args = parser.parse_args(argv)
    if args.window <= 0:
        parser.error("--window must be positive")
    if args.events is not None and args.events < 1:
        parser.error("--events must be at least 1")

    from ..obs import (
        Tracer,
        build_timeline,
        summary,
        timeline_csv,
        write_chrome_trace,
    )
    from ..simulation.simulator import simulate
    from ..workloads.profiles import PROFILES

    patterns = args.filter or ["gcc"]
    names = [name for name in PROFILES
             if any(pattern in name for pattern in patterns)]
    if not names:
        parser.error(f"no benchmark matches {patterns}; "
                     f"known: {sorted(PROFILES)}")

    scale = SCALES[args.scale]
    sim = scale.sim(**({"n_events": args.events}
                       if args.events is not None else {}))

    def _suffixed(path: str, name: str) -> Path:
        base = Path(path)
        if len(names) == 1:
            return base
        return base.with_name(f"{base.stem}.{name}{base.suffix}")

    for name in names:
        tracer = Tracer(digest_window=args.window)
        result = simulate(PROFILES[name], args.system, sim, tracer=tracer)
        stats = result.controller_stats
        print(f"== trace: {name} / {args.system} ==")
        print(summary(tracer, stats=stats, window=args.window))
        if args.out:
            path = _suffixed(args.out, name)
            write_chrome_trace(tracer, path, window=args.window)
            print(f"chrome trace written to {path}")
        if args.csv:
            path = _suffixed(args.csv, name)
            windows = build_timeline(tracer.events, args.window,
                                     end_clock=tracer.clock)
            Path(path).write_text(timeline_csv(windows))
            print(f"timeline CSV written to {path}")
        print()
    return 0


def _lint_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis lint",
        description="AST-based invariant lint over the tree "
                    "(docs/LINTING.md).",
    )
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="run only these rule ids (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files to lint (default: src/repro + scripts)")
    args = parser.parse_args(argv)

    from ..check import all_rules, run_lint
    from ..check.driver import repo_root

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:24s} {rule.severity:8s} {rule.scope:8s} "
                  f"{rule.description}")
        return 0

    rules = None
    if args.rules:
        rules = [rule_id.strip() for rule_id in args.rules.split(",")
                 if rule_id.strip()]
        known = [rule.id for rule in all_rules()]
        unknown = [rule_id for rule_id in rules if rule_id not in known]
        if unknown:
            parser.error(f"unknown rule id(s) {', '.join(unknown)}; "
                         f"known: {', '.join(known)}")
    root = repo_root()
    files = []
    for raw in args.paths:
        path = Path(raw).resolve()
        if not path.is_file():
            parser.error(f"no such file: {raw}")
        if root not in path.parents:
            parser.error(f"{raw} is outside the repository ({root})")
        files.append(path)
    report = run_lint(root=root, files=files or None, rules=rules)
    print(report.render())
    return report.exit_code


def _index_command(argv) -> int:
    from ..results.cli import index_main
    return index_main(argv)


def _compare_command(argv) -> int:
    from ..results.cli import compare_main
    return compare_main(argv)


COMMANDS = {
    "run": _run_command,
    "trace": _trace_command,
    "lint": _lint_command,
    "index": _index_command,
    "compare": _compare_command,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the Compresso evaluation; experiments run "
                    "via 'run --filter NAME'.",
    )
    parser.add_argument("command", choices=COMMANDS)
    command = parser.parse_args(argv[:1]).command
    return COMMANDS[command](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
