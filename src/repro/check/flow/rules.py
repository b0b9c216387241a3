"""The interprocedural flow rules (docs/FLOWCHECK.md).

Three rules registered with ``scope = "flow"`` — the driver runs them
once per ``lint --deep`` pass against a shared :class:`FlowProgram`
instead of once per file:

* ``determinism-taint`` — nondeterminism sources must not reach the
  journal / metrics / results sinks except through an
  annotated boundary.  A finding lands on the *deepest meet*: the
  function where source-reach and sink-reach first combine, so one
  tainted helper does not splatter findings over every caller.
* ``shared-state-race`` — no write to module globals or class
  attributes from any function a multiprocessing worker can reach,
  and dispatch targets must be module-level (picklable by reference).
* ``exception-escape`` — ``OutOfMemoryError`` / ``SanitizerError``
  must be provably caught before control returns to ``src/repro/runner/``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..findings import Finding
from ..rules import Rule, register
from .engine import FlowProgram

#: Wall-clock / entropy calls that are always nondeterministic.
SOURCE_EXACT = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "os.urandom", "os.getpid", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbelow",
})

#: ``random.*`` / ``numpy.random.*`` module-level APIs draw from the
#: shared, unseeded global stream — always sources.
SOURCE_PREFIXES = ("random.", "numpy.random.")

#: RNG constructors that are deterministic when given an explicit
#: seed; with zero arguments they seed from OS entropy (= source).
SEEDED_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.RandomState",
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence",
})

#: ``datetime`` factories that read the wall clock.
DATETIME_SUFFIXES = (".now", ".utcnow", ".today", ".utcfromtimestamp",)

#: Calling one of these project functions makes the caller a sink
#: toucher (the call site is where tainted data would be recorded).
SINK_CALL_QUALS: Dict[str, str] = {
    "repro.runner.journal.RunJournal.event": "RunJournal.event",
    "repro.results.index.ResultsIndex.ingest_journal":
        "ResultsIndex.ingest_journal",
}

#: Receiver names / type treated as the ControllerStats metrics sink.
STATS_RECEIVERS = frozenset({"stats", "cstats", "controller_stats"})
STATS_CLASS = "repro.core.stats.ControllerStats"

#: Exceptions that must never escape into the runner layer.
TRACKED_EXCEPTIONS = ("OutOfMemoryError", "SanitizerError")


class FlowRule(Rule):
    """Base for whole-program rules driven by a :class:`FlowProgram`."""

    scope = "flow"

    def applies_to(self, module) -> bool:
        return False

    def check(self, module) -> Iterable[Finding]:
        return ()

    def check_flow(self, program: FlowProgram) -> Iterable[Finding]:
        raise NotImplementedError


def _short(qual: str) -> str:
    parts = qual.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qual


@register
class DeterminismTaintRule(FlowRule):
    id = "determinism-taint"
    severity = "error"
    description = ("nondeterminism sources (wall clock, unseeded RNG, "
                   "identity ordering, set iteration) must not flow into "
                   "journal/metrics/results sinks except through a "
                   "# flowcheck: boundary")

    def check_flow(self, program: FlowProgram) -> Iterable[Finding]:
        own_src = self._own_sources(program)
        own_snk, sink_lines = self._own_sinks(program)
        cuts = program.boundaries
        src = program.propagate(own_src, cuts)
        snk = program.propagate(own_snk, cuts)
        findings: List[Finding] = []
        for qual in sorted(program.graph.facts):
            if qual in cuts or not (src[qual] and snk[qual]):
                continue
            # deepest-meet dedup: a callee that already sees both ends
            # owns the finding
            if any(src.get(c) and snk.get(c)
                   for c in program.graph.callees(qual)):
                continue
            info = program.table.functions[qual]
            chain = program.witness_path(qual, src[qual], own_src, src)
            via = " -> ".join(_short(q) for q in chain)
            sources = ", ".join(sorted(src[qual])[:3])
            sinks = ", ".join(sorted(snk[qual])[:3])
            line = sink_lines.get(qual, info.lineno)
            findings.append(Finding(
                path=info.relpath, line=line, rule=self.id,
                severity=self.severity,
                message=(f"nondeterminism reaches a results sink in "
                         f"{_short(qual)}: {{{sources}}} (via {via}) "
                         f"meets {{{sinks}}}; seed it or mark an audited "
                         f"interface with # flowcheck: boundary(reason)")))
        return findings

    def _own_sources(self, program: FlowProgram) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for qual, facts in program.graph.facts.items():
            labels: Set[str] = set()
            for call in facts.calls:
                name = call.name
                if not name:
                    continue
                if name in SOURCE_EXACT:
                    labels.add(name)
                elif name in SEEDED_CONSTRUCTORS:
                    if call.n_args == 0:
                        labels.add(f"{name}() unseeded")
                elif name == "random.SystemRandom":
                    labels.add(name)
                elif name.startswith(SOURCE_PREFIXES):
                    labels.add(name)
                elif (name.startswith("datetime.")
                      and name.endswith(DATETIME_SUFFIXES)):
                    labels.add(name)
            for event in facts.sources:
                labels.add(event.kind)
            if labels:
                out[qual] = labels
        return out

    def _own_sinks(self, program: FlowProgram):
        out: Dict[str, Set[str]] = {}
        lines: Dict[str, int] = {}
        for qual, facts in program.graph.facts.items():
            labels: Set[str] = set()
            for call in facts.calls:
                for callee in call.callees:
                    if callee in SINK_CALL_QUALS:
                        labels.add(SINK_CALL_QUALS[callee])
                        lines.setdefault(qual, call.line)
                if call.name in SINK_CALL_QUALS:
                    labels.add(SINK_CALL_QUALS[call.name])
                    lines.setdefault(qual, call.line)
            for store in facts.attr_stores:
                base_leaf = store.base.split(".")[-1]
                if (store.base_type == STATS_CLASS
                        or base_leaf in STATS_RECEIVERS):
                    labels.add(f"ControllerStats.{store.attr}")
                    lines.setdefault(qual, store.line)
            if labels:
                out[qual] = labels
        return out, lines


@register
class SharedStateRaceRule(FlowRule):
    id = "shared-state-race"
    severity = "error"
    description = ("functions reachable from a multiprocessing dispatch "
                   "must not mutate module globals or class attributes "
                   "(annotate # flowcheck: shared-ok(reason) to waive), "
                   "and dispatch targets must be module-level functions")

    #: "param"-channel dispatch sites are trusted only when the
    #: callable was passed into one of these (work units really do run
    #: in worker processes; a `fn=` field on a plain record does not).
    PARAM_DISPATCH_QUALS = frozenset({
        "repro.runner.units.WorkUnit",
        "repro.runner.units.WorkUnit.__init__",
        "repro.analysis.experiments._run_units",
    })

    def _trusted_sites(self, program: FlowProgram):
        """(function qual, DispatchSite) for every real dispatch."""
        for qual in sorted(program.graph.facts):
            for site in program.graph.facts[qual].dispatches:
                if (site.channel == "param"
                        and site.callee not in self.PARAM_DISPATCH_QUALS):
                    continue
                yield qual, site

    def check_flow(self, program: FlowProgram) -> Iterable[Finding]:
        findings: List[Finding] = []
        roots: Dict[str, str] = {}
        for qual, site in self._trusted_sites(program):
            info = program.table.functions[qual]
            if site.target and site.target not in roots:
                roots[site.target] = (
                    f"{info.relpath}:{site.line} via {site.via}")
        reach = program.reachable_from(roots)
        for qual in sorted(reach):
            facts = program.graph.facts[qual]
            info = program.table.functions[qual]
            seen: Set[tuple] = set()
            for write in facts.writes:
                key = (write.line, write.target_qual)
                if key in seen:
                    continue
                seen.add(key)
                if self._waived(program, info.relpath, write):
                    continue
                root = reach[qual]
                findings.append(Finding(
                    path=info.relpath, line=write.line, rule=self.id,
                    severity=self.severity,
                    message=(f"{_short(qual)} {write.detail} but is "
                             f"worker-reachable (dispatched from "
                             f"{roots.get(root, _short(root))}); a write "
                             f"in a worker process is lost or racy — "
                             f"make it read-only or annotate "
                             f"# flowcheck: shared-ok(reason)")))
        for qual, site in self._trusted_sites(program):
            info = program.table.functions[qual]
            if site.kind in ("lambda", "nested"):
                what = ("a lambda" if site.kind == "lambda"
                        else f"nested function {_short(site.target)}")
                findings.append(Finding(
                    path=info.relpath, line=site.line, rule=self.id,
                    severity=self.severity,
                    message=(f"dispatch via {site.via} targets {what}"
                             f" — not picklable by reference, so it "
                             f"cannot cross the process boundary; "
                             f"use a module-level function")))
        return findings

    def _waived(self, program: FlowProgram, relpath: str, write) -> bool:
        note = program.table.annotation_at(relpath, write.line, "shared-ok")
        if note is not None:
            note.consumed = True
            return True
        # a shared-ok on the definition line waives every writer
        target = write.target_qual
        if target in program.table.globals_:
            var = program.table.globals_[target]
            mod = program.table.modules[var.module]
            note = program.table.annotation_at(
                mod.relpath, var.lineno, "shared-ok")
        elif target in program.table.classes:
            cls = program.table.classes[target]
            note = program.table.annotation_at(
                cls.relpath, cls.lineno, "shared-ok")
        else:
            note = None
        if note is not None:
            note.consumed = True
            return True
        return False


@register
class ExceptionEscapeRule(FlowRule):
    id = "exception-escape"
    severity = "error"
    description = ("OutOfMemoryError and SanitizerError must be caught "
                   "inside core//pressure — no call path may let them "
                   "escape into src/repro/runner/")

    def check_flow(self, program: FlowProgram) -> Iterable[Finding]:
        raises = program.raises_fixpoint(TRACKED_EXCEPTIONS)
        findings: List[Finding] = []
        from .callgraph import _covered
        for qual in sorted(program.graph.facts):
            info = program.table.functions[qual]
            if not info.relpath.startswith("src/repro/runner/"):
                continue
            facts = program.graph.facts[qual]
            seen: Set[tuple] = set()
            for event in facts.raises_:
                if event.name in TRACKED_EXCEPTIONS:
                    key = (event.line, event.name)
                    if key not in seen:
                        seen.add(key)
                        findings.append(Finding(
                            path=info.relpath, line=event.line,
                            rule=self.id, severity=self.severity,
                            message=(f"{_short(qual)} raises {event.name} "
                                     f"inside runner/ — simulated-memory "
                                     f"faults must stay in core//pressure")))
            for call in facts.calls:
                if call.via_cha:
                    continue
                for callee in call.callees:
                    for name in sorted(raises.get(callee, ())):
                        if _covered(name, call.caught):
                            continue
                        key = (call.line, name)
                        if key in seen:
                            continue
                        seen.add(key)
                        findings.append(Finding(
                            path=info.relpath, line=call.line,
                            rule=self.id, severity=self.severity,
                            message=(f"call to {_short(callee)} may let "
                                     f"{name} escape into runner/ — catch "
                                     f"it inside core//pressure "
                                     f"(docs/FLOWCHECK.md)")))
        return findings


def flow_rule_ids() -> List[str]:
    """Registry ids of the flow rules (import side effect: registers)."""
    return [DeterminismTaintRule.id, SharedStateRaceRule.id,
            ExceptionEscapeRule.id]
