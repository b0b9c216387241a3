"""Built-in reprolint rules (the catalog lives in docs/LINTING.md).

Each rule enforces an invariant the repo used to check with ad-hoc
regex scripts — or could not check at all.  Rules that need to inspect
runtime types (``ControllerStats`` fields, the ``EVENT_SOURCES``
registry, config dataclasses) import them lazily inside ``check`` so
this module never drags ``repro.core`` in at import time.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from .findings import Finding
from .rules import ModuleSource, ProjectRule, Rule, dotted_name, register

#: Directories whose modules form the simulated hot path: wall-clock
#: reads or unseeded randomness here would break run reproducibility
#: and content-addressed result caching.
HOT_PATH_DIRS = ("src/repro/core", "src/repro/memory", "src/repro/compression",
                 "src/repro/pressure")

#: Markdown files whose relative links must resolve.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/RUNNER.md",
        "docs/OBSERVABILITY.md", "docs/LINTING.md", "docs/ROBUSTNESS.md",
        "docs/RESULTS.md", "docs/PRESSURE.md")

#: (module path, class name) pairs whose public fields must be named in
#: the documentation set scanned by ``config-knob-documented``.
CONFIG_CLASSES = (
    ("src/repro/core/config.py", "CompressoConfig"),
    ("src/repro/simulation/simulator.py", "SimulationConfig"),
    ("src/repro/analysis/experiments.py", "ExperimentScale"),
    ("src/repro/pressure/controller.py", "PressureConfig"),
)

#: How many lines around a stats increment may hold its tracer call.
NEIGHBORHOOD = 4

_TRACER_CALL = re.compile(r"\.(emit|tick)\(")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:", "#")


@register
class ModuleDocstringRule(Rule):
    """Every module under ``src/repro/`` opens with a docstring."""

    id = "module-docstring"
    severity = "error"
    description = "src/repro modules must have a module docstring"

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        if not ast.get_docstring(module.tree):
            yield module.finding(1, self.id, self.severity,
                                 "missing module docstring")


@register
class StatsEmitRule(Rule):
    """Every ``stats.<counter> +=`` in core/ has a nearby emit/tick.

    The observability layer reconciles trace timelines against the
    aggregate counters (docs/OBSERVABILITY.md); an increment without a
    matching tracer call would silently desynchronize them.
    """

    id = "stats-emit"
    severity = "error"
    description = ("stats counter increments in core/ need a tracer "
                   "emit/tick within a few lines")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro/core")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if not isinstance(target, ast.Attribute):
                continue
            base = dotted_name(target.value)
            if base is None or base.split(".")[-1] != "stats":
                continue
            low = max(0, node.lineno - 1 - NEIGHBORHOOD)
            high = min(len(module.lines), node.lineno + NEIGHBORHOOD)
            window = "\n".join(module.lines[low:high])
            if not _TRACER_CALL.search(window):
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"stats.{target.attr} += has no tracer emit/tick "
                    f"within {NEIGHBORHOOD} lines")


@register
class EmitRegisteredRule(Rule):
    """String-literal event names passed to ``.emit(`` are registered.

    An unregistered name would silently drop out of the per-source
    timelines built by ``repro.obs.timeline``.
    """

    id = "emit-registered"
    severity = "error"
    description = ("event names emitted as string literals must exist "
                   "in repro.obs.tracer.EVENT_SOURCES")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        from ..obs.tracer import EVENT_SOURCES
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                name = first.value
                if name not in EVENT_SOURCES:
                    yield module.finding(
                        node.lineno, self.id, self.severity,
                        f"emit({name!r}) is not registered in "
                        f"repro.obs.tracer.EVENT_SOURCES")


@register
class JournalEventRegisteredRule(Rule):
    """String-literal event names journaled via ``.event(`` are typed.

    The run journal validates events against
    ``repro.runner.journal.EVENT_SCHEMA`` and the results index skips
    anything unknown (docs/RESULTS.md) — a call site journaling an
    unregistered name would write records that every downstream
    consumer silently drops.
    """

    id = "journal-event-registered"
    severity = "error"
    description = ("event names passed to RunJournal.event() as string "
                   "literals must exist in repro.runner.EVENT_SCHEMA")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro", "scripts")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        from ..runner.journal import EVENT_SCHEMA
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "event" and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                name = first.value
                if name not in EVENT_SCHEMA:
                    yield module.finding(
                        node.lineno, self.id, self.severity,
                        f"event({name!r}) is not registered in "
                        f"repro.runner.journal.EVENT_SCHEMA")


@register
class HotPathWallClockRule(Rule):
    """No wall-clock or nondeterministic randomness in hot-path modules.

    Simulated time comes from the tracer's access clock; wall-clock
    reads or unseeded RNG calls in core/, memory/ or compression/ would
    make results irreproducible and poison the content-addressed
    experiment cache (docs/RUNNER.md).
    """

    id = "hot-path-wallclock"
    severity = "error"
    description = ("no time.*/random.* calls inside core/, memory/, "
                   "compression/, pressure/ hot paths")

    #: Call-name prefixes that read the wall clock or global RNG state.
    BANNED = ("time.", "random.", "np.random.", "numpy.random.", "datetime.")

    #: Explicitly-seeded RNG constructors are the *fix* for global RNG
    #: use, so ``np.random.RandomState(stable_seed(...))`` must pass;
    #: a zero-argument construction seeds from OS entropy and stays
    #: banned.
    SEEDED_CONSTRUCTORS = ("Random", "RandomState", "default_rng",
                           "Generator", "SeedSequence")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs(*HOT_PATH_DIRS)

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if (name.split(".")[-1] in self.SEEDED_CONSTRUCTORS
                    and (node.args or any(kw.arg == "seed"
                                          for kw in node.keywords))):
                continue
            if any(name == prefix[:-1] or name.startswith(prefix)
                   for prefix in self.BANNED):
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"call to {name}() in a hot-path module; use the "
                    f"tracer clock or a seeded RandomState passed in")


@register
class MutableDefaultRule(Rule):
    """No mutable default arguments anywhere in the tree.

    A ``[]``/``{}``/``set()`` default is evaluated once and shared by
    every call — the classic aliasing bug.
    """

    id = "mutable-default"
    severity = "error"
    description = "function defaults must not be mutable literals"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield module.finding(
                        default.lineno, self.id, self.severity,
                        f"mutable default argument in {node.name}(); "
                        f"use None and create inside the function")

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in MutableDefaultRule._MUTABLE_CALLS)


@register
class MachineConstantRule(Rule):
    """The fixed machine of Tab. III is defined once, in ``machine.py``.

    A parameter, field or constant elsewhere that restates one of its
    quantities is a second copy nothing keeps in agreement: a settable
    ``chunk_size`` once disagreed with a literal 512 B in
    ``compression_ratio()``.
    """

    id = "machine-constant"
    severity = "error"
    description = ("machine sizes and clocks are defined only in "
                   "src/repro/machine.py")

    _NAMES = {"line_size", "chunk_size", "page_size", "lines_per_page",
              "cpu_freq_ghz", "LINE_SIZE"}

    def applies_to(self, module: ModuleSource) -> bool:
        return (module.in_dirs("src/repro")
                and module.relpath != "src/repro/machine.py")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        from .. import machine
        names = self._NAMES | {name for name in vars(machine)
                               if name.isupper()}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.arg):
                name = node.arg
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name in names:
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"{name!r} restates a machine constant; import it "
                    f"from repro.machine")


@register
class BareExceptRule(Rule):
    """No bare or silently-swallowing exception handlers.

    The fault-injection work (docs/ROBUSTNESS.md) depends on faults
    surfacing: a bare ``except:`` also catches ``KeyboardInterrupt``
    and ``SystemExit`` (masking the runner's kill path), and an
    ``except Exception: pass`` turns an injected fault into exactly
    the silent corruption the campaign is supposed to rule out.
    Broad handlers are fine when the body does something — re-raise,
    report, degrade — so only pass/continue-only bodies are flagged.
    """

    id = "bare-except"
    severity = "error"
    description = ("no bare except:, and no except Exception whose body "
                   "only passes")

    _BROAD = {"Exception", "BaseException"}

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    "bare except: catches KeyboardInterrupt/SystemExit; "
                    "name the exception type")
            elif self._broad(node.type) and self._swallows(node.body):
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"except {dotted_name(node.type)} with a pass-only "
                    f"body silently swallows faults; handle or re-raise")

    @staticmethod
    def _broad(node: ast.AST) -> bool:
        name = dotted_name(node)
        return name in BareExceptRule._BROAD

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        return all(isinstance(stmt, (ast.Pass, ast.Continue))
                   for stmt in body)


@register
class RecoveryTracedRule(Rule):
    """Recovery/degraded-mode paths in core/ emit trace events.

    The fault campaign (``repro.inject.campaign``) reconciles injected
    faults against ``fault_*``/``recovery_*``/``degraded_*`` events;
    a recovery path that never emits would make every fault it handles
    look like a silent corruption.  Any ``core/`` function whose name
    mentions recover/degraded/deny must contain an ``.emit(`` call.
    """

    id = "recovery-traced"
    severity = "error"
    description = ("core/ functions named *recover*/*degraded*/*deny* "
                   "must emit a trace event")

    _NAMES = re.compile(r"recover|degraded|deny")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro/core")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.FunctionDef)
                    and self._NAMES.search(node.name)):
                continue
            emits = any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "emit"
                for inner in ast.walk(node))
            if not emits:
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"{node.name}() looks like a recovery path but "
                    f"never emits a trace event (docs/ROBUSTNESS.md)")


@register
class DegradedTransitionTracedRule(Rule):
    """Pressure/degraded state mutations are traced (docs/PRESSURE.md).

    The pressure campaign reconciles every shed/deny/recovery counter
    against the trace with zero silent drops; an untraced assignment
    to the degraded/backpressure state machine would break that
    ledger invisibly.  Any function in ``core/`` or ``pressure/``
    that assigns ``<obj>.degraded_mode``, ``<obj>.degraded_since`` or
    ``<obj>.in_pressure`` must contain an ``.emit(`` call.
    ``__init__`` is exempt: initialising the state machine to its
    resting value is not a transition.
    """

    id = "degraded-transition-traced"
    severity = "error"
    description = ("functions mutating degraded/backpressure state "
                   "must emit a trace event")

    _STATE_ATTRS = ("degraded_mode", "degraded_since", "in_pressure")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro/core", "src/repro/pressure")

    def _mutates_state(self, node: ast.FunctionDef) -> bool:
        for inner in ast.walk(node):
            if not isinstance(inner, (ast.Assign, ast.AugAssign,
                                      ast.AnnAssign)):
                continue
            targets = (inner.targets if isinstance(inner, ast.Assign)
                       else [inner.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in self._STATE_ATTRS):
                    return True
        return False

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "__init__":
                continue
            if not self._mutates_state(node):
                continue
            emits = any(
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "emit"
                for inner in ast.walk(node))
            if not emits:
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"{node.name}() mutates degraded/backpressure state "
                    f"without emitting a trace event (docs/PRESSURE.md)")


@register
class StatsFieldExistsRule(Rule):
    """``stats.<attr>`` references in obs/analysis name real fields.

    The observability and analysis layers read ``ControllerStats``
    loosely (duck-typed attribute access); a renamed counter would
    otherwise only fail at runtime, possibly deep inside a long run.
    """

    id = "stats-field-exists"
    severity = "error"
    description = ("ControllerStats attributes referenced in obs/ and "
                   "analysis/ must exist on the dataclass")

    _BASES = {"stats", "cstats", "controller_stats"}

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_dirs("src/repro/obs", "src/repro/analysis")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        known = self._known_attrs()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            base = None
            if isinstance(value, ast.Name):
                base = value.id
            elif isinstance(value, ast.Attribute):
                base = value.attr
            if base not in self._BASES:
                continue
            if node.attr not in known:
                yield module.finding(
                    node.lineno, self.id, self.severity,
                    f"ControllerStats has no attribute {node.attr!r}")

    @staticmethod
    def _known_attrs() -> set:
        import dataclasses

        from ..core.stats import ControllerStats
        known = {f.name for f in dataclasses.fields(ControllerStats)}
        known.update(dir(ControllerStats))
        return known


@register
class DocLinksRule(ProjectRule):
    """Relative markdown links in the documented set resolve to files."""

    id = "doc-links"
    severity = "error"
    description = "relative links in README/DESIGN/EXPERIMENTS/docs resolve"

    def check_project(self, root: Path) -> Iterable[Finding]:
        for doc in DOCS:
            path = root / doc
            if not path.exists():
                yield Finding(doc, 0, self.id, self.severity, "file missing")
                continue
            # Fenced code blocks can contain bracket/paren sequences
            # that look like links (table output, comprehensions).
            text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"),
                              path.read_text())
            for number, line in enumerate(text.splitlines(), start=1):
                for match in _LINK.finditer(line):
                    target = match.group(1)
                    if target.startswith(_EXTERNAL):
                        continue
                    target = target.split("#", 1)[0]
                    if target and not (path.parent / target).exists():
                        yield Finding(doc, number, self.id, self.severity,
                                      f"broken link -> {target}")


@register
class PackageDocLinkRule(ProjectRule):
    """Every ``src/repro`` package docstring names its docs page.

    Each subsystem has a prose home (DESIGN.md or a ``docs/*.md``
    page); the package ``__init__`` docstring is where a reader lands
    first, so it must point at an *existing* markdown page.  This is
    what keeps the docs from drifting silently when subsystems are
    added or renamed — a new subpackage fails lint until it says where
    it is documented.
    """

    id = "package-doc-link"
    severity = "error"
    description = ("src/repro package __init__ docstrings must name an "
                   "existing documentation page")

    _DOC_REF = re.compile(
        r"docs/[A-Za-z0-9_.-]+\.md"
        r"|\b(?:README|DESIGN|EXPERIMENTS|ROADMAP|PAPER)\.md")

    def check_project(self, root: Path) -> Iterable[Finding]:
        for init in sorted((root / "src" / "repro").rglob("__init__.py")):
            rel = init.relative_to(root).as_posix()
            tree = ast.parse(init.read_text(), filename=rel)
            doc = ast.get_docstring(tree) or ""
            refs = self._DOC_REF.findall(doc)
            if not refs:
                yield Finding(
                    rel, 1, self.id, self.severity,
                    "package docstring names no documentation page "
                    "(mention e.g. DESIGN.md or docs/<PAGE>.md)")
                continue
            for ref in sorted(set(refs)):
                if not (root / ref).exists():
                    yield Finding(
                        rel, 1, self.id, self.severity,
                        f"package docstring names {ref}, which does "
                        f"not exist")


@register
class ConfigKnobDocumentedRule(ProjectRule):
    """Every public config knob is named somewhere in the docs.

    Scans the fields of the classes in :data:`CONFIG_CLASSES` and
    requires each name to appear (as a whole word) in README.md,
    DESIGN.md, EXPERIMENTS.md or docs/*.md — the design reference in
    DESIGN.md keeps the full table.
    """

    id = "config-knob-documented"
    severity = "error"
    description = "public config dataclass fields must appear in the docs"

    def check_project(self, root: Path) -> Iterable[Finding]:
        docs_text = self._docs_text(root)
        for relpath, class_name in CONFIG_CLASSES:
            source = root / relpath
            if not source.exists():
                yield Finding(relpath, 0, self.id, self.severity,
                              f"config module missing ({class_name})")
                continue
            for name, line in self._field_lines(source, class_name):
                if not re.search(rf"\b{re.escape(name)}\b", docs_text):
                    yield Finding(
                        relpath, line, self.id, self.severity,
                        f"{class_name}.{name} is not mentioned in any "
                        f"documentation file")

    @staticmethod
    def _docs_text(root: Path) -> str:
        parts: List[str] = []
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = root / name
            if path.exists():
                parts.append(path.read_text())
        for path in sorted((root / "docs").glob("*.md")):
            parts.append(path.read_text())
        return "\n".join(parts)

    @staticmethod
    def _field_lines(source: Path, class_name: str
                     ) -> List[Tuple[str, int]]:
        """(field name, line) pairs of a dataclass's annotated fields."""
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                return [
                    (stmt.target.id, stmt.lineno)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
        return []


@register
class UnusedImportRule(Rule):
    """Every imported name is read somewhere in its module.

    ``__init__.py`` files are exempt (they exist to re-export), as are
    names a module lists in ``__all__``.  Quoted annotations count as
    reads.  A side-effect import carries a ``disable=`` comment.
    """

    id = "unused-import"
    severity = "error"
    description = "imported names must be used (outside __init__.py and __all__)"

    def applies_to(self, module: ModuleSource) -> bool:
        return module.path.name != "__init__.py"

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        imported: Dict[str, int] = {}
        used = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        name = alias.asname or alias.name.split(".")[0]
                        imported.setdefault(name, alias.lineno)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used.update(self._quoted_names(node.returns))
            elif isinstance(node, (ast.arg, ast.AnnAssign)):
                used.update(self._quoted_names(node.annotation))
        used.update(self._exported(module.tree))
        for name, line in imported.items():
            if name not in used:
                yield module.finding(line, self.id, self.severity,
                                     f"{name!r} imported but unused")

    @staticmethod
    def _quoted_names(annotation) -> List[str]:
        """Names inside string annotations (``-> "PageLayout"``)."""
        names: List[str] = []
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.extend(sub.id for sub in ast.walk(expr)
                             if isinstance(sub, ast.Name))
        return names

    @staticmethod
    def _exported(tree: ast.Module) -> List[str]:
        """String entries of a module-level ``__all__`` list or tuple."""
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in stmt.targets)
                    and isinstance(stmt.value, (ast.List, ast.Tuple))):
                return [elt.value for elt in stmt.value.elts
                        if isinstance(elt, ast.Constant)]
        return []
