"""reprolint driver: file discovery, parallel fan-out, reporting.

``run_lint`` walks the tree, runs every file rule against every
matching Python file (optionally across a ``multiprocessing`` pool —
files are independent, so the fan-out is embarrassingly parallel),
runs project rules once in the parent, applies inline suppressions,
and returns a :class:`LintReport`.

``deep=True`` additionally builds one :class:`~repro.check.flow.FlowProgram`
over the whole tree and runs the flow-scoped rules against it
(docs/FLOWCHECK.md).  Flow findings honor the same inline-suppression
syntax.

The parent also audits the suppressions themselves: a ``disable=``
comment (or ``# flowcheck:`` annotation) that suppresses nothing
yields a ``stale-suppression`` warning, so waivers cannot rot.

``lint_file`` is the module-level worker (picklable by reference, like
the experiment runner's work units).  A file that fails to parse
produces a structured ``syntax-error`` finding, never a crashed
worker.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding, format_finding
from .rules import ModuleSource, ProjectRule, all_rules, get_rule

#: Repo-relative directories lint walks for Python files by default.
DEFAULT_LINT_DIRS = ("src/repro", "scripts")

#: Pseudo-rule ids minted by the driver itself (not in the registry).
SYNTAX_RULE = "syntax-error"
STALE_RULE = "stale-suppression"


def repo_root(start: Optional[Path] = None) -> Path:
    """The repository root: the nearest ancestor holding ``src/repro``."""
    here = Path(start) if start is not None else Path(__file__).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise FileNotFoundError("cannot locate the repo root (src/repro)")


def discover_files(root: Path,
                   dirs: Sequence[str] = DEFAULT_LINT_DIRS) -> List[Path]:
    """Python files under the lint directories, sorted for determinism."""
    files: List[Path] = []
    for directory in dirs:
        base = root / directory
        if base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
    return files


class LintReport:
    """Outcome of one lint run."""

    def __init__(self, findings: Sequence[Finding], suppressed: int,
                 n_files: int, n_rules: int) -> None:
        self.findings = sorted(findings)
        self.suppressed = suppressed
        self.n_files = n_files
        self.n_rules = n_rules

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding survived suppression."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [format_finding(finding) for finding in self.findings]
        status = "OK" if self.ok else f"{len(self.errors)} error(s)"
        suffix = f", {self.suppressed} suppressed" if self.suppressed else ""
        lines.append(
            f"reprolint: {status} ({self.n_files} files, "
            f"{self.n_rules} rules{suffix})")
        return "\n".join(lines)


@dataclass
class FileResult:
    """Everything one worker learned about one file."""

    relpath: str
    kept: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: (line, rule ids, standalone?) for every ``disable=`` comment.
    comments: List[Tuple[int, Tuple[str, ...], bool]] = \
        field(default_factory=list)


def lint_file_detail(path: str, root: str,
                     rule_ids: Sequence[str]) -> FileResult:
    """Run the file-scoped rules against one file (worker function).

    Module-level so it can cross the multiprocessing boundary by
    reference.  A syntax error becomes a structured finding.
    """
    module = ModuleSource(Path(path), Path(root))
    result = FileResult(relpath=module.relpath)
    result.comments = [(c.line, c.ids, c.standalone)
                       for c in module.suppression_comments]
    try:
        module.tree
    except SyntaxError as exc:
        line = exc.lineno or 1
        finding = Finding(path=module.relpath, line=line, rule=SYNTAX_RULE,
                          severity="error",
                          message=f"file does not parse: {exc.msg}")
        if module.suppressed(line, SYNTAX_RULE):
            result.suppressed.append(finding)
        else:
            result.kept.append(finding)
        return result
    for rule_id in rule_ids:
        rule = get_rule(rule_id)
        if rule.scope != "file" or not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if module.suppressed(finding.line, finding.rule):
                result.suppressed.append(finding)
            else:
                result.kept.append(finding)
    return result


def lint_file(path: str, root: str,
              rule_ids: Sequence[str]) -> Tuple[List[Finding], int]:
    """Compatibility wrapper: (kept findings, suppressed count)."""
    result = lint_file_detail(path, root, rule_ids)
    return result.kept, len(result.suppressed)


def _stale_suppression_findings(
        results: Sequence[FileResult],
        candidate_ids: Set[str],
        extra_suppressed: Dict[str, List[Finding]]) -> List[Finding]:
    """Warn for every ``disable=`` comment that suppressed nothing."""
    out: List[Finding] = []
    for result in results:
        pool = list(result.suppressed)
        pool.extend(extra_suppressed.get(result.relpath, ()))
        for line, ids, standalone in result.comments:
            covered = {line, line + 1} if standalone else {line}
            for rule_id in ids:
                if rule_id == "all":
                    used = any(f.line in covered for f in pool)
                elif rule_id in candidate_ids:
                    used = any(f.line in covered and f.rule == rule_id
                               for f in pool)
                else:
                    continue  # rule not part of this run: no verdict
                if not used:
                    out.append(Finding(
                        path=result.relpath, line=line, rule=STALE_RULE,
                        severity="warning",
                        message=(f"suppression 'disable={rule_id}' "
                                 f"matches no finding — remove it or fix "
                                 f"the rule id")))
    return out


def run_lint(root: Optional[Path] = None,
             files: Optional[Sequence[Path]] = None,
             rules: Optional[Sequence[str]] = None,
             jobs: int = 1,
             deep: bool = False,
             dump_callgraph: Optional[Path] = None) -> LintReport:
    """Lint the tree (or an explicit file list) and return the report.

    ``deep=True`` adds the whole-program flow rules; ``rules`` naming a
    flow rule id explicitly also enables the flow pass.
    """
    root = repo_root() if root is None else Path(root)
    selected = ([get_rule(rule_id) for rule_id in rules]
                if rules is not None else all_rules())
    file_rule_ids = [r.id for r in selected if r.scope == "file"]
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    flow_rules = [r for r in selected if r.scope == "flow"]
    if rules is None and not deep:
        flow_rules = []
    full_run = rules is None
    paths = list(files) if files is not None else discover_files(root)

    payloads = [(str(path), str(root), file_rule_ids) for path in paths]
    if jobs > 1 and len(payloads) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(payloads))) as pool:
            results = pool.starmap(lint_file_detail, payloads)
    else:
        results = [lint_file_detail(*payload) for payload in payloads]

    findings: List[Finding] = []
    suppressed = 0
    for result in results:
        findings.extend(result.kept)
        suppressed += len(result.suppressed)

    for rule in project_rules:
        findings.extend(rule.check_project(root))

    flow_suppressed: Dict[str, List[Finding]] = {}
    if flow_rules or dump_callgraph is not None:
        from .flow import FlowProgram
        program = FlowProgram(root, discover_files(root))
        flow_findings: List[Finding] = []
        for rule in flow_rules:
            flow_findings.extend(rule.check_flow(program))
        sources: Dict[str, Optional[ModuleSource]] = {}
        for finding in sorted(flow_findings):
            module = _module_for(finding.path, root, sources)
            if module is not None and module.suppressed(finding.line,
                                                        finding.rule):
                flow_suppressed.setdefault(finding.path, []).append(finding)
                suppressed += 1
            else:
                findings.append(finding)
        if full_run:
            for relpath, note in program.unconsumed_annotations():
                findings.append(Finding(
                    path=relpath, line=note.line, rule=STALE_RULE,
                    severity="warning",
                    message=(f"flowcheck annotation "
                             f"'{note.kind}({note.reason})' suppresses "
                             f"nothing — remove it or move it next to "
                             f"the code it excuses")))
        if dump_callgraph is not None:
            doc = program.dump_callgraph()
            Path(dump_callgraph).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")

    if full_run:
        candidate_ids = set(file_rule_ids) | {SYNTAX_RULE}
        candidate_ids.update(r.id for r in flow_rules)
        findings.extend(_stale_suppression_findings(
            results, candidate_ids, flow_suppressed))

    return LintReport(findings, suppressed, n_files=len(paths),
                      n_rules=len(selected))


def _module_for(relpath: str, root: Path,
                cache: Dict[str, Optional[ModuleSource]]) -> \
        Optional[ModuleSource]:
    """ModuleSource for a repo-relative path, cached, None if unreadable."""
    module = cache.get(relpath)
    if module is not None:
        return module
    path = root / relpath
    if not path.is_file():
        return None
    module = ModuleSource(path, root)
    cache[relpath] = module
    return module
