"""reprolint driver: file discovery, one serial pass, reporting.

``run_lint`` walks the tree, runs every file rule against every
matching Python file, runs project rules once, applies inline
suppressions, and returns a :class:`LintReport`.

The driver also audits the suppressions themselves: a ``disable=``
comment that suppresses nothing yields a ``stale-suppression``
warning, so waivers cannot rot.

``lint_file_detail`` lints one file.  A file that fails to parse
produces a structured ``syntax-error`` finding, never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Union

from .findings import Finding, format_finding
from .rules import (ModuleSource, ProjectRule, SuppressionComment, all_rules,
                    get_rule)

#: Repo-relative directories lint walks for Python files by default.
DEFAULT_LINT_DIRS = ("src/repro", "scripts", "tests", "examples")

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
    """Everything the driver learned about one file."""

    relpath: str
    kept: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Every ``disable=`` comment in the file.
    comments: List[SuppressionComment] = field(default_factory=list)


def lint_file_detail(path: Union[str, Path], root: Union[str, Path],
                     rule_ids: Sequence[str]) -> FileResult:
    """Run the file-scoped rules against one file.

    A syntax error becomes a structured finding.
    """
    module = ModuleSource(Path(path), Path(root))
    result = FileResult(relpath=module.relpath)
    result.comments = module.suppression_comments
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


def _stale_suppression_findings(
        results: Sequence[FileResult],
        candidate_ids: Set[str]) -> List[Finding]:
    """Warn for every ``disable=`` comment that suppressed nothing."""
    out: List[Finding] = []
    for result in results:
        pool = result.suppressed
        for comment in result.comments:
            covered = comment.covered_lines()
            for rule_id in comment.ids:
                if rule_id == "all":
                    used = any(f.line in covered for f in pool)
                elif rule_id in candidate_ids:
                    used = any(f.line in covered and f.rule == rule_id
                               for f in pool)
                else:
                    continue  # rule not part of this run: no verdict
                if not used:
                    out.append(Finding(
                        path=result.relpath, line=comment.line,
                        rule=STALE_RULE,
                        severity="warning",
                        message=(f"suppression 'disable={rule_id}' "
                                 f"matches no finding — remove it or fix "
                                 f"the rule id")))
    return out


def run_lint(root: Optional[Path] = None,
             files: Optional[Sequence[Path]] = None,
             rules: Optional[Sequence[str]] = None) -> LintReport:
    """Lint the tree (or an explicit file list) and return the report."""
    root = repo_root() if root is None else Path(root)
    selected = ([get_rule(rule_id) for rule_id in rules]
                if rules is not None else all_rules())
    file_rule_ids = [r.id for r in selected if r.scope == "file"]
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    paths = list(files) if files is not None else discover_files(root)

    results = [lint_file_detail(path, root, file_rule_ids) for path in paths]
    findings: List[Finding] = []
    suppressed = 0
    for result in results:
        findings.extend(result.kept)
        suppressed += len(result.suppressed)

    for rule in project_rules:
        findings.extend(rule.check_project(root))

    if rules is None:
        findings.extend(_stale_suppression_findings(
            results, set(file_rule_ids) | {SYNTAX_RULE}))

    return LintReport(findings, suppressed, n_files=len(paths),
                      n_rules=len(selected))
