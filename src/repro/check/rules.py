"""Rule base classes, the rule registry, and per-file source context.

A rule is a small class with a unique ``id``; the :func:`register`
decorator adds it to the process-wide registry the driver draws from.
Two scopes exist:

* :class:`Rule` (``scope = "file"``) — called once per Python file
  with a :class:`ModuleSource` (text, lines, parsed AST, suppression
  map) and yields :class:`~repro.check.findings.Finding` objects;
* :class:`ProjectRule` (``scope = "project"``) — called once per lint
  run with the repo root (markdown link checking, cross-file
  consistency).

Suppressions are inline comments::

    problem_line = ...  # reprolint: disable=mutable-default
    # reprolint: disable=hot-path-wallclock   (suppresses the next line)

A finding is dropped when its line — or the standalone comment line
directly above it — carries a ``disable=`` listing its rule id (or
``all``).  Suppressed findings are counted, never silently lost.
"""

from __future__ import annotations

import abc
import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type

from .findings import Finding

_SUPPRESS = re.compile(r"#\s*reprolint:\s*disable=([\w,\-]+)")


def comment_tokens(text: str) -> List[Tuple[int, str, bool]]:
    """(line, comment text, standalone?) for every real comment.

    Tokenized, not regex-scanned, so comment-shaped strings inside
    docstrings do not register.  Falls back to a line scan when the
    file does not tokenize (syntax errors still deserve suppression
    handling).
    """
    out: List[Tuple[int, str, bool]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                line_text = tok.line[:tok.start[1]].strip()
                out.append((tok.start[0], tok.string, line_text == ""))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        out = []
        for number, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                idx = line.index("#")
                out.append((number, line[idx:], line[:idx].strip() == ""))
    return out


class SuppressionComment:
    """One ``# reprolint: disable=...`` comment, located and parsed."""

    __slots__ = ("line", "ids", "standalone")

    def __init__(self, line: int, ids, standalone: bool) -> None:
        self.line = line
        self.ids = tuple(ids)
        self.standalone = bool(standalone)

    def covered_lines(self):
        """Lines this comment suppresses findings on."""
        return (self.line, self.line + 1) if self.standalone \
            else (self.line,)


class ModuleSource:
    """One Python file prepared for linting: text, lines, AST, suppressions."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = Path(path)
        self.root = Path(root)
        self.relpath = self.path.relative_to(self.root).as_posix()
        self.text = self.path.read_text()
        self.lines = self.text.splitlines()
        self._tree: Optional[ast.Module] = None
        self._suppressions: Optional[Dict[int, Set[str]]] = None
        self._comments: Optional[List["SuppressionComment"]] = None

    @property
    def tree(self) -> ast.Module:
        """The parsed AST (parsed once, shared by every rule)."""
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree

    @property
    def suppression_comments(self) -> List["SuppressionComment"]:
        """Every ``disable=`` comment, from real COMMENT tokens only —
        a comment-shaped string inside a docstring does not count."""
        if self._comments is None:
            out: List[SuppressionComment] = []
            for number, comment, standalone in comment_tokens(self.text):
                match = _SUPPRESS.search(comment)
                if not match:
                    continue
                ids = tuple(sorted({part.strip()
                                    for part in match.group(1).split(",")
                                    if part.strip()}))
                if ids:
                    out.append(SuppressionComment(number, ids, standalone))
            self._comments = out
        return self._comments

    @property
    def suppressions(self) -> Dict[int, Set[str]]:
        """Line number -> rule ids disabled on that line.

        A standalone suppression comment also covers the next line, so
        long statements can carry their waiver above themselves.
        """
        if self._suppressions is None:
            table: Dict[int, Set[str]] = {}
            for comment in self.suppression_comments:
                for line in comment.covered_lines():
                    table.setdefault(line, set()).update(comment.ids)
            self._suppressions = table
        return self._suppressions

    def suppressed(self, line: int, rule_id: str) -> bool:
        ids = self.suppressions.get(line)
        return bool(ids) and (rule_id in ids or "all" in ids)

    def in_dirs(self, *dirs: str) -> bool:
        """Does this file live under any of the given repo-relative dirs?"""
        return any(self.relpath.startswith(d.rstrip("/") + "/")
                   or self.relpath == d for d in dirs)

    def finding(self, line: int, rule_id: str, severity: str,
                message: str) -> Finding:
        return Finding(path=self.relpath, line=line, rule=rule_id,
                       severity=severity, message=message)


class Rule(abc.ABC):
    """A per-file AST lint rule."""

    #: Unique registry key, kebab-case.
    id: str = "abstract"
    severity: str = "error"
    #: One-line description for ``--list-rules`` and the doc catalog.
    description: str = ""
    scope: str = "file"

    def applies_to(self, module: ModuleSource) -> bool:
        """Cheap pre-filter; default: every Python file offered."""
        return True

    @abc.abstractmethod
    def check(self, module: ModuleSource) -> Iterable[Finding]:
        """Yield findings for one file."""


class ProjectRule(Rule):
    """A rule that runs once per lint run over the whole tree."""

    scope = "project"

    def applies_to(self, module: ModuleSource) -> bool:
        return False

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        return ()

    @abc.abstractmethod
    def check_project(self, root: Path) -> Iterable[Finding]:
        """Yield findings for the repository as a whole."""


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry (ids must be unique)."""
    if not cls.id or cls.id == "abstract":
        raise ValueError(f"rule {cls.__name__} needs a concrete id")
    existing = _REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _ensure_builtins()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _ensure_builtins()
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def _ensure_builtins() -> None:
    """Import the built-in rule modules so their @register calls run."""
    from . import builtin_rules  # reprolint: disable=unused-import


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
