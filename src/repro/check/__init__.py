"""Static-analysis and runtime invariant checking (docs/LINTING.md).

Two complementary checking layers keep the reproduction honest as the
codebase grows:

* **reprolint** — an AST-based lint framework: a :class:`Rule`
  registry, a serial per-file visitor driver, structured
  :class:`Finding` objects, and inline ``# reprolint: disable=<id>``
  suppressions.  The built-in rule set enforces repo invariants that
  regexes used to approximate (``repro.check.builtin_rules``).
* **memory-model sanitizer** — a shadow-state checker
  (:class:`MemorySanitizer`) that verifies the paper's layout
  invariants — no overlapping packed lines, offsets within bounds and
  on the 0/8/32/64 B bins (§IV-B1), inflation-pointer/metadata
  consistency (§III), allocator no-double-free/no-leak (§II-D) — after
  every controller operation when a controller is built with
  ``sanitize=True``.

This package deliberately imports nothing from ``repro.core`` at
module scope, so the controller can import the sanitizer without an
import cycle; rules that inspect core types import them lazily.
"""

from .driver import LintReport, lint_file_detail, run_lint
from .findings import SEVERITIES, Finding, format_finding
from .rules import ModuleSource, ProjectRule, Rule, all_rules, get_rule, register
from .sanitizer import InvariantViolation, MemorySanitizer, SanitizerError

__all__ = [
    "Finding",
    "InvariantViolation",
    "LintReport",
    "MemorySanitizer",
    "SanitizerError",
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "SEVERITIES",
    "all_rules",
    "format_finding",
    "get_rule",
    "lint_file_detail",
    "register",
    "run_lint",
]
