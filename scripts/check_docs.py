#!/usr/bin/env python
"""Documentation lint shim over the reprolint framework.

Historically a standalone regex checker; the checks now live as
AST-based rules in ``repro.check`` (docs/LINTING.md):

* ``module-docstring`` — every module under ``src/repro/`` has a
  module docstring;
* ``doc-links`` — every relative link in the tracked markdown docs
  resolves to an existing file;
* ``package-doc-link`` — every ``src/repro`` package ``__init__``
  docstring names an existing documentation page, so a stale or
  missing doc reference fails tier-1.

This entry point remains for muscle memory and CI wiring
(``tests/test_docs.py``); it is equivalent to::

    python -m repro.analysis lint \
        --rules module-docstring,doc-links,package-doc-link

Exits non-zero listing each problem on stderr.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.check import run_lint  # noqa: E402
from repro.check.builtin_rules import DOCS  # noqa: E402
from repro.check.findings import format_finding  # noqa: E402

RULES = ("module-docstring", "doc-links", "package-doc-link")


def main() -> int:
    report = run_lint(root=ROOT, rules=RULES)
    for finding in report.findings:
        print(format_finding(finding), file=sys.stderr)
    if not report.ok:
        print(f"check_docs: {len(report.errors)} problem(s)",
              file=sys.stderr)
        return 1
    n_modules = sum(1 for _ in (ROOT / "src" / "repro").rglob("*.py"))
    print(f"check_docs: OK ({n_modules} modules, {len(DOCS)} docs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
