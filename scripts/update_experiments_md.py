#!/usr/bin/env python
"""Refresh the ``<!-- MEASURED -->`` section of EXPERIMENTS.md.

A filter over the output of ``python -m repro.analysis run``
(docs/RUNNER.md), the one way to regenerate the paper's figures::

    PYTHONPATH=src python -m repro.analysis run --scale default --jobs 4 \
        --no-journal | python scripts/update_experiments_md.py

It extracts each experiment's summary block (the lines between the
last dashed rule and the ``paper reports:`` marker, the ``claims:``
verdicts or the end-of-run timing table) from stdin and replaces the
``<!-- MEASURED -->`` section of EXPERIMENTS.md.  ``--filter`` on the
``run`` side restricts the section to the matching experiments.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Line prefixes that end an experiment's summary block.
_STOPS = ("paper reports:", "claims:", "== run timing ==")


def extract_summaries(run_text: str) -> str:
    """Pull the per-experiment summary blocks out of ``run`` output."""
    blocks = []
    pattern = re.compile(r"^== (\w+): (.+) ==$", re.MULTILINE)
    matches = list(pattern.finditer(run_text))
    for index, match in enumerate(matches):
        end = (matches[index + 1].start()
               if index + 1 < len(matches) else len(run_text))
        section = run_text[match.start():end]
        lines = section.splitlines()
        stop = next((i for i, line in enumerate(lines)
                     if line.startswith(_STOPS)), len(lines))
        # Keep everything from the last dashed rule before the stop.
        rules = [i for i, line in enumerate(lines[:stop])
                 if set(line.strip()) == {"-"} and line.strip()]
        start = rules[-1] + 1 if rules else 1
        summary = [line.rstrip() for line in lines[start:stop]
                   if line.strip()]
        blocks.append(f"### {match.group(1)} — {match.group(2)}\n\n```\n"
                      + "\n".join(summary) + "\n```\n")
    return "\n".join(blocks)


def update_doc(measured: str) -> int:
    doc_path = ROOT / "EXPERIMENTS.md"
    doc = doc_path.read_text()
    marker = "<!-- MEASURED -->"
    if marker not in doc:
        print("EXPERIMENTS.md is missing the MEASURED marker",
              file=sys.stderr)
        return 1
    head, _, tail = doc.partition(marker)
    # Drop any previously inserted content up to the next heading.
    tail_lines = tail.splitlines()
    keep_from = next((i for i, line in enumerate(tail_lines)
                      if line.startswith("## ")), len(tail_lines))
    doc = head + marker + "\n\n" + measured + "\n" + \
        "\n".join(tail_lines[keep_from:]) + "\n"
    doc_path.write_text(doc)
    print(f"EXPERIMENTS.md updated with {measured.count('###')} summaries")
    return 0


def main() -> int:
    measured = extract_summaries(sys.stdin.read())
    if not measured:
        print("no experiment output on stdin; pipe "
              "'python -m repro.analysis run' into this script",
              file=sys.stderr)
        return 1
    return update_doc(measured)


if __name__ == "__main__":
    sys.exit(main())
