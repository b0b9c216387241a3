"""Structured lint findings.

A :class:`Finding` is the unit every rule reports: repo-relative path,
1-based line, the rule id that fired, a severity, and a human message.
Findings are frozen dataclasses so they sort deterministically and
compare by value.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognized severities, most severe first.  ``error`` findings fail
#: the lint run; ``warning`` findings are reported but do not.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One problem a rule found at one source location."""

    path: str          # repo-relative, forward slashes
    line: int          # 1-based; 0 = whole file
    rule: str          # rule id, e.g. "mutable-default"
    severity: str      # one of SEVERITIES
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


def format_finding(finding: Finding) -> str:
    """Render one finding the way compilers do: ``path:line: message``."""
    location = f"{finding.path}:{finding.line}" if finding.line else finding.path
    return f"{location}: [{finding.rule}] {finding.severity}: {finding.message}"

