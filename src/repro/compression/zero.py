"""Zero-line detection.

All-zero cache lines are the single most valuable special case in a
compressed memory system: the paper handles zero fills/writebacks purely
in (cached) metadata with no DRAM access at all (§VII-A).
"""

from __future__ import annotations


def is_zero_line(data: bytes) -> bool:
    """True if every byte of the line is zero."""
    return not any(data)
