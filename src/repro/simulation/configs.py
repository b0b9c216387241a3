"""Evaluated system configurations (paper Tab. III + §VI-F).

Four systems appear throughout the evaluation:

* ``uncompressed`` — the baseline all performance is relative to;
* ``lcp`` — the competitive baseline: OS-aware LCP with the optimized
  BPC compressor, 4 variable page sizes, exception region, speculative
  parallel access, and a same-size metadata cache;
* ``lcp+align`` — LCP with Compresso's alignment-friendly line bins;
* ``compresso`` — the full design with every data-movement optimization.

The Fig. 6 optimization ladder additionally needs Compresso with
optimizations applied cumulatively; :func:`optimization_ladder` builds
those design points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.config import (
    ALIGNMENT_FRIENDLY_LINE_BINS,
    PRIOR_WORK_LINE_BINS,
    CompressoConfig,
    compresso_config,
    lcp_align_config,
    lcp_config,
)

SYSTEM_ORDER = ("uncompressed", "lcp", "lcp+align", "compresso")


def system_config(name: str) -> Optional[CompressoConfig]:
    """Controller config for a named system (None = uncompressed)."""
    if name == "uncompressed":
        return None
    if name == "lcp":
        return lcp_config()
    if name == "lcp+align":
        return lcp_align_config()
    if name == "compresso":
        return compresso_config()
    raise ValueError(f"unknown system {name!r}; known: {SYSTEM_ORDER}")


def optimization_ladder() -> List[Tuple[str, CompressoConfig]]:
    """Fig. 6's cumulative optimization steps, baseline first.

    Starts from Compresso's skeleton (LinePack, 512 B chunks) with
    prior-work line bins and no optimizations, then adds, in the
    paper's order: alignment-friendly bins, overflow prediction,
    dynamic IR expansion, and the metadata-cache half-entry
    optimization.  (Dynamic repacking is evaluated separately in
    Fig. 7 since it restores compression rather than cutting traffic.)
    """
    base = compresso_config(
        line_bins=PRIOR_WORK_LINE_BINS,
        enable_overflow_prediction=False,
        enable_ir_expansion=False,
        enable_metadata_half_entries=False,
    )
    steps = [("baseline", base)]
    steps.append((
        "+alignment",
        base.replace(line_bins=ALIGNMENT_FRIENDLY_LINE_BINS),
    ))
    steps.append((
        "+prediction",
        steps[-1][1].replace(enable_overflow_prediction=True),
    ))
    steps.append((
        "+ir-expansion",
        steps[-1][1].replace(enable_ir_expansion=True),
    ))
    steps.append((
        "+metadata-cache",
        steps[-1][1].replace(enable_metadata_half_entries=True),
    ))
    return steps


def chunk_vs_variable_configs() -> Dict[str, CompressoConfig]:
    """Fig. 4's two allocation schemes (both unoptimized)."""
    common = dict(
        line_bins=PRIOR_WORK_LINE_BINS,
        enable_overflow_prediction=False,
        enable_ir_expansion=False,
        enable_repacking=False,
        enable_metadata_half_entries=False,
    )
    return {
        "fixed-512B": compresso_config(allocation="chunks", **common),
        "variable-4": compresso_config(allocation="variable", **common),
    }
