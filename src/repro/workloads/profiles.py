"""Per-benchmark workload profiles (the SPEC CPU2006 / graph substitute).

Each :class:`BenchmarkProfile` captures the characteristics of one of
the paper's 30 benchmarks that the Compresso experiments are sensitive
to: data-class mix (→ compression ratio, Fig. 2), zero-page/line rates
(→ free zero traffic, §VII-A), access locality (→ metadata-cache hit
rate, Fig. 4/6), writeback behaviour and overwrite phases (→ line/page
overflows and repacking, Figs. 6/7), miss rate and memory-level
parallelism (→ cycle-based speedups, Figs. 10/11), and page-reuse
shape (→ memory-capacity impact, Tab. II).

The numeric values are calibrated so the per-benchmark *shape* of the
paper's figures holds: zeusmp is the compression outlier, mcf /
GemsFDTD / lbm are incompressible and memory-hungry, omnetpp and the
graph workloads (Forestfire, Pagerank, Graph500) blow the metadata
cache, soplex and libquantum are bandwidth-bound with many zero lines,
and GemsFDTD / astar show strong compressibility phases (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .datagen import LineClass

#: One trace phase: (fraction of the trace, class written back during
#: the phase or None to rewrite the page's own class, overwrite rate).
Phase = Tuple[float, Optional[LineClass], float]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Synthetic stand-in for one benchmark."""

    name: str
    # -- data contents (Fig. 2) ------------------------------------------
    mix: Dict[LineClass, float]
    zero_page_fraction: float = 0.05
    zero_line_fraction: float = 0.02
    # -- footprint / locality --------------------------------------------
    footprint_pages: int = 2048          # 4 KB pages (8 MB default)
    hot_fraction: float = 0.25           # fraction of pages that are hot
    hot_weight: float = 0.85             # P(access goes to the hot set)
    sequential: float = 0.5              # P(continue a sequential run)
    # -- event stream -----------------------------------------------------
    mpki: float = 5.0                    # LLC misses per kilo-instruction
    write_fraction: float = 0.3          # P(event is a writeback)
    mlp: float = 2.0                     # core overlap of demand misses
    base_cpi: float = 0.5                # non-memory cycles per instruction
    skew: float = 2.0                    # hot-page popularity skew (zipf-ish)
    # -- compressibility dynamics (Figs. 6/7/9) ---------------------------
    phases: Tuple[Phase, ...] = ((1.0, None, 0.0),)
    #: Background content churn: probability that a writeback outside
    #: any overwrite phase briefly turns a line incompressible (it
    #: reverts on its next rewrite).  Drives the universal mild
    #: compression squandering that repacking reclaims (Fig. 7).
    churn: float = 0.03
    # -- memory-capacity behaviour (Tab. II, Fig. 10) ----------------------
    #: Zipf exponent of page reuse: shapes the fault curve under a
    #: constrained budget.  ~0.4 = flat reuse, thrashes below the full
    #: footprint (mcf/GemsFDTD/lbm "stall"); ~1.4-1.6 = almost-linear
    #: sensitivity; >2 = tiny tail, insensitive to constraints.
    reuse_alpha: float = 1.5
    working_set_fraction: float = 0.5    # hot share of pages (trace shaping)
    scan_fraction: float = 0.2           # streaming share (trace shaping)
    capacity_sensitive: bool = True      # reacts to constrained memory?

    def phase_at(self, progress: float) -> Phase:
        """The phase active at ``progress`` in [0, 1)."""
        cursor = 0.0
        for phase in self.phases:
            cursor += phase[0]
            if progress < cursor:
                return phase
        return self.phases[-1]


def _p(**kwargs) -> BenchmarkProfile:
    return BenchmarkProfile(**kwargs)


Z, ISM, IDL, PTR, FLT, TXT, SPR, RND = (
    LineClass.ZERO,
    LineClass.INT_SMALL,
    LineClass.INT_DELTA,
    LineClass.POINTER,
    LineClass.FLOAT,
    LineClass.TEXT,
    LineClass.SPARSE,
    LineClass.RANDOM,
)

#: All 30 benchmarks of the paper's evaluation, in its plotting order.
PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        _p(name="perlbench", reuse_alpha=1.6,
           mix={ISM: 0.4, PTR: 0.3, TXT: 0.2, RND: 0.1},
           mpki=2, write_fraction=0.35, footprint_pages=1536,
           working_set_fraction=0.4),
        _p(name="bzip2", reuse_alpha=2.2,
           mix={ISM: 0.3, RND: 0.5, TXT: 0.2},
           mpki=4, write_fraction=0.4, footprint_pages=2048,
           working_set_fraction=0.6, scan_fraction=0.02, capacity_sensitive=False),
        _p(name="gcc", reuse_alpha=1.5,
           mix={PTR: 0.35, ISM: 0.3, SPR: 0.25, RND: 0.1},
           zero_page_fraction=0.15, mpki=8, write_fraction=0.4,
           footprint_pages=2048, hot_fraction=0.3,
           phases=((0.3, SPR, 0.2), (0.4, RND, 0.25), (0.3, SPR, 0.2)),
           working_set_fraction=0.45),
        _p(name="bwaves", reuse_alpha=1.4,
           mix={FLT: 0.6, IDL: 0.25, RND: 0.15},
           mpki=18, write_fraction=0.3, footprint_pages=3072,
           sequential=0.8, mlp=3.0, working_set_fraction=0.7),
        _p(name="gamess", reuse_alpha=2.4,
           mix={FLT: 0.5, ISM: 0.35, RND: 0.15},
           mpki=0.7, write_fraction=0.3, footprint_pages=512,
           scan_fraction=0.02, capacity_sensitive=False),
        _p(name="mcf", reuse_alpha=0.3,
           mix={PTR: 0.45, RND: 0.45, ISM: 0.1},
           zero_page_fraction=0.0, zero_line_fraction=0.0,
           mpki=60, write_fraction=0.3, footprint_pages=6144,
           hot_fraction=0.6, hot_weight=0.6, sequential=0.2, mlp=4.0,
           base_cpi=0.8, skew=2.5,
           working_set_fraction=0.95, scan_fraction=0.5),
        _p(name="milc", reuse_alpha=1.4,
           mix={FLT: 0.45, RND: 0.45, IDL: 0.1},
           mpki=25, write_fraction=0.35, footprint_pages=4096,
           sequential=0.7, mlp=3.0, working_set_fraction=0.8),
        _p(name="zeusmp", reuse_alpha=1.5,
           mix={IDL: 0.55, SPR: 0.3, FLT: 0.1, RND: 0.05},
           zero_page_fraction=0.45, zero_line_fraction=0.1,
           mpki=8, write_fraction=0.35, footprint_pages=3072,
           sequential=0.7, working_set_fraction=0.6),
        _p(name="gromacs", reuse_alpha=2.4,
           mix={FLT: 0.5, ISM: 0.3, RND: 0.2},
           mpki=2, write_fraction=0.35, footprint_pages=1024,
           scan_fraction=0.02, capacity_sensitive=False),
        _p(name="cactusADM", reuse_alpha=1.4,
           mix={FLT: 0.45, SPR: 0.3, IDL: 0.15, RND: 0.1},
           zero_page_fraction=0.2, zero_line_fraction=0.15,
           mpki=10, write_fraction=0.35, footprint_pages=3072,
           sequential=0.75, mlp=2.5, working_set_fraction=0.65),
        _p(name="leslie3d", reuse_alpha=1.4,
           mix={FLT: 0.55, SPR: 0.25, IDL: 0.1, RND: 0.1},
           zero_page_fraction=0.1, zero_line_fraction=0.43,
           mpki=15, write_fraction=0.3, footprint_pages=3072,
           sequential=0.8, mlp=3.0, working_set_fraction=0.7),
        _p(name="namd", reuse_alpha=1.25,
           mix={FLT: 0.5, TXT: 0.2, ISM: 0.15, RND: 0.15},
           mpki=1.5, write_fraction=0.3, footprint_pages=1024,
           working_set_fraction=0.75),
        _p(name="gobmk", reuse_alpha=2.4,
           mix={ISM: 0.4, PTR: 0.3, TXT: 0.15, RND: 0.15},
           mpki=2, write_fraction=0.35, footprint_pages=768,
           scan_fraction=0.02, capacity_sensitive=False),
        _p(name="soplex", reuse_alpha=1.35,
           mix={SPR: 0.45, FLT: 0.3, ISM: 0.15, RND: 0.1},
           zero_page_fraction=0.1, zero_line_fraction=0.25,
           mpki=30, write_fraction=0.25, footprint_pages=4096,
           sequential=0.7, mlp=3.5, working_set_fraction=0.6),
        _p(name="povray", reuse_alpha=1.6,
           mix={FLT: 0.4, PTR: 0.3, TXT: 0.15, RND: 0.15},
           mpki=0.6, write_fraction=0.35, footprint_pages=512,
           working_set_fraction=0.5),
        _p(name="calculix", reuse_alpha=2.4,
           mix={FLT: 0.45, ISM: 0.35, RND: 0.2},
           mpki=2, write_fraction=0.3, footprint_pages=1024,
           scan_fraction=0.02, capacity_sensitive=False),
        _p(name="hmmer", reuse_alpha=2.4,
           mix={ISM: 0.55, RND: 0.35, TXT: 0.1},
           mpki=1.5, write_fraction=0.45, footprint_pages=768,
           scan_fraction=0.02, capacity_sensitive=False),
        _p(name="sjeng", reuse_alpha=1.6,
           mix={ISM: 0.4, PTR: 0.3, RND: 0.3},
           mpki=1.2, write_fraction=0.35, footprint_pages=2048,
           hot_fraction=0.7, hot_weight=0.5, working_set_fraction=0.6),
        _p(name="GemsFDTD", reuse_alpha=0.35,
           mix={FLT: 0.4, RND: 0.5, IDL: 0.1},
           zero_page_fraction=0.0, zero_line_fraction=0.02,
           mpki=25, write_fraction=0.35, footprint_pages=6144,
           sequential=0.75, mlp=3.0,
           phases=((0.25, SPR, 0.12), (0.25, RND, 0.12),
                   (0.25, SPR, 0.12), (0.25, RND, 0.12)),
           working_set_fraction=0.9, scan_fraction=0.5),
        _p(name="libquantum", reuse_alpha=1.3,
           mix={IDL: 0.5, SPR: 0.35, RND: 0.15},
           zero_page_fraction=0.15, zero_line_fraction=0.1,
           mpki=25, write_fraction=0.25, footprint_pages=2048,
           sequential=0.95, mlp=4.0, working_set_fraction=0.9,
           scan_fraction=0.8),
        _p(name="h264ref", reuse_alpha=2.4,
           mix={ISM: 0.45, RND: 0.4, TXT: 0.15},
           mpki=2, write_fraction=0.4, footprint_pages=768,
           scan_fraction=0.02, capacity_sensitive=False),
        _p(name="tonto", reuse_alpha=1.6,
           mix={FLT: 0.45, ISM: 0.35, RND: 0.2},
           mpki=2, write_fraction=0.3, footprint_pages=1024,
           working_set_fraction=0.5),
        _p(name="lbm", reuse_alpha=0.3,
           mix={RND: 0.6, FLT: 0.35, IDL: 0.05},
           zero_page_fraction=0.0, zero_line_fraction=0.0,
           mpki=30, write_fraction=0.45, footprint_pages=6144,
           sequential=0.9, mlp=3.5,
           working_set_fraction=0.95, scan_fraction=0.7),
        _p(name="omnetpp", reuse_alpha=1.4,
           mix={PTR: 0.45, ISM: 0.3, SPR: 0.15, RND: 0.1},
           mpki=20, write_fraction=0.35, footprint_pages=4096,
           hot_fraction=0.8, hot_weight=0.5, sequential=0.15, mlp=1.5,
           base_cpi=0.8, skew=1.2,
           working_set_fraction=0.7),
        _p(name="astar", reuse_alpha=1.45,
           mix={PTR: 0.4, ISM: 0.3, SPR: 0.15, RND: 0.15},
           mpki=10, write_fraction=0.3, footprint_pages=2048,
           sequential=0.3, mlp=1.5,
           phases=((0.3, SPR, 0.15), (0.3, RND, 0.15), (0.4, SPR, 0.15)),
           working_set_fraction=0.6),
        _p(name="sphinx3", reuse_alpha=1.45,
           mix={FLT: 0.5, ISM: 0.3, RND: 0.2},
           mpki=12, write_fraction=0.25, footprint_pages=2048,
           sequential=0.6, working_set_fraction=0.6),
        _p(name="xalancbmk", reuse_alpha=1.4,
           mix={PTR: 0.4, TXT: 0.25, ISM: 0.25, RND: 0.1},
           mpki=8, write_fraction=0.3, footprint_pages=2048,
           hot_fraction=0.5, hot_weight=0.6, sequential=0.3,
           working_set_fraction=0.75),
        _p(name="Forestfire", reuse_alpha=1.25,
           mix={SPR: 0.4, PTR: 0.3, IDL: 0.2, RND: 0.1},
           zero_page_fraction=0.1, mpki=30, write_fraction=0.35,
           footprint_pages=8192, hot_fraction=0.9, hot_weight=0.4,
           sequential=0.1, mlp=2.0, base_cpi=0.7, skew=1.1,
           working_set_fraction=0.8),
        _p(name="Pagerank", reuse_alpha=1.3,
           mix={IDL: 0.35, FLT: 0.3, PTR: 0.25, RND: 0.1},
           zero_page_fraction=0.05, mpki=35, write_fraction=0.3,
           footprint_pages=8192, hot_fraction=0.9, hot_weight=0.4,
           sequential=0.2, mlp=2.5, base_cpi=0.7, skew=1.1,
           working_set_fraction=0.85),
        _p(name="Graph500", reuse_alpha=1.2,
           mix={IDL: 0.45, SPR: 0.3, PTR: 0.15, RND: 0.1},
           zero_page_fraction=0.2, mpki=40, write_fraction=0.3,
           footprint_pages=8192, hot_fraction=0.9, hot_weight=0.4,
           sequential=0.15, mlp=3.0, base_cpi=0.7, skew=1.1,
           working_set_fraction=0.75),
    ]
}

#: The three benchmarks the paper excludes from constrained-memory runs
#: (they stall from paging and are incompressible, §VII-A).
CAPACITY_STALLERS = ("mcf", "GemsFDTD", "lbm")

#: Plot order used by the paper's figures.
BENCHMARK_ORDER = tuple(PROFILES)


def get_profile(name: str) -> BenchmarkProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; known: {sorted(PROFILES)}"
        ) from None
