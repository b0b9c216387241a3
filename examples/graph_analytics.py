#!/usr/bin/env python
"""Graph analytics on a compressed-memory server (the paper's §I pitch).

Graph workloads (Pagerank, Graph500, Forestfire) are exactly the
memory-hungry, pointer-heavy applications the paper motivates Compresso
with — and also the ones that stress its metadata cache hardest (Fig. 6,
Mix10).  This example runs the three graph workloads end to end:
cycle-level performance, effective capacity under a constrained budget,
and the overall picture, for the uncompressed baseline, the LCP
baseline, and Compresso.

Run:  python examples/graph_analytics.py
"""

from repro.simulation import (
    CapacityConfig,
    SimulationConfig,
    capacity_impact,
    simulate,
)
from repro.workloads import get_profile

GRAPH_WORKLOADS = ("Forestfire", "Pagerank", "Graph500")
SYSTEMS = ("lcp", "compresso")
SIM = SimulationConfig(n_events=4000, scale=0.03, seed=2)


def main() -> None:
    print("graph-analytics server: 70% of the working footprint in DRAM\n")
    header = (f"{'workload':12s} {'system':10s} {'cycle-perf':>10s} "
              f"{'md-hit':>7s} {'ratio':>6s} {'capacity':>9s} "
              f"{'overall':>8s}")
    print(header)
    print("-" * len(header))
    for name in GRAPH_WORKLOADS:
        profile = get_profile(name)
        runs = {
            system: simulate(profile, system, SIM)
            for system in ("uncompressed",) + SYSTEMS
        }
        capacity = capacity_impact(
            [profile],
            {system: runs[system].ratio_timeline for system in SYSTEMS},
            CapacityConfig(memory_fraction=0.7, n_touches=15000,
                           footprint_pages=300),
        )
        baseline = runs["uncompressed"]
        for system in SYSTEMS:
            run = runs[system]
            cycle = run.speedup_over(baseline)
            cap = capacity.relative(system)
            print(f"{name:12s} {system:10s} {cycle:9.2f}x "
                  f"{run.metadata_hit_rate:6.1%} {run.final_ratio:5.2f}x "
                  f"{cap:8.2f}x {cycle * cap:7.2f}x")
        print(f"{'':12s} {'(unconstrained bound: '}"
              f"{capacity.relative('unconstrained'):.2f}x capacity)")
    print()
    print("reading the table: graph data compresses well (index arrays, "
          "sparse rows), so the capacity")
    print("column carries the win even where metadata misses dent the "
          "cycle-level column — the")
    print("trade the paper's Mix10 discussion walks through.")


if __name__ == "__main__":
    main()
