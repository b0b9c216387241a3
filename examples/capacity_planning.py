#!/usr/bin/env python
"""Capacity planning: how much effective memory does compression buy?

The paper's motivation (§I): machine learning, graph analytics and
database servers are memory-capacity bound; hardware compression grows
effective capacity without buying DRAM.  This example plays a capacity
planner: given a server's workload mix, it estimates the effective
capacity Compresso provides, how close a constrained machine gets to an
unconstrained one, and what happens when memory runs out (the §V-B
ballooning path).

Run:  python examples/capacity_planning.py
"""

from repro.core import (
    BalloonDriver,
    CompressedMemoryController,
    compresso_config,
)
from repro.memory import MemoryGeometry
from repro.osmodel import DynamicBudget, StaticBudget, VirtualMemory
from repro.osmodel.paging import run_capacity_simulation
from repro.workloads import Workload, get_profile


def estimate_effective_capacity(server_mix) -> dict:
    print("=== effective capacity per workload ===")
    print(f"{'workload':12s} {'ratio':>7s} {'8GB feels like':>15s}")
    ratios = {}
    for name in server_mix:
        profile = get_profile(name)
        workload = Workload(profile, scale=0.02, seed=7)
        geometry = MemoryGeometry(installed_bytes=16 << 20,
                                  advertised_ratio=3.0)
        controller = CompressedMemoryController(compresso_config(), geometry)
        for page in range(min(workload.pages, 60)):
            controller.install_page(page, workload.page_lines(page))
        ratios[name] = controller.compression_ratio()
        print(f"{name:12s} {ratios[name]:6.2f}x {ratios[name] * 8:11.1f} GB")
    print()
    return ratios


def constrained_performance(server_mix, ratios,
                            budget_fraction: float) -> None:
    print(f"=== running in {budget_fraction:.0%} of the footprint ===")
    print(f"{'workload':12s} {'no compression':>15s} {'compresso':>10s} "
          f"{'unconstrained':>14s}")
    for name in server_mix:
        profile = get_profile(name)
        footprint = 300
        budget = int(footprint * budget_fraction)
        ratio = ratios[name]  # measured on this workload's data above
        _, t_plain = run_capacity_simulation(
            [profile], StaticBudget(budget), n_touches=20000,
            footprint_pages=footprint)
        _, t_comp = run_capacity_simulation(
            [profile], DynamicBudget(budget, [ratio]), n_touches=20000,
            footprint_pages=footprint)
        _, t_full = run_capacity_simulation(
            [profile], StaticBudget(footprint), n_touches=20000,
            footprint_pages=footprint)
        print(f"{name:12s} {'1.00x (base)':>15s} "
              f"{t_plain / t_comp:9.2f}x {t_plain / t_full:13.2f}x")
    print()


def out_of_memory_drill() -> None:
    print("=== out-of-memory drill (ballooning, §V-B) ===")
    geometry = MemoryGeometry(installed_bytes=2 << 20, advertised_ratio=4.0)
    controller = CompressedMemoryController(compresso_config(), geometry)
    vm = VirtualMemory(total_pages=geometry.ospa_pages)
    BalloonDriver(controller, vm, safety_chunks=32)

    workload = Workload(get_profile("mcf"), scale=0.1, seed=3)
    # The application allocates its full working set up front, then
    # streams poorly-compressing data in.  When machine memory runs
    # out, the balloon reclaims the coldest guest pages instead of
    # crashing or requiring a compression-aware kernel.
    pages = [vm.allocate_page() for _ in range(900)]
    written = 0
    for index, ospa in enumerate(pages):
        if not vm.is_allocated(ospa):
            continue  # the balloon took this one back already
        for line in range(64):
            controller.write_line(ospa, line,
                                  workload.line_data(index, line))
        if vm.is_allocated(ospa):
            vm.touch(ospa, dirty=True)
        written += 1
    print(f"wrote {written} pages into "
          f"{geometry.installed_bytes >> 20} MB of machine memory")
    print(f"balloon inflations: {controller.stats.balloon_inflations}, "
          f"pages reclaimed from the guest: "
          f"{controller.stats.balloon_pages_reclaimed}")
    print("the OS never saw a compression-specific event — just its own "
          "balloon driver asking for pages")


if __name__ == "__main__":
    server_mix = ["Pagerank", "Graph500", "xalancbmk", "mcf"]
    ratios = estimate_effective_capacity(server_mix)
    constrained_performance(server_mix, ratios, budget_fraction=0.7)
    out_of_memory_drill()
