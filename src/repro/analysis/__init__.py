"""Experiment harness: one runner per paper table/figure + rendering.

The CLI surface (``run``/``trace``/``lint``/``index``/``compare``
subcommands) is documented in docs/RUNNER.md; the shipped numbers live
in EXPERIMENTS.md.
"""

from .experiments import (
    COMPRESSED_SYSTEMS,
    DEFAULT,
    FULL,
    QUICK,
    ExperimentScale,
    run_ablation_design_space,
    run_fig2,
    run_fig4,
    run_fig6,
    run_fig7,
    run_faults,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_pressure,
    run_sec7_energy_area,
    run_tab2,
)
from .export import to_csv, to_json, write_result, write_results
from .report import ExperimentResult, arithmetic_mean, geometric_mean, render

__all__ = [
    "COMPRESSED_SYSTEMS",
    "DEFAULT",
    "ExperimentResult",
    "ExperimentScale",
    "FULL",
    "QUICK",
    "arithmetic_mean",
    "geometric_mean",
    "render",
    "to_csv",
    "to_json",
    "write_result",
    "write_results",
    "run_ablation_design_space",
    "run_faults",
    "run_fig2",
    "run_fig4",
    "run_fig6",
    "run_fig7",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_pressure",
    "run_sec7_energy_area",
    "run_tab2",
]
