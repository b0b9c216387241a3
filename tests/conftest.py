"""Fixtures shared across test modules."""

import pytest

from repro.analysis.experiments import (
    ExperimentScale,
    run_ablation_design_space,
    run_fig4,
    run_fig6,
    run_fig7,
    run_fig10,
    run_fig11,
    run_fig12,
    run_tab2,
)
from repro.runner import Runner, RunJournal, read_journal


@pytest.fixture(scope="session")
def cycle_based_unit_ends(tmp_path_factory):
    """The journaled ``unit_end`` records of one tiny sweep over every
    cycle-based experiment, run once with ``sanitize=True`` and
    ``trace_window=100`` so the sanitizer test (test_sanitizer.py) and
    the timeline test (test_obs.py) check their blocks on the same run."""
    scale = ExperimentScale(n_events=200, scale=0.004, capacity_touches=600,
                            capacity_footprint_cap=30, fig2_pages=4,
                            benchmarks=("gcc",), mixes=("mix6",),
                            sanitize=True, trace_window=100)
    path = tmp_path_factory.mktemp("sweep") / "runs.jsonl"
    runner = Runner(journal=RunJournal(path))
    for run in (run_fig4, run_fig6, run_fig7, run_fig10, run_fig11,
                run_fig12, run_tab2, run_ablation_design_space):
        run(scale, runner=runner)
    return [event for event in read_journal(path)
            if event["event"] == "unit_end"]
