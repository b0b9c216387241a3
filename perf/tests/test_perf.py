"""Tests of the end-to-end benchmark, at ``--smoke`` size.

Run with ``python -m pytest perf -q``.  The in-process tests share one
untraced and one traced smoke pass of every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import ModuleType

import pytest

import compare
import grid
import layers
import run

SPEC = run.load_spec()
SIMULATE_WORKLOADS = ("read-stream", "write-stream", "mix-4core")


def wrapped_attributes():
    """Identity of every attribute the tracer patches, where it lives."""
    found = {}
    for _, owner, name in layers.entry_points():
        if isinstance(owner, ModuleType):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and name in vars(mod):
                    found[mod_name, name] = vars(mod)[name]
        else:
            found[owner, name] = vars(owner)[name]
    return found


ORIGINALS = wrapped_attributes()


@pytest.fixture(scope="module")
def smoke_passes():
    """(untraced, traced) pass reports of every workload at seed 1."""
    passes = {}
    for workload in grid.WORKLOADS:
        passes[workload] = tuple(
            run.pass_report(workload, 1, traced, smoke=True,
                            spawned_at=time.monotonic())
            for traced in (False, True))
    return passes


def test_every_metric_is_emitted_with_its_unit(smoke_passes):
    for workload, (untraced, traced) in smoke_passes.items():
        for kind, traced_passes in (("end_to_end", []),
                                    ("per_layer", [traced])):
            summary = run.summarize([untraced], traced_passes,
                                    [untraced["setup_s"]])
            line = run.result_line(summary, SPEC[kind])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"], workload
            assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
            for metric in SPEC[kind]:
                entry = line["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))


def test_traced_digests_equal_untraced(smoke_passes):
    for workload, (untraced, traced) in smoke_passes.items():
        assert ([(c["name"], c["digest"]) for c in traced["cells"]]
                == [(c["name"], c["digest"]) for c in untraced["cells"]])
        assert all(c["digest"] for c in untraced["cells"]), workload


def test_wrapped_methods_are_restored_after_a_traced_pass(smoke_passes):
    assert any(report["trace"] for _, report in smoke_passes.values())
    assert wrapped_attributes() == ORIGINALS


def test_layer_self_times_cover_the_cell_wall_time(smoke_passes):
    for workload in SIMULATE_WORKLOADS:
        metrics = smoke_passes[workload][1]["metrics"]
        assert metrics["unattributed.self_share"] <= 0.05, workload
        covered = sum(metrics[f"{layer}.self_share"]
                      for layer in layers.LAYER_NAMES)
        assert covered >= 0.95, workload


def test_a_corrupted_expected_digest_fails_the_cell():
    cells = grid.build_cells("read-stream", 1, smoke=True)[:2]
    honest = grid.run_pass(cells)
    corrupted = {c["name"]: c["digest"] for c in honest["cells"]}
    corrupted[cells[0].name] = "0" * 64
    report = grid.run_pass(cells, expected=corrupted)
    checks = [c["check"] for c in report["cells"]]
    assert checks == ["mismatch", "match"]
    failed = [c for c in report["cells"] if not c["ok"]]
    assert len(failed) / len(report["cells"]) > 0


def _cli(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perf/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170)


def test_the_command_prints_metric_lines_then_one_result_line():
    done = _cli(run.ROOT, "--workload", "fig10-quick", "--seed", "2",
                "--seconds", "1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert (f"{metric['name']} {result['metrics'][metric['name']]['value']!r}"
                f" {metric['unit']}") in lines


def test_the_command_fails_without_the_simulator_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _cli(tmp_path, "--workload", "read-stream", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout


def _set(rates, failed=0, digest="d"):
    return {"seed": 1, "runs": [
        {"workload": w["name"], "attempted": 10, "failed": failed,
         "digests": {"cell": digest},
         "metrics": {m["name"]: rate for m in SPEC["end_to_end"]}}
        for rate in rates for w in SPEC["workloads"]]}


def test_compare_applies_the_bounds():
    base = _set([100.0, 101.0, 99.0])
    rows = compare.compare(base, _set([100.5, 99.5, 100.0]), SPEC)
    assert {row["verdict"] for row in rows} == {"unchanged"}
    rows = compare.compare(base, _set([60.0, 61.0, 59.0]), SPEC)
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric["events_per_s"] == "worse"
    assert by_metric["wall_s"] == "better"
    noisy = _set([50.0, 100.0, 150.0])
    rows = compare.compare(base, noisy, SPEC)
    assert {row["verdict"] for row in rows} >= {"unresolved"}
    rows = compare.compare(base, _set([100.0, 101.0, 99.0], failed=1), SPEC)
    assert [row["verdict"] for row in rows
            if row["metric"] == "failed_frac"] == ["worse"] * 4


def test_compare_exits_nonzero_on_a_regression_or_moved_digest(tmp_path):
    sets = {"a": _set([100.0, 101.0, 99.0]), "b": _set([60.0, 61.0, 59.0]),
            "moved": _set([100.0, 101.0, 99.0], digest="e")}
    for name, content in sets.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    paths = {name: str(tmp_path / f"{name}.json") for name in sets}
    assert compare.main([paths["a"], paths["a"]]) == 0
    assert compare.main([paths["a"], paths["b"]]) == 1
    assert compare.main([paths["a"], paths["moved"]]) == 1
