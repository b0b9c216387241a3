"""Tests for the parallel experiment runner, cache and journal."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import ExperimentScale, run_fig2
from repro.analysis.__main__ import main as analysis_main
from repro.runner import (
    ResultCache,
    RunJournal,
    Runner,
    WorkUnit,
    canonical,
    read_journal,
    timing_table,
    unit_key,
    validate_event,
)

TINY = ExperimentScale(n_events=400, scale=0.02, capacity_touches=2000,
                       capacity_footprint_cap=60, fig2_pages=6,
                       benchmarks=("gcc", "mcf"), mixes=("mix2",))


def _double(x):
    """Module-level so it pickles across the multiprocessing boundary."""
    return {"row": {"x": x * 2}}


def _touch(counter_file, x):
    """Unit that records each real execution in a side-effect file."""
    with open(counter_file, "a") as handle:
        handle.write(f"{x}\n")
    return {"row": {"x": x}, "stats": {"demand_accesses": x}}


def _scaled(x, scale):
    """Unit taking the conventional ``scale`` param (seed journaling)."""
    return {"row": {"x": x, "seed": scale.seed}}


def _unit(fn, params, label="u"):
    return WorkUnit(experiment="test", label=f"test/{label}", fn=fn,
                    params=params)


class TestKeys:
    def test_key_is_stable(self):
        a = unit_key("f", {"benchmark": "gcc", "scale": TINY})
        b = unit_key("f", {"scale": TINY, "benchmark": "gcc"})
        assert a == b

    def test_key_changes_with_config_field(self):
        base = unit_key("f", {"scale": TINY})
        reseeded = unit_key("f", {"scale": replace(TINY, seed=2)})
        rescaled = unit_key("f", {"scale": replace(TINY, n_events=401)})
        assert base != reseeded
        assert base != rescaled
        assert reseeded != rescaled

    def test_key_changes_with_unit_name(self):
        assert unit_key("f", {"x": 1}) != unit_key("g", {"x": 1})

    def test_canonical_rejects_non_data(self):
        with pytest.raises(TypeError):
            canonical({"fn": lambda: None})

    def test_canonical_tuples_and_dataclasses(self):
        value = canonical({"scale": TINY, "pair": (1, 2)})
        assert value["pair"] == [1, 2]
        assert value["scale"]["__dataclass__"] == "ExperimentScale"
        json.dumps(value)    # must be JSON-serializable


class TestCache:
    def test_hit_miss_roundtrip(self, tmp_path):
        counter = tmp_path / "calls.txt"
        cache = ResultCache(tmp_path / "cache")
        units = [_unit(_touch, {"counter_file": str(counter), "x": 7})]

        cold = Runner(cache=cache).map(units)
        assert counter.read_text().splitlines() == ["7"]
        warm = Runner(cache=cache).map(units)
        # Second invocation is served from the cache: no new execution,
        # byte-identical result.
        assert counter.read_text().splitlines() == ["7"]
        assert json.dumps(cold) == json.dumps(warm)
        assert len(cache) == 1

    def test_param_change_invalidates(self, tmp_path):
        counter = tmp_path / "calls.txt"
        cache = ResultCache(tmp_path / "cache")
        runner = Runner(cache=cache)
        runner.map([_unit(_touch, {"counter_file": str(counter), "x": 1})])
        runner.map([_unit(_touch, {"counter_file": str(counter), "x": 2})])
        assert counter.read_text().splitlines() == ["1", "2"]
        assert len(cache) == 2

    def test_config_dataclass_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key_a = unit_key("f", {"scale": TINY})
        key_b = unit_key("f", {"scale": replace(TINY, seed=99)})
        cache.put(key_a, _unit(_double, {"x": 1}), {"row": {"x": 2}})
        assert cache.get(key_a) == {"row": {"x": 2}}
        assert cache.get(key_b) is None

    def test_corrupt_cell_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = unit_key("f", {"x": 1})
        cache.put(key, _unit(_double, {"x": 1}), {"row": {"x": 2}})
        (tmp_path / "cache" / f"{key}.json").write_text("{ torn")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(unit_key("f", {"x": 1}), _unit(_double, {"x": 1}), {})
        assert cache.clear() == 1
        assert len(cache) == 0


class TestParallel:
    def test_results_in_submission_order(self):
        units = [_unit(_double, {"x": x}, label=str(x))
                 for x in (5, 3, 9, 1, 7)]
        results = Runner(jobs=4).map(units)
        assert [r["row"]["x"] for r in results] == [10, 6, 18, 2, 14]

    def test_jobs1_vs_jobs4_identical_experiment(self):
        serial = run_fig2(TINY, runner=Runner(jobs=1))
        parallel = run_fig2(TINY, runner=Runner(jobs=4))
        assert json.dumps(serial.rows) == json.dumps(parallel.rows)
        assert json.dumps(serial.summary) == json.dumps(parallel.summary)

    def test_results_independent_of_hash_seed(self):
        """Same digests under PYTHONHASHSEED=0 and =1, in fresh processes.

        Iterating a set or a str-keyed hash anywhere between the scale and
        the result would reorder rows or change sums across hash seeds;
        fig2 runs four benchmarks so a set-ordered unit list shows up.
        """
        scale = replace(TINY, benchmarks=("gcc", "mcf", "libquantum",
                                          "omnetpp"))
        probe = (
            "import hashlib, json\n"
            "from repro.analysis import (ExperimentScale, run_fig2,\n"
            "    run_ablation_design_space, run_sec7_energy_area)\n"
            "from repro.runner import Runner\n"
            f"scale = {scale!r}\n"
            "results = [run_fig2(scale, runner=Runner(jobs=1)),\n"
            "           run_ablation_design_space(scale, runner=Runner(jobs=1)),\n"
            "           run_sec7_energy_area(runner=Runner(jobs=1))]\n"
            "doc = json.dumps([[r.rows, r.summary] for r in results],\n"
            "                 sort_keys=True)\n"
            "print(hashlib.sha256(doc.encode()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        procs = [subprocess.Popen(
            [sys.executable, "-c", probe], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
        digests = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            digests.append(out.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_parallel_populates_cache_serial_reads_it(self, tmp_path):
        counter = tmp_path / "calls.txt"
        cache = ResultCache(tmp_path / "cache")
        units = [_unit(_touch, {"counter_file": str(counter), "x": x},
                       label=str(x)) for x in range(3)]
        first = Runner(jobs=3, cache=cache).map(units)
        second = Runner(jobs=1, cache=cache).map(units)
        assert json.dumps(first) == json.dumps(second)
        assert sorted(counter.read_text().splitlines()) == ["0", "1", "2"]


class TestJournal:
    def _run(self, tmp_path, jobs=1, cache=None):
        journal = RunJournal(tmp_path / "runs.jsonl")
        counter = tmp_path / "calls.txt"
        units = [_unit(_touch, {"counter_file": str(counter), "x": x},
                       label=str(x)) for x in range(3)]
        Runner(jobs=jobs, cache=cache, journal=journal).map(units)
        return read_journal(tmp_path / "runs.jsonl")

    def test_event_pair_per_unit(self, tmp_path):
        events = self._run(tmp_path)
        starts = [e for e in events if e["event"] == "unit_start"]
        ends = [e for e in events if e["event"] == "unit_end"]
        assert len(starts) == len(ends) == 3
        # Every start is matched by an end for the same unit key.
        assert ({(e["unit"], e["key"]) for e in starts}
                == {(e["unit"], e["key"]) for e in ends})

    def test_events_validate_against_schema(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        events = self._run(tmp_path, jobs=2, cache=cache)
        for event in events:
            assert validate_event(event) == [], event

    def test_cache_hits_are_journaled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._run(tmp_path, cache=cache)
        events = self._run(tmp_path, cache=cache)
        warm_ends = [e for e in events if e["event"] == "unit_end"][3:]
        assert warm_ends and all(e["cached"] for e in warm_ends)

    def test_stats_summary_attached(self, tmp_path):
        events = self._run(tmp_path)
        ends = [e for e in events if e["event"] == "unit_end"]
        assert all(e["stats"]["demand_accesses"] == int(e["unit"].split("/")[1])
                   for e in ends)

    def test_validate_event_flags_problems(self):
        assert validate_event({"event": "nope"})
        assert validate_event([1, 2])
        missing = validate_event(
            {"event": "unit_end", "run_id": "r", "ts": 0.0})
        assert any("wall_s" in problem for problem in missing)


#: One well-formed payload per EVENT_SCHEMA entry, optional fields
#: included — emitted through a real journal and re-validated below.
GOLDEN_EVENTS = {
    "run_start": dict(jobs=2, cache_enabled=True, seeds=3, base_seed=42),
    "unit_start": dict(unit="fig4/gcc", experiment="fig4", key="k",
                       cached=False, seed=42),
    "unit_retry": dict(unit="fig4/gcc", experiment="fig4", key="k",
                       attempt=1, reason="crash", delay_s=0.5),
    "unit_end": dict(unit="fig4/gcc", experiment="fig4", key="k",
                     cached=False, wall_s=0.2, ok=True, seed=42,
                     stats={"compression_ratio": 1.5,
                            "extra_accesses": 9,
                            "metadata_hit_rate": None},
                     timeline={"window": 1000, "extra_accesses": 9,
                               "by_source": {"split": 4, "overflow": 3,
                                             "metadata": 2},
                               "peak": None},
                     sanitizer={"violations": 0}),
    "run_end": dict(wall_s=1.5, units=4, cache_hits=1),
    "index": dict(db="results_index.sqlite", sources=["runs.jsonl"],
                  inserted=12),
    "compare": dict(db="results_index.sqlite", run_a="a", run_b="b",
                    metrics=6, regressions=0),
}


class TestJournalSchemaRoundTrip:
    """Every EVENT_SCHEMA entry survives an emit -> read -> validate trip."""

    @pytest.mark.parametrize("event", sorted(GOLDEN_EVENTS))
    def test_emit_then_validate(self, tmp_path, event):
        from repro.runner import EVENT_SCHEMA
        assert set(GOLDEN_EVENTS) == set(EVENT_SCHEMA)
        journal = RunJournal(tmp_path / "runs.jsonl")
        journal.event(event, **GOLDEN_EVENTS[event])
        (record,) = read_journal(tmp_path / "runs.jsonl")
        assert record["event"] == event
        assert validate_event(record) == [], record

    @pytest.mark.parametrize("field,payload,problem", [
        ("stats", ["not", "a", "dict"], "not an object"),
        ("stats", {"extra_accesses": "nine"}, "not a number"),
        ("stats", {"ok": True}, "not a number"),
        ("timeline", {"window": 0, "extra_accesses": 1,
                      "by_source": {}}, "positive"),
        ("timeline", {"window": 10, "extra_accesses": 1,
                      "by_source": {"split": "four"}}, "not an int"),
        ("timeline", {"window": 10, "extra_accesses": 1}, "by_source"),
        ("timeline", {"window": 10, "extra_accesses": 1,
                      "by_source": {}, "peak": 3}, "peak"),
        ("sanitizer", {"violations": -1}, "negative"),
        ("sanitizer", {}, "violations"),
        ("sanitizer", 0, "not an object"),
        ("seed", "42", "not an int"),
        ("seed", True, "not an int"),
    ])
    def test_malformed_optional_payloads_rejected(self, field, payload,
                                                  problem):
        record = {"event": "unit_end", "run_id": "r", "ts": 0.0,
                  "unit": "u", "experiment": "e", "key": None,
                  "cached": False, "wall_s": 0.1, "ok": True,
                  field: payload}
        problems = validate_event(record)
        assert any(field in p and problem in p for p in problems), problems

    def test_optional_payloads_may_be_absent(self):
        record = {"event": "unit_end", "run_id": "r", "ts": 0.0,
                  "unit": "u", "experiment": "e", "key": None,
                  "cached": False, "wall_s": 0.1, "ok": True}
        assert validate_event(record) == []


class TestUnitSeed:
    def test_seed_from_params(self):
        unit = _unit(_double, {"x": 1, "seed": 7})
        assert unit.seed() == 7

    def test_seed_from_scale(self):
        unit = _unit(_double, {"x": 1, "scale": TINY})
        assert unit.seed() == TINY.seed

    def test_no_seed(self):
        unit = _unit(_double, {"x": 1})
        assert unit.seed() is None

    def test_bool_is_not_a_seed(self):
        unit = _unit(_double, {"x": 1, "seed": True})
        assert unit.seed() is None

    def test_runner_journals_seed(self, tmp_path):
        journal = RunJournal(tmp_path / "runs.jsonl")
        seeded = replace(TINY, seed=1234)
        units = [_unit(_scaled, {"x": 1, "scale": seeded})]
        Runner(journal=journal).map(units)
        events = read_journal(tmp_path / "runs.jsonl")
        for event in events:
            assert event["seed"] == 1234
            assert validate_event(event) == []


class TestTimingTable:
    def test_table_lists_units_and_totals(self, tmp_path):
        counter = tmp_path / "calls.txt"
        runner = Runner(cache=ResultCache(tmp_path / "cache"))
        units = [_unit(_touch, {"counter_file": str(counter), "x": x},
                       label=str(x)) for x in range(2)]
        runner.map(units)
        runner.map(units)
        text = timing_table(runner.records)
        assert "test/0" in text and "test/1" in text
        assert "4 units, 2 cache hits" in text


class TestCommandLine:
    """``python -m repro.analysis``: subcommand dispatch and run flags."""

    @pytest.mark.parametrize("argv", [["fig2"], [], ["bench"], ["pressure"]])
    def test_missing_or_unknown_subcommand_is_a_usage_error(self, capsys,
                                                            argv):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "run" in err

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"), ("--retries", "-1"), ("--timeout", "0")])
    def test_run_rejects_bad_process_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["run", "--no-journal", "--no-cache",
                           "--filter", "sec7", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["trace", "--system", "bogus"], "--system"),
        (["trace", "--events", "-5"], "--events"),
        (["trace", "--events", "0"], "--events"),
        (["run", "--no-journal", "--no-cache", "--filter", "sec7",
          "--trace-window", "-5"], "--trace-window"),
        (["run", "--no-journal", "--no-cache", "--filter", "sec7",
          "--trace-window", "0"], "--trace-window"),
    ])
    def test_bad_numbers_and_names_are_parser_errors(self, capsys, argv,
                                                     flag):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_resume_before_first_journal_runs(self, tmp_path, capsys,
                                              monkeypatch):
        """A journal that does not exist yet means nothing to resume."""
        monkeypatch.chdir(tmp_path)
        journal = tmp_path / "fresh.jsonl"
        code = analysis_main(["run", "--resume", "--journal", str(journal),
                              "--filter", "sec7", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"resume: no interrupted runs in {journal}" in out
        events = [record["event"] for record in read_journal(journal)]
        assert events[0] == "run_start" and events[-1] == "run_end"
