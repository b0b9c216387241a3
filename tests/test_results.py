"""Tests for the cross-run results index, stats and compare gate.

Covers the docs/RESULTS.md contract: idempotent SQLite ingestion of
journals, the dependency-free statistics
against known distributions, and the ``analysis compare`` exit-code
gate — including the tier-1 smoke check (fixture-journal ingest plus
self-compare) the acceptance criteria call for.
"""

import json
import math

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.results import (
    Comparison,
    METRIC_DIRECTIONS,
    ResultsIndex,
    compare_runs,
    flatten_metrics,
    mean,
    metric_direction,
    min_achievable_p,
    permutation_test,
    render_comparison,
    significance,
    stddev,
)
from repro.runner import RunJournal

#: Two clearly separated samples (used by every significance test).
LOW = [10.0, 10.5, 9.5, 10.2, 9.8]
HIGH = [20.0, 20.5, 19.5, 20.2, 19.8]


def _write_journal(path, run_id, ratios, extra=100, experiment="fig4",
                   unit="fig4/gcc", base_seed=42):
    """Journal one multi-seed run; ``ratios[i]`` is seed i's ratio."""
    journal = RunJournal(path, run_id=run_id)
    journal.event("run_start", jobs=1, cache_enabled=True,
                  seeds=len(ratios), base_seed=base_seed)
    for offset, ratio in enumerate(ratios):
        seed = base_seed + offset
        journal.event("unit_start", unit=unit, experiment=experiment,
                      key=f"k{offset}", cached=False, seed=seed)
        journal.event("unit_end", unit=unit, experiment=experiment,
                      key=f"k{offset}", cached=False, wall_s=0.1,
                      ok=True, seed=seed,
                      stats={"compression_ratio": ratio,
                             "extra_accesses": extra + offset},
                      sanitizer={"violations": 0})
    journal.event("run_end", wall_s=1.0, units=len(ratios), cache_hits=0)
    return path


# ---------------------------------------------------------------------------
# statistics vs known distributions
# ---------------------------------------------------------------------------

class TestStats:
    def test_moments(self):
        assert mean([1, 2, 3, 4]) == 2.5
        assert mean([]) == 0.0
        assert stddev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(
            math.sqrt(32 / 7))
        assert stddev([5]) == 0.0

    def test_permutation_exact_separated(self):
        # n=5+5 <= 12 -> exact: only the observed split (and mirror)
        # reaches the observed difference, p = 2/C(10,5).
        p = permutation_test(LOW, HIGH)
        assert p == pytest.approx(2 / 252)

    def test_permutation_identical_groups(self):
        assert permutation_test([3.0, 3.0, 3.0], [3.0, 3.0, 3.0]) == 1.0
        assert permutation_test([1.0], [2.0, 3.0]) == 1.0

    def test_permutation_sampled_path(self):
        # 7+7 > 12 -> seeded Monte-Carlo; deterministic and small.
        a, b = LOW + [10.1, 9.9], HIGH + [20.1, 19.9]
        p1 = permutation_test(a, b, n_resamples=500, seed=3)
        p2 = permutation_test(a, b, n_resamples=500, seed=3)
        assert p1 == p2
        assert p1 <= 0.01               # +1/+1-corrected floor
        assert p1 >= 1 / 501

    def test_min_achievable_p_floor(self):
        assert min_achievable_p(1, 5) == 1.0
        assert min_achievable_p(5, 0) == 1.0
        assert min_achievable_p(2, 2) == pytest.approx(2 / 6)
        assert min_achievable_p(3, 3) == pytest.approx(2 / 20)
        assert min_achievable_p(5, 5) == pytest.approx(2 / 252)
        # The exact permutation test actually attains the floor.
        assert permutation_test([1.0, 1.1], [9.0, 9.1]) == \
            pytest.approx(min_achievable_p(2, 2))

    def test_significance_verdicts(self):
        verdict = significance(LOW, HIGH)
        assert verdict.significant and verdict.test == "permutation"
        assert verdict.diff == pytest.approx(10.0, abs=0.2)
        assert verdict.relative == pytest.approx(1.0, abs=0.05)
        single = significance([1.0], [2.0])
        assert not single.significant and single.test == "none"
        assert single.p_value == 1.0


# ---------------------------------------------------------------------------
# index: ingestion, idempotency, queries
# ---------------------------------------------------------------------------

class TestIndex:
    def test_flatten_metrics(self):
        digest = {"a": 1, "b": 2.5, "skip": True, "null": None,
                  "nested": {"x": 3}, "text": "no"}
        assert dict(flatten_metrics(digest)) == {
            "a": 1.0, "b": 2.5, "nested.x": 3.0}

    def test_journal_ingest_and_reingest_is_idempotent(self, tmp_path):
        journal = _write_journal(tmp_path / "runs.jsonl", "runone00",
                                 [1.5, 1.51, 1.52])
        with ResultsIndex(tmp_path / "idx.sqlite") as index:
            first = index.ingest_journal(journal)
            assert first["runs"] == 1
            assert first["units"] == 3
            assert first["metrics"] == 9   # 3 seeds x (2 stats + violations)
            assert first["skipped"] == 0
            second = index.ingest_journal(journal)
            assert {k: v for k, v in second.items() if k != "skipped"} \
                == {"runs": 0, "units": 0, "metrics": 0}

    def test_invalid_records_are_skipped_not_half_ingested(self, tmp_path):
        path = _write_journal(tmp_path / "runs.jsonl", "runone00", [1.5])
        with path.open("a") as handle:
            handle.write(json.dumps({"event": "unit_end",
                                     "run_id": "runone00", "ts": 1.0,
                                     "unit": "bad", "experiment": "e",
                                     "key": None, "cached": False,
                                     "wall_s": 0.1, "ok": True,
                                     "stats": {"x": "not a number"}})
                         + "\n")
            handle.write("{torn line\n")
        with ResultsIndex(tmp_path / "idx.sqlite") as index:
            inserted = index.ingest_journal(path)
            assert inserted["skipped"] == 1
            assert [u["unit"] for u in index.units_for("runone00")] \
                == ["fig4/gcc"]

    def test_run_row_merges_start_and_end(self, tmp_path):
        journal = _write_journal(tmp_path / "runs.jsonl", "runone00",
                                 [1.5, 1.6])
        with ResultsIndex(tmp_path / "idx.sqlite") as index:
            index.ingest_journal(journal)
            (row,) = index.runs()
            assert row["seeds"] == 2 and row["base_seed"] == 42
            assert row["units"] == 2 and row["finished"] is not None

    def test_resolve_run_prefix(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        _write_journal(journal, "abcdef000001", [1.5])
        _write_journal(journal, "abzzzz000002", [1.5])
        with ResultsIndex(tmp_path / "idx.sqlite") as index:
            index.ingest_journal(journal)
            assert index.resolve_run("abc") == "abcdef000001"
            with pytest.raises(KeyError, match="ambiguous"):
                index.resolve_run("ab")
            with pytest.raises(KeyError, match="no indexed run"):
                index.resolve_run("zzz")

    def test_metric_samples_grouped_across_seeds(self, tmp_path):
        journal = _write_journal(tmp_path / "runs.jsonl", "runone00",
                                 [1.5, 1.6, 1.7])
        with ResultsIndex(tmp_path / "idx.sqlite") as index:
            index.ingest_journal(journal)
            samples = index.metric_samples("runone00")
            assert samples[("fig4/gcc", "compression_ratio")] \
                == [1.5, 1.6, 1.7]
            only = index.metric_samples("runone00",
                                        ["compression_ratio"])
            assert set(only) == {("fig4/gcc", "compression_ratio")}


# ---------------------------------------------------------------------------
# compare: directions, verdicts, gate
# ---------------------------------------------------------------------------

class TestCompare:
    def _indexed(self, tmp_path, a_ratios, b_ratios, **kwargs):
        journal = tmp_path / "runs.jsonl"
        _write_journal(journal, "baseline0001", a_ratios)
        _write_journal(journal, "candidate001", b_ratios, **kwargs)
        index = ResultsIndex(tmp_path / "idx.sqlite")
        index.ingest_journal(journal)
        return index

    def test_directions(self):
        assert metric_direction("compression_ratio") == "higher"
        assert metric_direction("extra_accesses") == "lower"
        assert metric_direction("timeline.by_source.split") == "lower"
        assert metric_direction("wall_s") is None
        assert set(METRIC_DIRECTIONS.values()) == {"higher", "lower"}

    def test_significant_drop_is_a_regression(self, tmp_path):
        with self._indexed(tmp_path, [1.50, 1.51, 1.52, 1.53, 1.54],
                           [1.20, 1.21, 1.22, 1.23, 1.24]) as index:
            comparison = compare_runs(index, "baseline", "candidate")
            regressed = {v.metric for v in comparison.regressions}
            assert "compression_ratio" in regressed
            text = render_comparison(comparison)
            assert "REGRESSION" in text

    def test_self_compare_is_clean(self, tmp_path):
        with self._indexed(tmp_path, [1.5, 1.51, 1.52],
                           [1.5, 1.51, 1.52]) as index:
            comparison = compare_runs(index, "baseline", "baseline")
            assert comparison.regressions == []
            assert "VERDICT: ok" in render_comparison(comparison)

    def test_improvement_direction(self, tmp_path):
        with self._indexed(tmp_path, [1.20, 1.21, 1.22, 1.23, 1.24],
                           [1.50, 1.51, 1.52, 1.53, 1.54]) as index:
            comparison = compare_runs(index, "baseline", "candidate")
            assert comparison.regressions == []
            improved = {v.metric for v in comparison.improvements}
            assert "compression_ratio" in improved

    def test_small_drift_below_min_effect_passes(self, tmp_path):
        # Statistically clean separation but only ~0.3% relative.
        with self._indexed(tmp_path,
                           [1.5000, 1.5001, 1.5002, 1.5003, 1.5004],
                           [1.4950, 1.4951, 1.4952, 1.4953, 1.4954]
                           ) as index:
            comparison = compare_runs(index, "baseline", "candidate",
                                      min_effect=0.01)
            assert comparison.regressions == []

    def test_single_seed_threshold_fallback(self, tmp_path):
        with self._indexed(tmp_path, [1.5], [1.2]) as index:
            comparison = compare_runs(index, "baseline", "candidate")
            (verdict,) = [v for v in comparison.regressions
                          if v.metric == "compression_ratio"]
            assert verdict.stats.test == "threshold"
            small = compare_runs(index, "baseline", "candidate",
                                 single_sample_effect=0.5)
            assert not any(v.metric == "compression_ratio"
                           for v in small.regressions)

    def test_powerless_two_seed_gate_falls_back_to_threshold(
            self, tmp_path):
        # At 2 seeds/side the exact permutation floor is 0.333 > alpha,
        # so a 20% drop must gate via the threshold fallback, not pass
        # as "worse (n.s.)".
        with self._indexed(tmp_path, [1.50, 1.51],
                           [1.20, 1.21]) as index:
            comparison = compare_runs(index, "baseline", "candidate")
            (verdict,) = [v for v in comparison.regressions
                          if v.metric == "compression_ratio"]
            assert verdict.stats.test == "threshold"

    def test_powerless_gate_small_drift_still_passes(self, tmp_path):
        # Same powerless seed count, but drift below the
        # single-sample threshold: no regression.
        with self._indexed(tmp_path, [1.500, 1.510],
                           [1.470, 1.480]) as index:
            comparison = compare_runs(index, "baseline", "candidate")
            assert not any(v.metric == "compression_ratio"
                           for v in comparison.regressions)

    def test_disjoint_metrics_reported_not_gated(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        _write_journal(journal, "baseline0001", [1.5, 1.6],
                       unit="fig4/gcc")
        _write_journal(journal, "candidate001", [1.5, 1.6],
                       unit="fig4/mcf")
        with ResultsIndex(tmp_path / "idx.sqlite") as index:
            index.ingest_journal(journal)
            comparison = compare_runs(index, "baseline", "candidate")
            assert comparison.verdicts == []
            assert comparison.only_in_a and comparison.only_in_b
            assert isinstance(comparison, Comparison)


# ---------------------------------------------------------------------------
# CLI: exit codes, journaling, tier-1 smoke check
# ---------------------------------------------------------------------------

class TestCli:
    def _populate(self, tmp_path, monkeypatch, b_ratios):
        monkeypatch.chdir(tmp_path)
        journal = tmp_path / "runs.jsonl"
        _write_journal(journal, "baseline0001",
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        _write_journal(journal, "candidate001", b_ratios)
        assert analysis_main(["index"]) == 0

    def test_smoke_ingest_idempotent_and_self_compare_clean(
            self, tmp_path, monkeypatch, capsys):
        """The tier-1 smoke check: the fixture journal ingests
        twice (second pass inserts nothing), and a run compared
        against itself reports no regressions."""
        self._populate(tmp_path, monkeypatch,
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        capsys.readouterr()
        # Second ingest: idempotent even though the first `index` run
        # appended its own `index` event to the journal.
        assert analysis_main(["index"]) == 0
        out = capsys.readouterr().out
        assert "0 new row(s)" in out
        assert analysis_main(
            ["compare", "baseline0001", "baseline0001"]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out and "VERDICT: ok" in out
        # Two distinct same-config runs are also self-consistent.
        assert analysis_main(
            ["compare", "baseline0001", "candidate001"]) == 0
        assert "VERDICT: ok" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_seeded_regression(
            self, tmp_path, monkeypatch, capsys):
        self._populate(tmp_path, monkeypatch,
                       [1.20, 1.21, 1.22, 1.23, 1.24])
        assert analysis_main(["compare", "baseline", "candidate"]) == 1
        out = capsys.readouterr().out
        assert "VERDICT: REGRESSION" in out
        # The comparison itself was journaled as a typed event.
        from repro.runner import read_journal, validate_event
        events = [e for e in read_journal(tmp_path / "runs.jsonl")
                  if e["event"] == "compare"]
        assert events and events[-1]["regressions"] >= 1
        assert validate_event(events[-1]) == []

    def test_index_event_journaled(self, tmp_path, monkeypatch):
        self._populate(tmp_path, monkeypatch,
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        from repro.runner import read_journal, validate_event
        events = [e for e in read_journal(tmp_path / "runs.jsonl")
                  if e["event"] == "index"]
        assert events and events[-1]["inserted"] > 0
        assert validate_event(events[-1]) == []

    def test_index_runs_listing(self, tmp_path, monkeypatch, capsys):
        self._populate(tmp_path, monkeypatch,
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        capsys.readouterr()
        assert analysis_main(["index", "--runs"]) == 0
        out = capsys.readouterr().out
        assert "baseline0001" in out and "candidate001" in out

    def test_index_rebuild(self, tmp_path, monkeypatch, capsys):
        self._populate(tmp_path, monkeypatch,
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        capsys.readouterr()
        assert analysis_main(["index", "--rebuild", "--no-journal"]) == 0
        out = capsys.readouterr().out
        assert "0 new row(s)" not in out    # fresh database, real inserts

    def test_compare_unknown_run_errors(self, tmp_path, monkeypatch,
                                        capsys):
        self._populate(tmp_path, monkeypatch,
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["compare", "nosuchrun", "baseline"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["index", "--metrics", "nosuchrun"], "no indexed run matches"),
        (["index", "--metrics", "c", "--db", "missing.sqlite"],
         "no index database at missing.sqlite"),
        (["index", "--runs", "--db", "missing.sqlite"],
         "no index database at missing.sqlite"),
    ])
    def test_index_listing_errors_are_usage_errors(
            self, tmp_path, monkeypatch, capsys, argv, message):
        """An unknown run or a missing database is a one-line usage
        error, and listing never creates a database file."""
        self._populate(tmp_path, monkeypatch,
                       [1.50, 1.51, 1.52, 1.53, 1.54])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "missing.sqlite").exists()

    def test_runner_seeds_flag_fans_out(self, tmp_path, monkeypatch,
                                        capsys):
        """`run --seeds N` journals N seeded unit_end events per cell
        and the index groups them into one N-sample metric group."""
        import repro.analysis.__main__ as cli
        from repro.analysis import ExperimentScale
        tiny = ExperimentScale(n_events=400, scale=0.02,
                               capacity_touches=2000,
                               capacity_footprint_cap=60, fig2_pages=6,
                               benchmarks=("gcc",), mixes=("mix2",))
        monkeypatch.setitem(cli.SCALES, "quick", tiny)
        monkeypatch.chdir(tmp_path)
        assert analysis_main(
            ["run", "--seeds", "2", "--filter", "fig4", "--scale",
             "quick", "--no-cache", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert analysis_main(["index", "--no-journal"]) == 0
        with ResultsIndex(tmp_path / "results_index.sqlite") as index:
            (row,) = index.runs()
            assert row["seeds"] == 2 and row["base_seed"] == tiny.seed
            samples = index.metric_samples(row["run_id"])
            ratio_groups = {k: v for k, v in samples.items()
                            if k[1] == "compression_ratio"}
            assert ratio_groups
            assert all(len(v) == 2 for v in ratio_groups.values())
