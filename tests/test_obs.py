"""Tests for the observability layer (repro.obs, docs/OBSERVABILITY.md).

Covers the no-op default tracer (zero events, bounded overhead), the
reconciliation invariant between trace events and ControllerStats, the
timeline/digest math, the exporters, the ControllerStats satellites
(hit rate on zero lookups, defensive merge), the histogram percentile
estimates, and the trace CLI end to end.
"""

import json
import time

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.core.stats import ControllerStats
from repro.obs import (
    EVENT_SOURCES,
    NULL_TRACER,
    SOURCES,
    Histogram,
    TraceEvent,
    Tracer,
    build_timeline,
    chrome_trace,
    summary,
    timeline_csv,
    timeline_digest,
)
from repro.simulation.simulator import SimulationConfig, simulate
from repro.workloads.profiles import PROFILES

SIM = SimulationConfig(n_events=1500, scale=0.02, seed=3)


def traced_run(profile="gcc", window=200, sim=SIM):
    tracer = Tracer(digest_window=window)
    result = simulate(PROFILES[profile], "compresso", sim, tracer=tracer)
    return tracer, result


class TestNullTracer:
    def test_is_inert(self):
        NULL_TRACER.tick()
        NULL_TRACER.tick(5)
        NULL_TRACER.emit("repack", page=3, extra=7, anything=True)
        with NULL_TRACER.phase("simulate"):
            pass
        assert NULL_TRACER.clock == 0
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.phase_spans == ()
        assert not NULL_TRACER.enabled

    def test_untraced_simulation_stays_untraced(self):
        result = simulate(PROFILES["gcc"], "compresso", SIM)
        assert result.timeline is None
        assert NULL_TRACER.events == ()

    def test_disabled_overhead_under_five_percent(self):
        """Per-call null-tracer cost x call volume must stay well under
        5% of the simulation's own wall time."""
        tracer, result = traced_run()
        sim_wall = sum(
            duration for name, _s, duration in tracer.phase_spans
            if name == "simulate")
        # Calls the instrumentation makes during the simulate phase:
        # one tick per demand access plus one emit per event.
        calls = tracer.clock + len(tracer.events)

        reps = 200_000
        start = time.perf_counter()
        for _ in range(reps):
            NULL_TRACER.tick()
        per_call = (time.perf_counter() - start) / reps
        assert per_call * calls < 0.05 * sim_wall


class TestReconciliation:
    def test_clock_tracks_demand_accesses(self):
        tracer, result = traced_run()
        assert tracer.clock == result.controller_stats.demand_accesses

    def test_per_source_extras_match_stats(self):
        tracer, result = traced_run()
        stats = result.controller_stats
        by_source = tracer.extra_by_source()
        assert by_source["split"] == stats.split_accesses
        assert by_source["overflow"] == stats.compression_change_accesses
        assert by_source["metadata"] == (
            stats.metadata_miss_accesses + stats.metadata_writebacks)
        assert tracer.total_extra() == stats.extra_accesses

    def test_event_counts_match_stats_counters(self):
        tracer, result = traced_run()
        stats = result.controller_stats
        counts = tracer.counts()
        assert counts.get("repack", 0) == stats.repack_events
        assert counts.get("page_overflow", 0) == stats.page_overflows
        assert counts.get("metadata_miss", 0) == stats.metadata_misses
        assert counts.get("metadata_hit", 0) == stats.metadata_hits
        assert counts.get("line_overflow", 0) == stats.line_overflows
        assert counts.get("line_underflow", 0) == stats.line_underflows
        assert counts.get("zero_line_read", 0) == stats.zero_line_reads
        assert counts.get("ir_expansion", 0) == stats.ir_expansions
        assert counts.get("predictor_inflation", 0) == (
            stats.predictor_inflations)

    def test_timeline_digest_sums_to_extra_accesses(self):
        tracer, result = traced_run()
        stats = result.controller_stats
        digest = result.timeline
        assert digest["extra_accesses"] == stats.extra_accesses
        assert sum(digest["by_source"].values()) == stats.extra_accesses
        assert digest["window"] == 200

    def test_phases_recorded(self):
        tracer, _ = traced_run()
        phases = tracer.phase_seconds()
        assert set(phases) == {"install", "simulate", "flush"}
        assert all(seconds >= 0 for seconds in phases.values())


class TestTimeline:
    def events(self):
        return [
            TraceEvent("split_access", clock=5, extra=2),
            TraceEvent("metadata_miss", clock=12, page=1, extra=1),
            TraceEvent("repack", clock=12, page=1, extra=4),
            TraceEvent("line_overflow", clock=25, page=2),
        ]

    def test_windows_are_contiguous_and_lossless(self):
        windows = build_timeline(self.events(), window=10, end_clock=40)
        assert [w.index for w in windows] == [0, 1, 2, 3]
        assert windows[0].extra_by_source["split"] == 2
        assert windows[1].extra_by_source["metadata"] == 1
        assert windows[1].extra_by_source["overflow"] == 4
        assert windows[2].event_counts == {"line_overflow": 1}
        assert windows[3].total_extra == 0
        assert sum(w.total_extra for w in windows) == 7

    def test_digest_peak(self):
        digest = timeline_digest(self.events(), window=10, end_clock=40)
        assert digest["n_windows"] == 4
        assert digest["events"] == 4
        assert digest["peak"] == {"index": 1, "start_clock": 10, "extra": 5}

    def test_empty_trace(self):
        assert build_timeline([], window=10) == []
        digest = timeline_digest([], window=10)
        assert digest["extra_accesses"] == 0
        assert digest["peak"] is None


class TestExporters:
    def test_chrome_trace_structure(self):
        tracer, _ = traced_run()
        trace = chrome_trace(tracer)
        text = json.dumps(trace)        # must be JSON-serializable
        data = json.loads(text)
        events = data["traceEvents"]
        assert isinstance(events, list) and events
        phases = {event["ph"] for event in events}
        assert {"M", "i", "C", "X"} <= phases
        for event in events:
            assert "ph" in event and "pid" in event
            if event["ph"] in ("i", "C", "X"):
                assert "ts" in event
        counters = [e for e in events if e["ph"] == "C"]
        total = sum(sum(e["args"].values()) for e in counters)
        assert total == tracer.total_extra()

    def test_csv_exports(self):
        tracer, _ = traced_run()
        windows = build_timeline(tracer.events, 200, end_clock=tracer.clock)
        csv = timeline_csv(windows)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("window,start_clock")
        assert len(lines) == len(windows) + 1

    def test_summary_reports_reconciliation(self):
        tracer, result = traced_run()
        report = summary(tracer, stats=result.controller_stats)
        assert "reconciles: True" in report
        assert "busiest windows" in report


class TestControllerStatsSatellites:
    def test_hit_rate_none_on_zero_lookups(self):
        stats = ControllerStats()
        assert stats.metadata_hit_rate() is None
        assert stats.metadata_lookups == 0

    def test_hit_rate_with_traffic(self):
        stats = ControllerStats(metadata_hits=3, metadata_misses=1)
        assert stats.metadata_lookups == 4
        assert stats.metadata_hit_rate() == pytest.approx(0.75)

    def test_uncompressed_run_reports_no_hit_rate(self):
        result = simulate(PROFILES["gcc"], "uncompressed", SIM)
        assert result.metadata_hit_rate is None

    def test_merge_roundtrips_through_as_dict(self):
        a = ControllerStats(demand_reads=5, split_accesses=2,
                            metadata_misses=1)
        b = ControllerStats(demand_reads=7, repack_accesses=3,
                            metadata_misses=2)
        expected = {
            name: a.as_dict()[name] + b.as_dict()[name]
            for name in a.as_dict()
        }
        a.merge(b)
        assert a.as_dict() == expected

    def test_merge_skips_non_integer_fields(self):
        a = ControllerStats(demand_reads=5)
        b = ControllerStats(demand_reads=7)
        b.demand_writes = 1.5          # a derived/corrupted field
        a.merge(b)
        assert a.demand_reads == 12
        assert a.demand_writes == 0    # skipped, not summed into nonsense

    def test_breakdown_sums_to_relative_extra(self):
        _, result = traced_run()
        stats = result.controller_stats
        assert sum(stats.breakdown().values()) == pytest.approx(
            stats.relative_extra_accesses())


class TestMetricRegistry:
    """What obs.metrics keeps: the Histogram behind the stall percentiles."""

    def test_histogram_percentiles(self):
        # Single-valued buckets (8-byte line-size steps): exact.
        histogram = Histogram("h", (0, 8, 16, 24, 32))
        for value, repeats in ((8, 50), (16, 45), (24, 4), (32, 1)):
            for _ in range(repeats):
                histogram.observe(value)
        assert histogram.percentile(50) == 8
        assert histogram.percentile(95) == 16
        assert histogram.percentile(99) == 24
        assert histogram.percentile(100) == 32
        assert histogram.percentile(0) == 0    # lower edge of first bucket

    def test_histogram_percentile_interpolates(self):
        histogram = Histogram("h", (0, 100))
        for _ in range(100):
            histogram.observe(50)    # all in the (0, 100] bucket
        # Interpolation places the median mid-bucket.
        assert histogram.percentile(50) == pytest.approx(50.0)

    def test_histogram_overflow_capped_at_maximum(self):
        histogram = Histogram("h", (8,))
        histogram.observe(4)
        histogram.observe(500)
        assert histogram.maximum == 500
        assert histogram.percentile(99) == 500

    def test_histogram_percentile_edge_cases(self):
        histogram = Histogram("h", (8,))
        assert histogram.percentile(50) == 0.0    # empty
        with pytest.raises(ValueError):
            histogram.percentile(101)
        with pytest.raises(ValueError):
            histogram.percentile(-1)


class TestEventRegistry:
    def test_sources_are_registered(self):
        assert set(EVENT_SOURCES.values()) <= set(SOURCES) | {None}
        for name in ("split_access", "overflow_traffic", "repack",
                     "metadata_miss", "metadata_writeback"):
            assert EVENT_SOURCES[name] is not None


class TestTraceCli:
    def test_trace_command_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        csv = tmp_path / "timeline.csv"
        code = analysis_main([
            "trace", "--filter", "gcc", "--window", "200",
            "--events", "1200", "--out", str(out), "--csv", str(csv),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "reconciles: True" in printed
        data = json.loads(out.read_text())
        assert data["traceEvents"]
        assert csv.read_text().startswith("window,start_clock")

    def test_run_command_journals_timeline(self, cycle_based_unit_ends):
        """``trace_window`` puts a timeline on the ``unit_end`` of every
        cycle-based unit, and it reconciles with the unit's stats.  The
        sweep is shared with test_sanitizer.py (tests/conftest.py)."""
        ends = cycle_based_unit_ends
        assert {record["experiment"] for record in ends} == {
            "fig4", "fig6", "fig7", "fig10", "fig11", "fig12", "tab2",
            "ablation"}
        assert [record["unit"] for record in ends
                if "timeline" not in record] == []
        for record in ends:
            digest = record["timeline"]
            assert digest["window"] == 100
            assert digest["extra_accesses"] == sum(
                digest["by_source"].values())
            assert (digest["extra_accesses"]
                    == record["stats"]["extra_accesses"]), record["unit"]
