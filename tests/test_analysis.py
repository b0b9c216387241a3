"""Tests for the experiment harness and rendering."""

import pytest

from repro.analysis import (
    ExperimentScale,
    arithmetic_mean,
    geometric_mean,
    render,
    run_fig2,
    run_sec7_energy_area,
)
from repro.analysis.report import ExperimentResult

TINY = ExperimentScale(n_events=400, scale=0.02, capacity_touches=2000,
                       capacity_footprint_cap=60, fig2_pages=10,
                       benchmarks=("gcc", "mcf"), mixes=("mix2",))


class TestReport:
    def test_render_basic(self):
        columns = ["name", "value", "lcp+align:overall"]   # 17 characters
        result = ExperimentResult(
            experiment_id="x", title="demo", columns=columns)
        result.add_row(name="a", value=1.5, **{"lcp+align:overall": 0.25})
        result.add_row(name="metadata_cache_area_um2", value=100000.0,
                       **{"lcp+align:overall": 0.5})
        result.summary["mean"] = 1.5
        result.summary["compresso cycle mean"] = 0.77       # 20 characters
        result.paper_values["expected"] = "about 1.5"
        text = render(result)
        assert "demo" in text
        assert "1.500" in text
        assert "about 1.5" in text
        lines = text.splitlines()
        header = lines[1]
        assert header.split() == columns
        # Every row value sits right-aligned under its header.
        assert [len(row) for row in lines[3:5]] == [len(header)] * 2
        assert lines[3].split() == ["a", "1.500", "0.250"]
        assert lines[4].split() == ["metadata_cache_area_um2", "100000.000",
                                    "0.500"]
        summary = next(line for line in lines
                       if line.startswith("compresso cycle mean"))
        assert summary.split() == ["compresso", "cycle", "mean", "0.770"]

    def test_column_values_skips_non_numeric(self):
        result = ExperimentResult("x", "t", ["name", "v"])
        result.add_row(name="a", v=2.0)
        result.add_row(name="b", v="n/a")
        assert result.column_values("v") == [2.0]

    def test_means(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert arithmetic_mean([1.0, 3.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert arithmetic_mean([]) == 0.0


class TestRunners:
    def test_fig2_structure(self):
        result = run_fig2(TINY)
        assert result.experiment_id == "fig2"
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["bpc+linepack"] >= 1.0
            # LinePack never loses to LCP packing on the same data.
            assert row["bpc+linepack"] >= row["bpc+lcp"] - 0.05

    def test_sec7_values(self):
        result = run_sec7_energy_area()
        values = {row["quantity"]: row["value"] for row in result.rows}
        assert values["adder_visible_cycles"] == 1.0
        assert values["bpc_area_um2"] == 43000.0

    def test_scale_presets_distinct(self):
        from repro.analysis import DEFAULT, FULL, QUICK
        assert QUICK.n_events < DEFAULT.n_events < FULL.n_events
        assert len(QUICK.benchmarks) < len(DEFAULT.benchmarks)


class TestClaims:
    """The paper-claim table and the gate ``run`` applies with it."""

    SEC7 = ["run", "--no-journal", "--no-cache", "--filter", "sec7"]

    def test_table_shape(self):
        from repro.analysis.__main__ import RUNNERS
        from repro.analysis.claims import CLAIMS
        assert len(CLAIMS) == 30
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(set(ids)) == len(ids)
        assert {claim.experiment for claim in CLAIMS} <= set(RUNNERS)

    def test_run_reports_holding_claims(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.analysis.__main__ import main
        monkeypatch.chdir(tmp_path)
        assert main(self.SEC7) == 0
        assert "claims: 5/5 hold" in capsys.readouterr().out

    def test_run_fails_on_flipped_claim(self, tmp_path, monkeypatch,
                                        capsys):
        import repro.analysis.__main__ as cli

        def flipped_sec7(runner=None):
            result = run_sec7_energy_area(runner=runner)
            for row in result.rows:
                if row["quantity"] == "adder_visible_cycles":
                    row["value"] = 2
            return result

        monkeypatch.setitem(cli.RUNNERS, "sec7", flipped_sec7)
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.SEC7) == 1
        out = capsys.readouterr().out
        assert "claims: 4/5 hold" in out
        assert "claim flipped: sec7.adder-visible-cycles" in out
