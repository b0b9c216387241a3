"""Tests for the analytic core model."""

import pytest

from repro.cpu import AnalyticCore


class TestAnalyticCore:
    def test_compute_time_uses_cpi(self):
        core = AnalyticCore(cpi=0.5)
        core.advance_instructions(1000)
        assert core.now == 500
        assert core.stats.instructions == 1000

    def test_cpi_floor_is_issue_width(self):
        core = AnalyticCore(cpi=0.01)
        core.advance_instructions(400)
        assert core.now == 100  # capped at 4 IPC

    def test_stall_divided_by_mlp(self):
        core = AnalyticCore(mlp=2.0)
        core.stall(100)
        assert core.now == 50
        assert core.stats.stall_cycles == 50

    def test_ipc(self):
        core = AnalyticCore(mlp=1.0, cpi=1.0)
        core.advance_instructions(100)
        core.stall(100)
        assert core.stats.ipc() == pytest.approx(0.5)

    def test_seconds(self):
        core = AnalyticCore(cpi=1.0)
        core.advance_instructions(3_000_000)
        assert core.seconds() == pytest.approx(1e-3)

    def test_invalid_mlp(self):
        with pytest.raises(ValueError):
            AnalyticCore(mlp=0)

    def test_negative_inputs_rejected(self):
        core = AnalyticCore()
        with pytest.raises(ValueError):
            core.advance_instructions(-1)
        with pytest.raises(ValueError):
            core.stall(-1)
