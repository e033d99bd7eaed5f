"""Tests for the self-contained drivers: Fig 3 (stability), Fig 10 (real
system) and Fig 11 (case study). These run their own small campaigns.

Each rendered report must match the one captured from the seed serial
drivers (``reports.studies`` in the golden file)."""

import json
from pathlib import Path

import pytest

from repro.config import scaled_config, xeon_config
from repro.experiments import fig3, fig10, fig11
from repro.sim import ExperimentScale

SMALL = ExperimentScale(warmup_instructions=1_000, sim_instructions=4_000,
                        sample_interval=1_000)
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "golden"
                     / "golden_traces.json").read_text())
STUDY_REPORTS = GOLDEN["reports"]["studies"]


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, config):
        return fig3.run_fig3(["435.gromacs", "470.lbm"], config, SMALL,
                             p_values=(0.1, 0.5), n_repeats=3)

    def test_structure(self, result):
        assert set(result.per_benchmark) == {"435.gromacs", "470.lbm"}
        assert set(result.per_config) == {0.1, 0.5}
        assert result.n_repeats == 3

    def test_spreads_non_negative(self, result):
        for by_metric in result.per_benchmark.values():
            for values in by_metric.values():
                assert all(v >= 0 for v in values)

    def test_stability_shape(self, result):
        """PInTE re-runs must be stable: normalised std dev well under 1."""
        assert result.worst("ipc") < 0.5
        assert result.worst("miss_rate") < 0.5

    def test_medians_accessible(self, result):
        assert result.benchmark_median("470.lbm", "ipc") >= 0
        assert result.config_median(0.5, "miss_rate") >= 0

    def test_needs_two_repeats(self, config):
        with pytest.raises(ValueError):
            fig3.run_fig3(["435.gromacs"], config, SMALL, n_repeats=1)

    def test_report_renders(self, result):
        text = fig3.format_report(result)
        assert "Fig 3" in text

    def test_report_matches_golden(self, result):
        assert fig3.format_report(result) == STUDY_REPORTS["fig3"]


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run_fig10(
            names=("619.lbm", "648.exchange2"),
            config=xeon_config(),
            scale=SMALL,
            p_values=(0.05, 0.5, 1.0),
            panel_size=1,
        )

    def test_points_per_benchmark(self, result):
        assert set(result.real_points) == {"619.lbm", "648.exchange2"}
        assert all(len(points) == 3 for points in result.pinte_points.values())

    def test_allocation_fraction(self, result):
        assert result.allocation_fraction == pytest.approx(14 / 16)

    def test_occupancy_proxy_non_positive_under_contention(self, result):
        """Eq. 6 measures loss from expected capacity; under a co-runner the
        LLC-bound workload cannot exceed its allocation for long."""
        lbm_points = result.real_points["619.lbm"]
        assert all(point.x <= 20.0 for point in lbm_points)

    def test_ipc_changes_are_relative_to_best(self, result):
        for points in result.pinte_points.values():
            assert max(point.ipc_change_percent for point in points) == \
                pytest.approx(0.0)

    def test_sensitive_vs_insensitive_shape(self, result):
        """lbm loses performance under PInTE; exchange2 does not."""
        assert result.max_loss("619.lbm", "pinte") < -5.0
        assert result.max_loss("648.exchange2", "pinte") > -5.0

    def test_report_renders(self, result):
        assert "Fig 10" in fig10.format_report(result)

    def test_report_matches_golden(self, result):
        assert fig10.format_report(result) == STUDY_REPORTS["fig10"]


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self, config):
        return fig11.run_fig11(
            config, SMALL,
            workloads=("450.soplex", "470.lbm"),
            p_values=(0.0, 0.5),
            dimensions=[d for d in fig11.DIMENSIONS
                        if d.name in ("replacement", "branching")],
        )

    def test_dimensions_present(self, result):
        assert set(result.sweeps) == {"replacement", "branching"}

    def test_win_shares_sum_to_one(self, result):
        for sweep in result.sweeps.values():
            for p in result.p_values:
                assert sum(sweep.win_share[p].values()) == pytest.approx(1.0)

    def test_tie_share_in_unit_range(self, result):
        for sweep in result.sweeps.values():
            for p in result.p_values:
                assert 0.0 <= sweep.tie_share[p] <= 1.0

    def test_metrics_recorded(self, result):
        sweep = result.sweeps["replacement"]
        for p in result.p_values:
            assert set(sweep.primary[p]) == set(sweep.options)
            assert set(sweep.secondary[p]) == set(sweep.options)

    def test_winner_is_an_option(self, result):
        sweep = result.sweeps["branching"]
        for p in result.p_values:
            assert sweep.winner(p) in sweep.options

    def test_report_renders(self, result):
        text = fig11.format_report(result)
        assert "replacement" in text and "branching" in text

    def test_report_matches_golden(self, result):
        assert fig11.format_report(result) == STUDY_REPORTS["fig11"]
