"""Tests for the experiment harness and runners (small scale)."""

import pytest

from repro.experiments import (
    ALL_RUNNERS,
    ExperimentReport,
    run_fig1_pipeline,
    run_fig3_byproducts,
    run_sec5b_parameters,
    run_thm5_complexity,
    scaled_nodes,
)

SCALE = 0.15  # keep runners quick in unit tests


class TestHarness:
    def test_scaled_nodes(self):
        assert scaled_nodes(1000, 0.5) == 500
        assert scaled_nodes(100, 0.1) == 150  # floor

    def test_scaled_nodes_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            scaled_nodes(1000, 0.0)

    def test_report_table_rendering(self):
        report = ExperimentReport("E-X", "demo")
        report.add_row(a=1, b=2.5, c="x", d=True)
        report.add_note("hello")
        table = report.to_table()
        assert "E-X" in table
        assert "2.500" in table
        assert "yes" in table
        assert "note: hello" in table

    def test_columns_union(self):
        report = ExperimentReport("E-X", "demo")
        report.add_row(a=1)
        report.add_row(b=2)
        assert report.columns() == ["a", "b"]


class TestRunners:
    def test_registry_complete(self):
        assert set(ALL_RUNNERS) == {
            "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "thm5", "sec5b", "baselines", "ablations", "faults", "async",
            "shard",
        }

    def test_fig1_rows(self):
        report = run_fig1_pipeline(scale=SCALE)
        metrics = {row["stage_metric"] for row in report.rows}
        assert {"critical_nodes", "coarse_nodes", "final_nodes"} <= metrics

    def test_fig3_reports_byproducts(self):
        report = run_fig3_byproducts(scale=SCALE)
        metrics = {row["metric"]: row["value"] for row in report.rows}
        assert metrics["segments"] > 0
        assert 0 <= metrics["boundary_precision"] <= 1

    def test_thm5_scaling_notes(self):
        report = run_thm5_complexity(scale=SCALE, sizes=[200, 400])
        assert len(report.rows) == 2
        assert any("broadcasts ~ n^" in note for note in report.notes)

    def test_sec5b_parameter_grid(self):
        report = run_sec5b_parameters(scale=SCALE, values=[3, 4])
        assert [row["k"] for row in report.rows] == [3, 4]
        for row in report.rows:
            assert row["connected"]


class TestShardRunner:
    def test_shard_equivalence_rows(self):
        from repro.experiments import run_shard_equivalence

        report = run_shard_equivalence(scale=SCALE, names=["window"],
                                       grids=["1x1", "2x2"])
        assert [row["grid"] for row in report.rows] == ["1x1", "2x2"]
        assert all(row["identical"] for row in report.rows)
        assert all(row["mismatches"] == 0 for row in report.rows)

    def test_shard_is_a_suite_runner(self):
        from repro.experiments.suite import SUITE_RUNNERS, suite_shards

        assert "shard" in SUITE_RUNNERS
        shards = suite_shards(["shard"])
        assert len(shards) >= 3  # one per default scenario
