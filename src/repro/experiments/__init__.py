"""Experiment runners reproducing the paper's evaluation (see DESIGN.md §4)."""

from .harness import ExperimentReport, scaled_nodes
from .faults import run_fault_degradation
from .async_jitter import run_async_jitter
from .sharding import run_shard_equivalence
from .suite import SUITE_RUNNERS, run_figure_suite
from .figures import (
    run_ablations,
    run_baseline_comparison,
    run_fig1_pipeline,
    run_fig3_byproducts,
    run_fig4_scenarios,
    run_fig5_density,
    run_fig6_qudg,
    run_fig7_lognormal,
    run_fig8_skewed,
    run_sec5b_parameters,
    run_thm5_complexity,
)

ALL_RUNNERS = {
    "fig1": run_fig1_pipeline,
    "fig3": run_fig3_byproducts,
    "fig4": run_fig4_scenarios,
    "fig5": run_fig5_density,
    "fig6": run_fig6_qudg,
    "fig7": run_fig7_lognormal,
    "fig8": run_fig8_skewed,
    "thm5": run_thm5_complexity,
    "sec5b": run_sec5b_parameters,
    "baselines": run_baseline_comparison,
    "ablations": run_ablations,
    "faults": run_fault_degradation,
    "async": run_async_jitter,
    "shard": run_shard_equivalence,
}

__all__ = [
    "ExperimentReport",
    "scaled_nodes",
    "ALL_RUNNERS",
    "SUITE_RUNNERS",
    "run_figure_suite",
    "run_fig1_pipeline",
    "run_fig3_byproducts",
    "run_fig4_scenarios",
    "run_fig5_density",
    "run_fig6_qudg",
    "run_fig7_lognormal",
    "run_fig8_skewed",
    "run_thm5_complexity",
    "run_sec5b_parameters",
    "run_baseline_comparison",
    "run_ablations",
    "run_fault_degradation",
    "run_async_jitter",
    "run_shard_equivalence",
]
