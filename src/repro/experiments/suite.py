"""The full figure battery as one deterministically-merged parallel run.

:func:`run_figure_suite` decomposes the eleven figure runners into
independent *shards* — one scenario of Fig. 4, one epsilon of Fig. 7, one
whole runner where its rows are coupled (the Fig. 5 stability chain, the
Theorem 5 power-law fit) — fans them over the
:class:`~repro.perf.ParallelRunner`, and merges the shard reports back
into the canonical per-figure reports.  Shards carry sort keys of
``(runner order, shard order)``, so the merged suite is row-for-row
identical to running every runner serially, at any worker count.

An :class:`~repro.perf.ArtifactCache` threads through every shard: in the
serial path directly, in pool workers via the fork-time snapshot or the
shared disk tier, so repeated scenario builds, k-hop tables and Voronoi
floods are computed once per content hash instead of once per runner.

``python -m repro.experiments.suite --scale 0.25 --jobs 2`` is the CI
smoke entry point.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..cli import repro_import_hint
from ..network import FIG7_EPSILONS, FIG8_SCENARIOS
from ..perf import ArtifactCache, ParallelRunner, effective_jobs, \
    set_task_context, task_context
from .figures import (
    FIG4_NAMES,
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
from .harness import ExperimentReport
from .sharding import SHARD_EQ_NAMES, run_shard_equivalence

__all__ = ["run_figure_suite", "suite_shards", "SUITE_RUNNERS"]

#: Canonical runner order of the suite (DESIGN.md §4).
SUITE_RUNNERS = ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                 "thm5", "sec5b", "baselines", "ablations", "shard")

_RUNNER_FNS = {
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
    "shard": run_shard_equivalence,
}


def suite_shards(runners: Sequence[str]) -> List[Tuple[Tuple[int, int], str, Dict]]:
    """The shard list: ``(sort key, runner name, extra kwargs)`` triples.

    Runners whose rows are independent split one shard per row group;
    runners with cross-row coupling (Fig. 5 stability against the first
    row, Theorem 5's fit over all sizes, the ablation table) stay whole.
    """
    plan: Dict[str, List[Dict]] = {
        "fig1": [{}],
        "fig3": [{}],
        "fig4": [{"names": [name]} for name in FIG4_NAMES],
        "fig5": [{}],
        "fig6": [{"names": [name]} for name in ("window", "star")],
        "fig7": [{"epsilons": [eps]} for eps in FIG7_EPSILONS],
        "fig8": [{"names": [name]} for name in FIG8_SCENARIOS],
        "thm5": [{}],
        "sec5b": [{}],
        "baselines": [{"names": [name]} for name in ("window", "one_hole")],
        "ablations": [{}],
        "shard": [{"names": [name]} for name in SHARD_EQ_NAMES],
    }
    shards: List[Tuple[Tuple[int, int], str, Dict]] = []
    for order, runner in enumerate(runners):
        if runner not in plan:
            raise ValueError(f"unknown suite runner {runner!r}; "
                             f"choose from {sorted(plan)}")
        for shard_idx, kwargs in enumerate(plan[runner]):
            shards.append(((order, shard_idx), runner, kwargs))
    return shards


def _suite_task(config: Dict) -> ExperimentReport:
    """One shard — a pure function of its config, executable in any worker."""
    cache, tracer = task_context(config.get("cache_dir"))
    fn = _RUNNER_FNS[config["runner"]]
    return fn(scale=config["scale"], seed=config["seed"],
              cache=cache, tracer=tracer, **config["kwargs"])


def _merge_reports(shards: Sequence[ExperimentReport]) -> ExperimentReport:
    merged = ExperimentReport(shards[0].experiment_id, shards[0].title)
    for shard in shards:
        merged.rows.extend(shard.rows)
        merged.notes.extend(shard.notes)
    return merged


def run_figure_suite(scale: float = 1.0, seed: int = 1,
                     jobs: Optional[int] = None,
                     cache=None, tracer=None,
                     runners: Optional[Sequence[str]] = None,
                     ) -> List[ExperimentReport]:
    """Run the figure battery, one merged report per runner in suite order.

    ``jobs`` (or ``REPRO_JOBS``) sets the worker count; the output is
    bit-identical at every setting because shards merge by sort key, not
    completion order.
    """
    selected = tuple(runners) if runners is not None else SUITE_RUNNERS
    shards = suite_shards(selected)
    cache_dir = (str(cache.disk_dir)
                 if cache is not None and cache.disk_dir is not None else None)
    configs = [
        {"runner": runner, "kwargs": kwargs, "scale": scale, "seed": seed,
         "cache_dir": cache_dir}
        for _, runner, kwargs in shards
    ]
    runner_pool = ParallelRunner(effective_jobs(jobs))
    previous = set_task_context(cache, tracer)
    try:
        results = runner_pool.map(_suite_task, configs)
    finally:
        set_task_context(*previous)
    by_runner: Dict[str, List[ExperimentReport]] = {}
    for (_, runner, _kwargs), report in zip(shards, results):
        by_runner.setdefault(runner, []).append(report)
    return [_merge_reports(by_runner[runner]) for runner in selected]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the full figure suite (optionally in parallel).",
        exit_on_error=False)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="node-count scale in (0, 1]")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="enable the on-disk artifact cache at this path")
    parser.add_argument("--runners", nargs="+", default=None,
                        choices=SUITE_RUNNERS, metavar="RUNNER",
                        help=f"subset of {SUITE_RUNNERS}")
    # Fail fast on bad input (an unknown or empty runner list, a scale
    # outside (0, 1], REPRO_JOBS=abc) with a one-line error instead of a
    # mid-suite traceback or a run of nothing.
    try:
        args = parser.parse_args(argv)
        if not 0 < args.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {args.scale}")
        effective_jobs(args.jobs)
    except (argparse.ArgumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = ArtifactCache(disk_dir=args.cache_dir) if args.cache_dir else \
        ArtifactCache()
    try:
        reports = run_figure_suite(scale=args.scale, seed=args.seed,
                                   jobs=args.jobs, cache=cache,
                                   runners=args.runners)
    except ModuleNotFoundError as exc:
        # Spawn-mode pool workers that can't import the src/ layout die
        # with a bare ModuleNotFoundError; translate it to the tier-1
        # PYTHONPATH hint instead of a traceback.
        hint = repro_import_hint(exc)
        if hint is None:
            raise
        print(hint, file=sys.stderr)
        return 2
    for report in reports:
        report.print()
        print()
    stats = cache.stats()
    if stats:
        print(f"artifact cache: hit rate {cache.hit_rate:.2f} "
              f"(per stage: {stats})")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
