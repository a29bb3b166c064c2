"""Run a sharded extraction from the command line.

The scale-out entry point: build a registered mega-field (or a paper
scenario), extract its skeleton through the tiled pipeline, and print the
per-phase wall clocks, tile accounting and stage summary::

    python -m repro.shard --scenario mega_smoke --grid 2x2 --jobs 2 \\
        --cache-dir /tmp/shard_cache --trace-out shard_trace.json

``--compare-monolithic`` additionally runs the single-address-space
pipeline and asserts artifact-for-artifact equivalence (feasible at smoke
scales; the 100k bench relies on the equivalence battery instead).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..cli import repro_import_hint
from ..core import SkeletonParams, extract_skeleton
from ..network import MEGA_SCENARIOS, PAPER_SCENARIOS, get_mega_spec, get_scenario
from ..observability import Tracer, write_chrome_trace
from ..perf import ArtifactCache, effective_jobs
from . import assert_equivalent, run_sharded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Tiled sharded skeleton extraction.",
    )
    parser.add_argument("--scenario", default="mega_smoke",
                        choices=sorted(MEGA_SCENARIOS) + sorted(PAPER_SCENARIOS),
                        help="mega-field or paper scenario (default: mega_smoke)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="node-count override (paper scenarios only)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="mega-field scale factor in (0, 1]")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--grid", default="2x2",
                        help="tile grid, e.g. 2x2 or 4x4 (default: 2x2)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="enable the on-disk artifact cache at this path")
    parser.add_argument("--local-max-hops", type=int, default=None,
                        help="election radius override (default: the "
                             "scenario's recommendation)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write Chrome trace-event JSON of the run here")
    parser.add_argument("--compare-monolithic", action="store_true",
                        help="also run the monolithic pipeline and assert "
                             "bit-identical artifacts")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Fail fast on an unusable worker count (e.g. REPRO_JOBS=abc)
        # with a one-line error instead of a traceback mid-run.
        effective_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.scenario in MEGA_SCENARIOS:
        spec = get_mega_spec(args.scenario)
        if args.scale != 1.0:
            spec = spec.scaled(args.scale)
        network = spec.build(seed=args.seed)
        overrides = {}
        if args.local_max_hops is not None:
            overrides["local_max_hops"] = args.local_max_hops
        params = spec.params(**overrides)
    else:
        network = get_scenario(args.scenario).build(seed=args.seed,
                                                    num_nodes=args.nodes)
        params = SkeletonParams(
            **({"local_max_hops": args.local_max_hops}
               if args.local_max_hops is not None else {}))

    cache = ArtifactCache(disk_dir=args.cache_dir) if args.cache_dir else None
    tracer = Tracer(record_events=bool(args.trace_out))
    try:
        run = run_sharded(network, params, grid=args.grid, jobs=args.jobs,
                          cache=cache, tracer=tracer)
    except ModuleNotFoundError as exc:
        # Spawn-mode pool workers that can't import the src/ layout die
        # with a bare ModuleNotFoundError; translate it to the tier-1
        # PYTHONPATH hint instead of a traceback.
        hint = repro_import_hint(exc)
        if hint is None:
            raise
        print(hint, file=sys.stderr)
        return 2

    gx, gy = run.plan.grid
    print(f"{args.scenario}: n={network.num_nodes} "
          f"avg_degree={network.average_degree:.2f} grid={gx}x{gy} "
          f"jobs={run.jobs}")
    print(f"tiles={run.plan.num_tiles} halo_hops={run.plan.halo_hops} "
          f"halo_width={run.plan.halo_width:.2f} "
          f"replication={run.plan.replication_factor():.2f} "
          f"flood_batches={run.num_flood_batches}")
    for phase, seconds in run.timings.items():
        print(f"  {phase:<14} {seconds:8.2f}s")
    print(f"  {'total':<14} {run.total_seconds:8.2f}s")
    summary = run.result.stage_summary()
    print("stage summary: " + ", ".join(f"{k}={v}" for k, v in summary.items()))
    if cache is not None and cache.stats():
        print(f"artifact cache: hit rate {cache.hit_rate:.2f} "
              f"(per stage: {cache.stats()})")

    if args.compare_monolithic:
        mono = extract_skeleton(network, params)
        assert_equivalent(mono, run.result)
        print("equivalence: sharded output is bit-identical to monolithic")

    if args.trace_out:
        path = write_chrome_trace(tracer, args.trace_out)
        print(f"trace written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
