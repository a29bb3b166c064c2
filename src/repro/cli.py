"""The command line: ``python -m repro <command>``.

Four subcommands share one parser and one error path:

* ``suite`` — the figure battery as one merged, optionally parallel run
  (:func:`repro.experiments.suite.run_figure_suite`)::

      python -m repro suite --scale 0.25 --jobs 2 --cache-dir /tmp/c

* ``trace`` — the distributed pipeline with a tracer attached: prints the
  ASCII per-phase summary and optionally writes a Perfetto-loadable
  Chrome trace::

      python -m repro trace --scenario window --nodes 400 --out trace.json

* ``fsck`` — verify the integrity digest of every on-disk artifact-cache
  entry, quarantining (or with ``--dry-run`` just reporting) failures.
  Exit status 0 when the store is clean, 1 when corruption was found::

      python -m repro fsck /tmp/repro_cache --deep

* ``shard`` — a tiled sharded extraction of a mega-field or paper
  scenario, with per-phase wall clocks; ``--compare-monolithic`` also
  runs the monolithic pipeline and asserts bit-identical artifacts::

      python -m repro shard --scenario mega_smoke --grid 2x2 --jobs 2

Each subcommand builds all of its inputs (params, grid, scaled spec,
worker count, latency model, fault plan) before any network, then runs.
Bad input — any argparse error, or a ``ValueError`` while the inputs are
built — is one ``error: ...`` line on stderr and exit status 2, never a
traceback halfway into a sweep.  Errors during the run itself propagate.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Optional, Sequence

from .core import SkeletonParams, extract_skeleton, extract_skeleton_distributed
from .experiments.suite import SUITE_RUNNERS, run_figure_suite
from .network import MEGA_SCENARIOS, PAPER_SCENARIOS, get_mega_spec, get_scenario
from .observability import Tracer, write_chrome_trace
from .perf import ArtifactCache, effective_jobs
from .runtime import FaultPlan, LatencyModel, RetryPolicy
from .shard import assert_equivalent, parse_grid, run_sharded
from .viz import render_trace_summary

#: The one-line recovery hint printed when a worker process (or a
#: late import) raises ``ModuleNotFoundError: repro``.  The usual cause
#: is a spawn-mode pool worker started without the repo's src-layout on
#: ``sys.path`` — the tier-1 convention fixes it.
TIER1_HINT = (
    "error: cannot import 'repro' in a worker process; the repo uses a "
    "src/ layout, so run with PYTHONPATH=src (tier-1 convention: "
    "PYTHONPATH=src python -m ...)"
)

#: A subcommand's prepared run: every input is built, only work remains.
Run = Callable[[], int]


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``ValueError`` so :func:`main` has one
    error path for bad flags and bad values alike."""

    def error(self, message):
        raise ValueError(message)


def _check_scale(scale: float) -> None:
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")


def _print_cache_stats(cache: Optional[ArtifactCache], jobs: int) -> None:
    if cache is None:
        return
    if jobs > 1:
        # Forked pool workers count hits and misses in their own copies
        # of the cache; this process's counters never see them.
        print(f"artifact cache: hit rate unmeasured ({jobs} worker "
              f"processes keep their own counters)")
        return
    stats = cache.stats()
    if stats:
        print(f"artifact cache: hit rate {cache.hit_rate:.2f} "
              f"(per stage: {stats})")


def _suite(args: argparse.Namespace) -> Run:
    _check_scale(args.scale)
    jobs = effective_jobs(args.jobs)
    cache = ArtifactCache(disk_dir=args.cache_dir or None)

    def run() -> int:
        reports = run_figure_suite(scale=args.scale, seed=args.seed,
                                   jobs=args.jobs, cache=cache,
                                   runners=args.runners)
        for report in reports:
            report.print()
            print()
        _print_cache_stats(cache, jobs)
        return 0

    return run


def _trace(args: argparse.Namespace) -> Run:
    if args.nodes < 1:
        raise ValueError(f"--nodes must be >= 1, got {args.nodes}")
    if not 0 <= args.drop < 1:
        raise ValueError(f"--drop must be in [0, 1), got {args.drop}")
    if not (math.isfinite(args.jitter) and args.jitter >= 0):
        raise ValueError(
            f"--jitter must be a finite number >= 0, got {args.jitter}")
    if args.jitter > 0 and args.scheduler == "sync":
        raise ValueError("--jitter applies to --scheduler async only")
    if args.no_events and args.out:
        raise ValueError(
            "--no-events records no events, so --out has nothing to write")
    latency = (LatencyModel.uniform_jitter(args.jitter)
               if args.jitter > 0 else None)
    fault_plan = (FaultPlan(seed=7, drop_probability=args.drop)
                  if args.drop > 0 else None)
    retry_policy = RetryPolicy(max_retries=3) if args.drop > 0 else None

    def run() -> int:
        network = get_scenario(args.scenario).build(seed=args.seed,
                                                    num_nodes=args.nodes)
        tracer = Tracer(record_events=not args.no_events)
        result = extract_skeleton_distributed(
            network,
            scheduler=args.scheduler,
            latency=latency,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            tracer=tracer,
            deadline_action="return_partial",
        )
        print(f"{args.scenario}: n={network.num_nodes} "
              f"avg_degree={network.average_degree:.2f} "
              f"scheduler={args.scheduler}")
        print(render_trace_summary(tracer.metrics()))
        print(f"run: {result.run_stats.summary()}")
        print(f"skeleton: {len(result.skeleton.nodes)} nodes, "
              f"{result.final_cycle_rank()} cycles, "
              f"{len(result.critical_nodes)} sites")
        if args.out:
            path = write_chrome_trace(tracer, args.out)
            print(f"trace written to {path} "
                  f"({len(tracer.events)} events; load in Perfetto)")
        return 0

    return run


def _fsck(args: argparse.Namespace) -> Run:
    # ArtifactCache creates a missing directory; a health check must not
    # pass on a mistyped path by checking the empty store it just made.
    if not os.path.isdir(args.cache_dir):
        raise ValueError(f"{args.cache_dir} is not an existing directory")
    cache = ArtifactCache(disk_dir=args.cache_dir)

    def run() -> int:
        counts = cache.fsck(deep=args.deep, quarantine=not args.dry_run)
        action = "found (dry run)" if args.dry_run else "quarantined"
        print(f"fsck {args.cache_dir}: {counts['ok']} ok, "
              f"{counts['corrupt']} corrupt ({counts['quarantined']} {action})")
        if counts["corrupt"] and not args.dry_run:
            print(f"quarantined entries kept under {cache.quarantine_dir}")
        return 1 if counts["corrupt"] else 0

    return run


def _shard(args: argparse.Namespace) -> Run:
    if args.nodes is not None and args.nodes < 1:
        raise ValueError(f"--nodes must be >= 1, got {args.nodes}")
    _check_scale(args.scale)
    grid = parse_grid(args.grid)
    jobs = effective_jobs(args.jobs)
    overrides = ({} if args.local_max_hops is None
                 else {"local_max_hops": args.local_max_hops})
    if args.scenario in MEGA_SCENARIOS:
        spec = get_mega_spec(args.scenario)
        if args.scale != 1.0:
            spec = spec.scaled(args.scale)
        params = spec.params(**overrides)

        def build():
            return spec.build(seed=args.seed)
    else:
        params = SkeletonParams(**overrides)

        def build():
            return get_scenario(args.scenario).build(seed=args.seed,
                                                     num_nodes=args.nodes)
    cache = ArtifactCache(disk_dir=args.cache_dir) if args.cache_dir else None

    def run() -> int:
        network = build()
        tracer = Tracer(record_events=bool(args.trace_out))
        sharded = run_sharded(network, params, grid=grid, jobs=args.jobs,
                              cache=cache, tracer=tracer)
        gx, gy = sharded.plan.grid
        print(f"{args.scenario}: n={network.num_nodes} "
              f"avg_degree={network.average_degree:.2f} grid={gx}x{gy} "
              f"jobs={sharded.jobs}")
        print(f"tiles={sharded.plan.num_tiles} "
              f"halo_hops={sharded.plan.halo_hops} "
              f"halo_width={sharded.plan.halo_width:.2f} "
              f"replication={sharded.plan.replication_factor():.2f} "
              f"flood_batches={sharded.num_flood_batches}")
        timings = {name: seconds for name, seconds
                   in tracer.metrics().stage_timings.items()
                   if name.startswith("shard:")}
        for phase, seconds in timings.items():
            print(f"  {phase:<14} {seconds:8.2f}s")
        print(f"  {'total':<14} {sum(timings.values()):8.2f}s")
        summary = sharded.result.stage_summary()
        print("stage summary: "
              + ", ".join(f"{k}={v}" for k, v in summary.items()))
        _print_cache_stats(cache, jobs)
        if args.compare_monolithic:
            assert_equivalent(extract_skeleton(network, params),
                              sharded.result)
            print("equivalence: sharded output is bit-identical to monolithic")
        if args.trace_out:
            path = write_chrome_trace(tracer, args.trace_out)
            print(f"trace written to {path}")
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="python -m repro",
                     description="Skeleton extraction in sensor networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags the suite and shard commands share.
    pool = _Parser(add_help=False)
    pool.add_argument("--seed", type=int, default=1)
    pool.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: REPRO_JOBS or serial)")
    pool.add_argument("--cache-dir", default=None,
                      help="enable the on-disk artifact cache at this path")

    suite = sub.add_parser(
        "suite", parents=[pool],
        help="run the figure suite (optionally in parallel)")
    suite.set_defaults(prepare=_suite)
    suite.add_argument("--scale", type=float, default=1.0,
                       help="node-count scale in (0, 1]")
    suite.add_argument("--runners", nargs="+", default=None,
                       choices=SUITE_RUNNERS, metavar="RUNNER",
                       help=f"subset of {SUITE_RUNNERS}")

    trace = sub.add_parser(
        "trace", help="trace a skeleton-extraction run and summarise it")
    trace.set_defaults(prepare=_trace)
    trace.add_argument("--scenario", default="window",
                       choices=sorted(PAPER_SCENARIOS),
                       help="paper scenario to build (default: window)")
    trace.add_argument("--nodes", type=int, default=400,
                       help="node count override (default: 400)")
    trace.add_argument("--seed", type=int, default=1,
                       help="deployment seed (default: 1)")
    trace.add_argument("--scheduler", default="sync",
                       choices=("sync", "async"),
                       help="runtime fabric (default: sync)")
    trace.add_argument("--jitter", type=float, default=0.0,
                       help="uniform delivery jitter in base-latency units "
                            "(async scheduler only)")
    trace.add_argument("--drop", type=float, default=0.0,
                       help="per-link drop probability (adds a 3-retry ARQ "
                            "when > 0)")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write Chrome trace-event JSON here")
    trace.add_argument("--no-events", action="store_true",
                       help="aggregate metrics only (no event log/export)")

    fsck = sub.add_parser(
        "fsck", help="verify digests of every on-disk cache entry")
    fsck.set_defaults(prepare=_fsck)
    fsck.add_argument("cache_dir", help="the cache directory to check")
    fsck.add_argument("--deep", action="store_true",
                      help="also unpickle each verified payload")
    fsck.add_argument("--dry-run", action="store_true",
                      help="report corruption without quarantining")

    shard = sub.add_parser(
        "shard", parents=[pool], help="tiled sharded skeleton extraction")
    shard.set_defaults(prepare=_shard)
    shard.add_argument("--scenario", default="mega_smoke",
                       choices=sorted(MEGA_SCENARIOS) + sorted(PAPER_SCENARIOS),
                       help="mega-field or paper scenario (default: mega_smoke)")
    shard.add_argument("--nodes", type=int, default=None,
                       help="node-count override (paper scenarios only)")
    shard.add_argument("--scale", type=float, default=1.0,
                       help="mega-field scale factor in (0, 1]")
    shard.add_argument("--grid", default="2x2",
                       help="tile grid, e.g. 2x2 or 4x4 (default: 2x2)")
    shard.add_argument("--local-max-hops", type=int, default=None,
                       help="election radius override (default: the "
                            "scenario's recommendation)")
    shard.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write Chrome trace-event JSON of the run here")
    shard.add_argument("--compare-monolithic", action="store_true",
                       help="also run the monolithic pipeline and assert "
                            "bit-identical artifacts")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            run = args.prepare(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run()
    except ModuleNotFoundError as exc:
        # Spawn-mode pool workers that can't import the src/ layout die
        # with a bare ModuleNotFoundError; translate it to the tier-1
        # PYTHONPATH hint instead of a traceback.
        if (exc.name or "").split(".")[0] != "repro":
            raise
        print(TIER1_HINT, file=sys.stderr)
        return 2
