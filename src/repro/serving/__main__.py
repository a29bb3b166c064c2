"""Drive a seeded synthetic workload against a skeleton service::

    PYTHONPATH=src python -m repro.serving --requests 40 --clients 4 \\
        --catalog 5 --nodes 200 --seed 7 --cache-dir /tmp/serve_cache

Prints the serving report (throughput, latency percentiles, hit / dedup /
shed counters) and optionally writes it as JSON.  ``--check`` turns the
run into a smoke gate: at low load the service must shed nothing and the
Zipf repeat traffic must produce at least one dedup coalescing — the CI
``serving-smoke`` job runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..cli import repro_import_hint
from ..perf import ArtifactCache, effective_jobs
from .clock import SystemClock, VirtualClock
from .service import ServiceConfig, SkeletonService
from .workload import WorkloadSpec, run_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Synthetic closed-loop workload against SkeletonService.",
    )
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop clients (default: 4)")
    parser.add_argument("--catalog", type=int, default=5,
                        help="distinct networks in the catalog (default: 5)")
    parser.add_argument("--nodes", type=int, default=200,
                        help="nodes per catalog network (default: 200)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--zipf", type=float, default=1.2,
                        help="Zipf skew s; 0 = uniform (default: 1.2)")
    parser.add_argument("--mix-kinds", action="store_true",
                        help="request skeleton/segmentation/boundary mix "
                             "instead of skeletons only")
    parser.add_argument("--workers", type=int, default=0,
                        help="service worker threads; 0 = inline "
                             "deterministic mode (default: 0)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for batch compute "
                             "(default: REPRO_JOBS or serial)")
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline in seconds")
    parser.add_argument("--deadline-action", default="full",
                        choices=("full", "shed"))
    parser.add_argument("--think-time", type=float, default=0.0,
                        help="virtual seconds between rounds "
                             "(virtual clock only)")
    parser.add_argument("--virtual-clock", action="store_true",
                        help="run the service on virtual time "
                             "(deterministic deadlines)")
    parser.add_argument("--cache-dir", default=None,
                        help="enable the on-disk artifact cache at this path")
    parser.add_argument("--no-dedup", action="store_true",
                        help="disable request coalescing")
    parser.add_argument("--no-cache", action="store_true",
                        help="serve every request from a fresh computation")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the workload report as JSON here")
    parser.add_argument("--check", action="store_true",
                        help="smoke gate: fail unless shed == 0 and "
                             "dedup_hits >= 1")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Fail fast on an unusable worker count (e.g. REPRO_JOBS=abc)
        # with a one-line error instead of a traceback mid-run.
        effective_jobs(args.jobs)
        config = ServiceConfig(
            max_queue=args.max_queue,
            workers=args.workers,
            dedup=not args.no_dedup,
            cache_results=not args.no_cache,
            default_deadline=args.deadline,
            deadline_action=args.deadline_action,
            jobs=args.jobs,
        )
        spec = WorkloadSpec(
            seed=args.seed, requests=args.requests, clients=args.clients,
            catalog_size=args.catalog, num_nodes=args.nodes,
            zipf_s=args.zipf, mix_kinds=args.mix_kinds,
            think_time=args.think_time,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    clock = VirtualClock() if args.virtual_clock else SystemClock()
    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ArtifactCache(disk_dir=args.cache_dir)
    service = SkeletonService(config, cache=cache, clock=clock)
    try:
        with service:
            report = run_workload(service, spec)
    except ModuleNotFoundError as exc:
        hint = repro_import_hint(exc)
        if hint is None:
            raise
        print(hint, file=sys.stderr)
        return 2

    clock_name = "virtual" if args.virtual_clock else "wall"
    print(f"workload: requests={report.requests} clients={report.clients} "
          f"catalog={report.catalog_size} seed={report.seed} "
          f"clock={clock_name}")
    print(f"throughput: {report.rps:.1f} req/s over {report.elapsed_s:.2f}s")
    print(f"status: ok={report.ok} failed={report.failed} "
          f"shed={report.shed}")
    print(f"serving: cache_hits={report.cache_hits} "
          f"dedup_hits={report.dedup_hits} computed={report.computed}")
    print(f"latency: p50={report.latency_p50 * 1e3:.1f}ms "
          f"p99={report.latency_p99 * 1e3:.1f}ms "
          f"max={report.latency_max * 1e3:.1f}ms ({clock_name} clock)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")

    if args.check:
        problems = []
        if report.shed != 0:
            problems.append(f"shed {report.shed} requests at low load")
        if report.dedup_hits < 1:
            problems.append("no dedup coalescing on repeat-heavy traffic")
        if report.failed != 0:
            problems.append(f"{report.failed} requests failed")
        if problems:
            print("check FAILED: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("check passed: zero sheds, dedup active, zero failures")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
