"""Trace one scenario end to end from the command line.

Runs the distributed pipeline with a tracer attached, prints the ASCII
per-phase summary, and (optionally) writes a Perfetto-loadable Chrome
trace::

    python -m repro.observability --scenario window --nodes 400 \\
        --scheduler sync --out trace_window.json
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from ..core import extract_skeleton_distributed
from ..network import PAPER_SCENARIOS, get_scenario
from ..runtime import FaultPlan, LatencyModel, RetryPolicy
from ..viz import render_trace_summary
from . import Tracer, write_chrome_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability",
        description="Trace a skeleton-extraction run and summarise it.",
    )
    parser.add_argument("--scenario", default="window",
                        choices=sorted(PAPER_SCENARIOS),
                        help="paper scenario to build (default: window)")
    parser.add_argument("--nodes", type=int, default=400,
                        help="node count override (default: 400)")
    parser.add_argument("--seed", type=int, default=1,
                        help="deployment seed (default: 1)")
    parser.add_argument("--scheduler", default="sync",
                        choices=("sync", "async"),
                        help="runtime fabric (default: sync)")
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="uniform delivery jitter in base-latency units "
                             "(async scheduler only)")
    parser.add_argument("--drop", type=float, default=0.0,
                        help="per-link drop probability (adds a 3-retry ARQ "
                             "when > 0)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write Chrome trace-event JSON here")
    parser.add_argument("--no-events", action="store_true",
                        help="aggregate metrics only (no event log/export)")
    return parser


def _input_error(args: argparse.Namespace) -> Optional[str]:
    """Why *args* cannot run, or ``None``: checked before any network is
    built, so bad input is a one-line error rather than a traceback."""
    if args.nodes < 1:
        return f"--nodes must be >= 1, got {args.nodes}"
    if not 0 <= args.drop < 1:
        return f"--drop must be in [0, 1), got {args.drop}"
    if not (math.isfinite(args.jitter) and args.jitter >= 0):
        return f"--jitter must be a finite number >= 0, got {args.jitter}"
    if args.no_events and args.out:
        return "--no-events records no events, so --out has nothing to write"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    error = _input_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scenario = get_scenario(args.scenario)
    network = scenario.build(seed=args.seed, num_nodes=args.nodes)
    tracer = Tracer(record_events=not args.no_events)
    latency = (LatencyModel.uniform_jitter(args.jitter)
               if args.jitter > 0 else None)
    fault_plan = (FaultPlan(seed=7, drop_probability=args.drop)
                  if args.drop > 0 else None)
    retry_policy = RetryPolicy(max_retries=3) if args.drop > 0 else None
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


if __name__ == "__main__":
    raise SystemExit(main())
