"""Perf-regression guard: diff a fresh BENCH JSON vs a committed baseline.

Compares every timing the two reports share — traversal stage times per
(scenario, nodes, arm) for ``BENCH_traversal.json``, per-arm suite
wall clocks for ``BENCH_parallel.json``, per-scenario shard phase times
for ``BENCH_shard.json``, per-arm wall clocks and p99 latencies for
``BENCH_serving.json`` — and *warns* when the fresh number is more than
``--threshold`` (default 25%) slower.  Slowdowns exit 0 unless ``--gate``
is passed: CI machines are noisy and a committed baseline may come from
different hardware, so timing drift surfaces without blocking merges.

A **missing baseline is an error** (exit 1), not a warning: every bench
that runs in CI must have its ``BENCH_*.json`` committed, otherwise the
guard silently guards nothing and the gap only shows up when someone
wonders why a regression was never caught.  Pass
``--allow-missing-baseline`` for local runs of not-yet-committed benches.

Timings are only comparable when the runs are: scale (and for the suite,
jobs) must match, or the diff is skipped with a notice.

Usage::

    python -m benchmarks.perf.check_regression BENCH_traversal.json fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence


def timing_entries(report: Dict) -> Dict[str, float]:
    """Flatten a bench report into ``label -> seconds`` pairs."""
    entries: Dict[str, float] = {}
    for row in report.get("results", ()):  # BENCH_traversal.json shape
        tag = f"{row['scenario']}/n={row['nodes']}"
        for arm in ("reference", "vectorized"):
            stages = row.get(arm, {})
            for stage in ("stage1_s", "stage2_s"):
                if stage in stages:
                    entries[f"{tag}/{arm}/{stage}"] = stages[stage]
    # BENCH_parallel.json and BENCH_serving.json both use an "arms" map;
    # the serving report is distinguished by its benchmark name and also
    # contributes its p99 latencies (converted to seconds).
    serving = report.get("benchmark") == "serving"
    prefix = "serving" if serving else "suite"
    for arm, data in report.get("arms", {}).items():
        if "wall_s" in data:
            entries[f"{prefix}/{arm}/wall_s"] = data["wall_s"]
        if serving and "latency_p99_ms" in data:
            entries[f"{prefix}/{arm}/latency_p99_s"] = \
                data["latency_p99_ms"] / 1e3
    for row in report.get("scenarios", ()):  # BENCH_shard.json shape
        tag = f"shard/{row['scenario']}"
        if "wall_s" in row:
            entries[f"{tag}/wall_s"] = row["wall_s"]
        for phase, seconds in row.get("phases", {}).items():
            entries[f"{tag}/{phase}"] = seconds
    return entries


def comparability_error(baseline: Dict, fresh: Dict) -> Optional[str]:
    """Why the two reports cannot be compared, or None if they can."""
    for field in ("benchmark", "scale", "seed", "grid", "jobs"):
        if baseline.get(field) != fresh.get(field):
            return (f"{field} differs (baseline {baseline.get(field)!r} "
                    f"vs fresh {fresh.get(field)!r})")
    base_jobs = baseline.get("arms", {}).get("parallel", {}).get("jobs")
    fresh_jobs = fresh.get("arms", {}).get("parallel", {}).get("jobs")
    if base_jobs != fresh_jobs:
        return f"jobs differs (baseline {base_jobs} vs fresh {fresh_jobs})"
    return None


def check(baseline_path: Path, fresh_path: Path,
          threshold: float = 0.25) -> Sequence[str]:
    """The list of regression warnings (empty = all clear)."""
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    reason = comparability_error(baseline, fresh)
    if reason is not None:
        print(f"[perf-guard] skipping {fresh_path.name}: {reason}")
        return []
    base_times = timing_entries(baseline)
    fresh_times = timing_entries(fresh)
    warnings = []
    for label in sorted(set(base_times) & set(fresh_times)):
        old, new = base_times[label], fresh_times[label]
        if old > 0 and new > old * (1.0 + threshold):
            warnings.append(
                f"{label}: {old:.4f}s -> {new:.4f}s "
                f"(+{(new / old - 1.0) * 100:.0f}%, threshold "
                f"{threshold * 100:.0f}%)"
            )
    return warnings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Warn when a fresh bench report regressed vs a baseline.")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that triggers a warning")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero on regressions (default: warn only)")
    parser.add_argument("--allow-missing-baseline", action="store_true",
                        help="tolerate an absent baseline file (local runs "
                             "of not-yet-committed benches)")
    args = parser.parse_args(argv)
    if not args.baseline.is_file():
        if args.allow_missing_baseline:
            print(f"[perf-guard] no baseline at {args.baseline}; "
                  f"nothing to diff")
            return 0
        print(f"[perf-guard] ERROR: baseline {args.baseline} is missing — "
              f"commit the BENCH report or pass --allow-missing-baseline")
        return 1
    warnings = check(args.baseline, args.fresh, threshold=args.threshold)
    if not warnings:
        print(f"[perf-guard] {args.fresh.name}: no regressions beyond "
              f"{args.threshold * 100:.0f}%")
        return 0
    for line in warnings:
        print(f"[perf-guard] REGRESSION {line}")
    return 1 if args.gate else 0


if __name__ == "__main__":
    sys.exit(main())
