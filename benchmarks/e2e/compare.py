"""Compare two sets of e2e result files.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base a1.json a2.json ... \\
        --head b1.json b2.json ...

Each file is a report written by ``run.py --out`` (one workload or all
of them).  For each workload, the i-th base report that holds it is
paired with the i-th head report that holds it; run the two sets
alternately so that pairs share machine conditions.  For every workload
and metric the script prints each set's median and quartiles and a
verdict:

* ``regressed`` — a metric with a bound in ``BENCHMARK.json`` whose head
  median is worse than the base median by more than the bound (a share
  of the base median); a metric without a bound whose head loses at
  least 9/10 of the pairs by more than the base's interquartile range;
* ``improved`` — the head wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the base's
  interquartile range;
* ``unresolved`` — some head run failed more operations than its paired
  base run, the two sets hold the workload a different number of times,
  or the metric is missing from some run (a workload that did not
  finish), so the pairs cannot be trusted; or the base's own spread
  (interquartile range over median) is wider than the bound, unless
  every head run reads better than every base run;
* ``unchanged`` — otherwise.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__:
    from .stats import quartiles
else:  # run as a script: this directory is sys.path[0]
    from stats import quartiles

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_specs() -> Dict[str, Dict]:
    """``{metric: {"better", "bound"}}`` from ``BENCHMARK.json``; per-layer
    metrics have no bound."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    out = {m["name"]: {"better": m["better"], "bound": m["bound"]}
           for m in spec["end_to_end"]}
    out.update({m["name"]: {"better": m["better"], "bound": None}
                for m in spec["per_layer"]})
    return out


def load_runs(paths: Sequence[str]) -> List[Dict[str, Dict]]:
    """One ``{workload: result}`` per file, in file order."""
    return [json.loads(Path(path).read_text())["workloads"] for path in paths]


def _value(result: Dict, metric: str) -> Optional[float]:
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    losses = sum(sign * (h - b) < 0 for b, h in pairs)
    b1, b_med, b3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    gap = sign * (h_med - b_med)
    iqr = b3 - b1
    if bound is not None:
        if -gap > bound * abs(b_med):
            return "regressed"
    elif pairs and losses >= WIN_SHARE * len(pairs) and -gap > iqr:
        return "regressed"
    if pairs and wins >= WIN_SHARE * len(pairs) and gap > iqr:
        return "improved"
    if bound is not None and b_med and iqr / abs(b_med) > bound:
        head_best = min(sign * h for h in head)
        if not head_best > max(sign * b for b in base):
            return "unresolved"
    return "unchanged"


def compare(base_paths: Sequence[str], head_paths: Sequence[str],
            specs: Dict[str, Dict]) -> List[Dict]:
    """One row per workload and metric; for each workload the i-th base
    report holding it is paired with the i-th head report holding it."""
    if len(base_paths) != len(head_paths):
        raise ValueError(f"{len(base_paths)} base files but "
                         f"{len(head_paths)} head files: runs are paired")
    base, head = load_runs(base_paths), load_runs(head_paths)
    rows = []
    for workload in sorted(set().union(*base, *head)):
        base_runs = [run[workload] for run in base if workload in run]
        head_runs = [run[workload] for run in head if workload in run]
        more_failed = any(h["failed"] > b["failed"]
                          for b, h in zip(base_runs, head_runs))
        metrics = {metric for run in base_runs + head_runs
                   for metric in run.get("metrics", {})}
        for metric in sorted(metrics & set(specs)):
            b = [_value(run, metric) for run in base_runs]
            h = [_value(run, metric) for run in head_runs]
            b_seen = [v for v in b if v is not None]
            h_seen = [v for v in h if v is not None]
            if not b_seen or not h_seen:
                continue
            if more_failed:
                outcome, note = "unresolved", "head failed more operations"
            elif len(b) != len(h):
                outcome, note = "unresolved", "unequal run counts"
            elif None in b or None in h:
                outcome, note = "unresolved", "missing from some runs"
            else:
                outcome, note = verdict(b, h, specs[metric]["better"],
                                        specs[metric]["bound"]), ""
            rows.append({
                "workload": workload, "metric": metric,
                "base": quartiles(b_seen), "head": quartiles(h_seen),
                "runs": (len(b_seen), len(h_seen)),
                "verdict": outcome, "note": note,
            })
    return rows


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(args.base, args.head, load_specs())
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{'workload':<14}{'metric':<38}{'base median [q1, q3]':<36}"
          f"{'head median [q1, q3]':<36}verdict")
    for row in rows:
        print(f"{row['workload']:<14}{row['metric']:<38}"
              f"{_fmt(row['base']):<36}{_fmt(row['head']):<36}"
              f"{row['verdict']}"
              + (f" ({row['note']})" if row["note"] else ""))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
