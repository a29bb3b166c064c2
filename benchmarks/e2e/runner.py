"""Command line, measurement window and reporting of the e2e benchmark.

One workload per process: ``--workload NAME`` runs it here and prints
one ``workload metric value unit`` line per metric, then a JSON object
``{"correct", "attempted", "failed", "metrics"}`` as the last line.
Without ``--workload`` every workload runs in a fresh subprocess, one
after another, and the monolithic and sharded mega digests are compared
once both have finished.  The exit code is 1 when any check failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
the same window untraced, then again with the recorder installed, and
reports the per-layer metrics; ``trace.overhead`` is the traced
per-operation time over the untraced one, minus 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy
import scipy

from .layers import TARGETS, per_layer_metrics
from .recorder import Recorder
from .stats import percentile, tail_percentile
from .workloads import SHARD_JOBS, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Set-ups per run: at least SETUP_REPEATS, and more (up to
#: SETUP_MAX) until SETUP_SECONDS have been spent, so that a cheap
#: set-up's median rests on more samples.  ``setup_s`` is their median.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 3, 1.0, 15

#: ``(name, unit)`` of the end-to-end metrics, reported by every workload.
#: Operation latency (median and tail) is printed and stored in the
#: report but not gated (see README.md, "End-to-end metrics").
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def measure(workload, seconds: float, recorder=None,
            max_passes: Optional[int] = None) -> Tuple[int, float]:
    """Run whole passes until *seconds* have elapsed (at least one).

    Returns the passes run and the window's throughput, operations per
    busy second.  Throughput is taken over the whole window rather than
    as a median of pass rates: a shared host's speed drifts over tens of
    seconds, and the mean over every operation averages that drift
    best.
    """
    started = time.perf_counter()
    ops, busy = workload.ops, workload.busy_s
    passes = 0
    while True:
        workload.run_pass(recorder)
        passes += 1
        if time.perf_counter() - started >= seconds or \
                passes == max_passes:
            return passes, (workload.ops - ops) / (workload.busy_s - busy)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS,
                 setup_seconds: float = SETUP_SECONDS,
                 max_passes: Optional[int] = None,
                 spans_out: Optional[Path] = None, **sizes) -> Dict:
    """Set up, measure and check one workload in this process.

    A traced run writes its spans, one JSON object per line, to
    *spans_out* when given.  *sizes* go to the workload's constructor, so
    tests can run the same code at tiny sizes.
    """
    workload = WORKLOADS[name](seed, **sizes)
    setup: List[float] = []
    while len(setup) < setup_repeats or (
            sum(setup) < setup_seconds and len(setup) < SETUP_MAX):
        started = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - started)
    # One untimed pass fills caches and finishes lazy set-up; its
    # outputs are checked like any other.
    workload.run_pass()
    warm = len(workload.latencies)
    passes, ops_per_s = measure(workload, seconds, None, max_passes)
    # Before the traced window and the checks: references such as the
    # sharded workload's monolithic extraction must not count.
    peak = peak_rss_mb()
    latencies = workload.latencies[warm:]

    traced = _traced_window(workload, seconds, max_passes, ops_per_s) \
        if trace else None
    workload.validate()

    tail = tail_percentile(len(latencies))
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": peak,
    }
    metrics = {metric: (values[metric], unit) for metric, unit in END_TO_END}
    missing: List[str] = []
    notes: List[str] = []
    if traced is not None:
        spans, ops, installed, missing, supplied = traced
        supplied.update(workload.extras())
        per_layer = per_layer_metrics(spans, ops, installed, supplied)
        if spans_out is not None:
            with open(spans_out, "w", encoding="utf-8") as out:
                out.writelines(json.dumps(s.to_dict()) + "\n" for s in spans)
        if (os.cpu_count() or 1) < SHARD_JOBS:
            per_layer.pop("perf.map.efficiency", None)
            notes.append(f"perf.map.efficiency unmeasured: cpu_count "
                         f"{os.cpu_count()} < jobs {SHARD_JOBS}")
    return {
        "correct": workload.failed == 0 and workload.ops > 0,
        "attempted": workload.ops,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    (per_layer if trace else metrics).items()},
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()},
        "samples": len(latencies),
        "passes": passes,
        "latency_s_p50": statistics.median(latencies) if latencies else None,
        "latency_tail": None if tail is None else {
            "percentile": tail, "value": percentile(latencies, tail)},
        "setup_samples": setup,
        "missing_targets": missing,
        "notes": notes,
        **workload.report(),
    }


def _traced_window(workload, seconds, max_passes, untraced_ops_per_s):
    """Measure again with the recorder installed.

    Returns ``(spans, operations, installed targets, missing target
    paths, runner- and workload-supplied per-layer values)``.
    """
    ops = workload.ops
    spool = tempfile.mkdtemp(prefix=".trace-spool-", dir=HERE)
    recorder = Recorder(spool)
    try:
        workload.begin_traced_window()
        recorder.install(TARGETS)
        started = time.perf_counter()
        try:
            _, traced_ops_per_s = measure(workload, seconds, recorder,
                                          max_passes)
        finally:
            recorder.uninstall()
        wall = time.perf_counter() - started
        spans = recorder.collect()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    top = sum(s.duration for s in spans
              if s.parent is None and s.pid == os.getpid())
    supplied = {
        "trace.overhead": untraced_ops_per_s / traced_ops_per_s - 1.0,
        "trace.coverage": top / wall,
    }
    supplied.update(workload.layer_extras(spans, ops))
    return (spans, workload.ops - ops, recorder.installed, recorder.missing,
            supplied)


def environment() -> Dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": SHARD_JOBS,
        "platform": platform.platform(),
    }


def _print_result(name: str, result: Dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    tail, p50 = result["latency_tail"], result["latency_s_p50"]
    print(f"# {name}: {result['attempted']} operations, {result['failed']} "
          f"failed; {result['passes']} untraced pass(es), latency samples "
          f"{result['samples']}, p50 "
          + (f"{p50:.6g} s" if p50 is not None else "none") + ", tail "
          + (f"p{tail['percentile']:g}={tail['value']:.6g} s" if tail
             else "none (fewer than 10 samples beyond the median)"))
    for path in result["missing_targets"]:
        print(f"# {name}: target {path} not found; its metrics are absent")
    for note in result["notes"]:
        print(f"# {name}: {note}")


def _contract_line(result: Dict) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def _write(path: Optional[str], report: Dict) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(report, indent=2) + "\n")


def _spans_path(report: Path, workload: str) -> Path:
    """Where a traced run's spans go, next to its report."""
    return report.with_name(f"{report.stem}.{workload}.spans.jsonl")


def _run_all(args) -> int:
    """Every workload in a fresh subprocess, then the cross-run checks."""
    out = Path(args.out or HERE / "results" / (
        f"seed{args.seed}{'-trace' if args.trace else ''}.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=HERE) as parts:
        for name in WORKLOADS:
            part = Path(parts) / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(part)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if not part.exists():
                print(f"# {name}: exited {proc.returncode} without a result",
                      flush=True)
                results[name] = {"correct": False, "attempted": 1,
                                 "failed": 1, "metrics": {}}
                continue
            results[name] = json.loads(part.read_text())["workloads"][name]
            spans = _spans_path(part, name)
            if spans.exists():
                shutil.move(str(spans), str(_spans_path(out, name)))
    mono = results["mega_mono"].get("digest")
    sharded = results["mega_sharded"].get("digest")
    if mono is not None and sharded is not None and mono != sharded:
        print("# mega_mono and mega_sharded digests differ", flush=True)
        results["mega_sharded"]["failed"] += 1
        results["mega_sharded"]["attempted"] += 1
        results["mega_sharded"]["correct"] = False
    report = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "workloads": results}
    _write(str(out), report)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry
                    for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }
    print(f"# report written to {out}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end skeleton-extraction benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the JSON report here")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    spans_out = _spans_path(Path(args.out), args.workload) \
        if args.out and args.trace else None
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), spans_out=spans_out)
    _print_result(args.workload, result)
    _write(args.out, {"seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment(),
                      "workloads": {args.workload: result}})
    print(_contract_line(result), flush=True)
    return 0 if result["correct"] else 1
