"""E-ASYNC — skeleton stability under asynchronous, jittered delivery.

Sweeps per-link delivery jitter (uniform and heavy-tailed arms) on the
event-driven runtime, asserts the acceptance envelope — the zero-jitter
run is exactly the synchronous extraction, and the uniform arm stays
homotopy-correct at bounded nonzero jitter — and records the rows,
per-arm failure knees and stability curves in ``BENCH_async.json`` at
the repository root — only at ``REPRO_BENCH_SCALE=1.0``, the scale that
file is recorded at.
"""

import json
import platform
from pathlib import Path

from benchmarks.conftest import run_once
from repro.analysis import failure_knee, stability_curve
from repro.experiments import run_async_jitter
from repro.experiments.async_jitter import MIN_ASYNC_SCALE

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_async.json"


def test_bench_async_jitter(benchmark, bench_scale):
    report = run_once(benchmark, lambda: run_async_jitter(scale=bench_scale))
    print()
    print(report.to_table())

    # Zero jitter is the degenerate latency model: the event-driven run is
    # equivalent to the synchronous one, so there is no drift and no
    # correction traffic, and the convergence detector reports quiescence.
    for row in report.rows:
        if row["jitter"] == 0.0:
            assert row["quiesced"], f"zero-jitter run did not quiesce: {row}"
            assert row["corrections"] == 0 and row["suppressed"] == 0, (
                f"zero-jitter run paid correction traffic: {row}"
            )
            assert row["stability_mean"] == 0.0, (
                f"zero-jitter skeleton drifted from the synchronous one: {row}"
            )

    # Every jittered run must still terminate via the convergence detector.
    assert all(row["quiesced"] for row in report.rows)

    # Acceptance: with tail-aware timeouts the uniform arm keeps the Window
    # skeleton connected and no less homotopic than the zero-jitter run up
    # to at least one base latency of jitter.  The envelope is relative to
    # that synchronous-equivalent baseline — asynchrony must not be blamed
    # for extraction deviations the scenario has at jitter 0 (at full
    # scale Window carries a known phantom loop); where the baseline is
    # homotopic this is the default connected-and-homotopic check.
    baseline_homotopic = {
        (r["scenario"], r["arm"]): bool(r["homotopy_ok"])
        for r in report.rows if r["jitter"] == 0.0
    }

    def no_worse_than_baseline(row):
        return bool(row["connected"]) and (
            bool(row["homotopy_ok"])
            or not baseline_homotopic[(row["scenario"], row["arm"])]
        )

    knees = {
        kind: failure_knee(
            [r for r in report.rows if r["arm"] == kind],
            ok=no_worse_than_baseline, rate_key="jitter",
        )
        for kind in ("uniform", "heavy_tail")
    }
    window = knees["uniform"]["window"]
    assert window.max_ok_rate is not None and window.max_ok_rate >= 1.0, (
        f"Window skeleton degraded below the jitter=1 envelope: {window}"
    )

    scale = max(bench_scale, MIN_ASYNC_SCALE)
    if scale != 1.0:
        # The committed record is the full-scale run; rows from a smaller
        # one would overwrite it with numbers that do not compare.
        print(f"scale {scale} is not 1.0: {OUTPUT_PATH.name} not written")
        return
    OUTPUT_PATH.write_text(json.dumps({
        "benchmark": "async jitter sweep",
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": report.rows,
        "failure_knees": {
            arm: {
                name: {
                    "max_ok_rate": knee.max_ok_rate,
                    "knee_rate": knee.knee_rate,
                    "survived_sweep": knee.survived_sweep,
                }
                for name, knee in sorted(arm_knees.items())
            }
            for arm, arm_knees in sorted(knees.items())
        },
        "stability_curves": {
            arm: {
                name: points
                for name, points in sorted(stability_curve(
                    [r for r in report.rows if r["arm"] == arm]
                ).items())
            }
            for arm in ("uniform", "heavy_tail")
        },
        "notes": report.notes,
    }, indent=2) + "\n")
    print(f"wrote {OUTPUT_PATH}")
