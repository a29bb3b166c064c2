"""E-FAULT — skeleton degradation under per-link message loss.

Sweeps the drop probability on the Window and two-holes scenarios with
link-layer ack/retry on and off, asserts the acceptance envelope (Window
stays connected and homotopic up to at least 10% per-link drop with
retries), and records the failure knees in ``BENCH_faults.json`` at the
repository root — only at ``REPRO_BENCH_SCALE=1.0``, the scale that file
is recorded at.
"""

import json
import platform
from pathlib import Path

from benchmarks.conftest import run_once
from repro.analysis import failure_knee
from repro.experiments import run_fault_degradation
from repro.experiments.faults import MIN_FAULT_SCALE

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_faults.json"


def test_bench_fault_degradation(benchmark, bench_scale):
    report = run_once(benchmark, lambda: run_fault_degradation(scale=bench_scale))
    print()
    print(report.to_table())

    retry_rows = [r for r in report.rows if r["arm"] == "retry"]

    # The envelope is *relative to the fault-free baseline*: faults must
    # not be blamed for deviations the drop-rate-0 extraction already has
    # (at full scale Window carries a known phantom loop, so absolute
    # homotopy is unachievable at any drop rate).  Where the baseline is
    # homotopic this reduces to the default connected-and-homotopic check.
    baseline_homotopic = {r["scenario"]: bool(r["homotopy_ok"])
                          for r in retry_rows if r["drop_rate"] == 0.0}

    # Characterize the drop-rate-0 deviation when there is one: the known
    # failure mode is *phantom loops* — excess cycles the loop classifier
    # keeps where corridor witnesses are thin (at full scale Window
    # reports 6 cycles against 4 preserved holes, two-holes 4 against 2;
    # see EXPERIMENTS.md).  A baseline that is non-homotopic in the other
    # direction — disconnected, or *missing* a hole's cycle — would be a
    # real regression and must not hide behind the relative envelope.
    for row in report.rows:
        if row["drop_rate"] == 0.0 and not row["homotopy_ok"]:
            assert row["connected"], (
                f"{row['scenario']}: fault-free baseline is disconnected — "
                f"not the known phantom-loop deviation")
            assert row["cycles"] >= row["preserved_holes"], (
                f"{row['scenario']}: fault-free baseline lost a hole "
                f"(cycles={row['cycles']} < holes="
                f"{row['preserved_holes']}) — not the known phantom-loop "
                f"deviation")

    def no_worse_than_baseline(row):
        return bool(row["connected"]) and (
            bool(row["homotopy_ok"]) or not baseline_homotopic[row["scenario"]]
        )

    knees = failure_knee(retry_rows, ok=no_worse_than_baseline)
    window = knees["window"]
    # Acceptance: with retries, Window survives at least 10% per-link drop.
    assert window.max_ok_rate is not None and window.max_ok_rate >= 0.1, (
        f"Window skeleton degraded below the 10% drop envelope: {window}"
    )

    # Drop rate 0 must match the fault-free path: retries are never needed.
    for row in report.rows:
        if row["drop_rate"] == 0.0:
            assert row["retries"] == 0 and row["drops"] == 0
    # Under loss, the retry arm pays recovery traffic the bare arm cannot.
    lossy = [r for r in retry_rows if r["drop_rate"] > 0]
    assert all(r["retries"] > 0 for r in lossy)

    no_retry_knees = failure_knee(
        [r for r in report.rows if r["arm"] == "no_retry"],
        ok=no_worse_than_baseline,
    )
    scale = max(bench_scale, MIN_FAULT_SCALE)
    if scale != 1.0:
        # The committed record is the full-scale run; rows from a smaller
        # one would overwrite it with numbers that do not compare.
        print(f"scale {scale} is not 1.0: {OUTPUT_PATH.name} not written")
        return
    OUTPUT_PATH.write_text(json.dumps({
        "benchmark": "fault-degradation sweep",
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
            for arm, arm_knees in (("retry", knees), ("no_retry", no_retry_knees))
        },
        "notes": report.notes,
    }, indent=2) + "\n")
    print(f"wrote {OUTPUT_PATH}")
