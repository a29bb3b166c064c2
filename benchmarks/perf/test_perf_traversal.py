"""Perf gate: vectorized stage 1 must stay ≥5× the reference engine.

Marked ``perf`` — excluded from tier-1; run with::

    pytest -m perf benchmarks/perf

``REPRO_PERF_SCALE`` scales the scenarios (default 1.0 — the paper-size
networks, n≈2.5k on Window, which is where the acceptance target is
defined).  The speedup assertion only applies at (near-)full scale; small
networks don't amortise the vectorized setup.
"""

import os

import pytest

from benchmarks.perf.traversal_bench import run_traversal_bench, write_report

pytestmark = pytest.mark.perf


def test_traversal_backend_speedup():
    scale = float(os.environ.get("REPRO_PERF_SCALE", "1.0"))
    report = run_traversal_bench(scale=scale)
    path = write_report(report)
    print(f"\nwrote {path}")
    for row in report["results"]:
        print(
            f"{row['scenario']}: n={row['nodes']} "
            f"stage1 {row['speedup_stage1']}x stage2 {row['speedup_stage2']}x"
        )
        # Both arms must elect the same critical nodes (also covered
        # kernel-by-kernel in tests/test_traversal_engine.py).
        assert row["reference"]["critical_nodes"] == row["vectorized"]["critical_nodes"]
        assert row["speedup_stage2"] > 1.0
        if row["nodes"] >= 2000:
            assert row["speedup_stage1"] >= 5.0
