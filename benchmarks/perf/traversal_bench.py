"""Micro-benchmark: the CSR traversal kernels against the BFS oracle.

Times stage 1 (index computation + critical-node election) and stage 2
(Voronoi cell construction) of the extraction pipeline on the Window and
two-holes scenarios in two arms: ``vectorized`` runs the pipeline as
shipped, on the CSR frontier-expansion kernels; ``reference`` runs the
same pipeline with every network's engine replaced by the pure-Python
:class:`repro.reference.ReferenceEngine` (a ``mock.patch.object`` of
``SensorNetwork.traversal``).  Emits ``BENCH_traversal.json`` at the
repository root so the speedup is tracked across PRs.

Timing protocol: one untimed warm-up run per arm (populates the lazy
CSR/ball-operator caches and the CPU caches alike), then best of
``repeats`` timed runs — steady-state numbers, the regime a long-lived
extraction service operates in.

Run directly::

    python -m benchmarks.perf.traversal_bench

or through pytest (writes the same JSON)::

    pytest -m perf benchmarks/perf
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.identification import find_critical_nodes
from repro.core.neighborhood import compute_indices
from repro.core.params import SkeletonParams
from repro.core.voronoi import build_voronoi
from repro.network import get_scenario
from repro.reference import use_reference_engine

REPO_ROOT = Path(__file__).resolve().parents[2]
OUTPUT_PATH = REPO_ROOT / "BENCH_traversal.json"

SCENARIOS = ("window", "two_holes")
ARMS = ("reference", "vectorized")


def time_stages(network, params: SkeletonParams, repeats: int = 5) -> Dict:
    """Best-of-*repeats* wall times for stage 1 and stage 2 on *network*."""
    stage1 = stage2 = float("inf")
    critical: List[int] = []
    for _ in range(repeats + 1):  # first iteration is the untimed warm-up
        t0 = time.perf_counter()
        index_data = compute_indices(network, params)
        critical = find_critical_nodes(network, index_data, params)
        t1 = time.perf_counter()
        voronoi = build_voronoi(network, critical, params)
        t2 = time.perf_counter()
        stage1 = min(stage1, t1 - t0)
        stage2 = min(stage2, t2 - t1)
    return {
        "stage1_s": stage1,
        "stage2_s": stage2,
        "critical_nodes": len(critical),
        "segment_nodes": len(voronoi.segment_nodes),
    }


def run_traversal_bench(scale: float = 1.0, seed: int = 1,
                        repeats: int = 5,
                        scenarios=SCENARIOS) -> Dict:
    """Benchmark every scenario × arm combination."""
    results = []
    for name in scenarios:
        scenario = get_scenario(name)
        if scale != 1.0:
            scenario = scenario.scaled(max(2, int(scenario.num_nodes * scale)))
        network = scenario.build(seed=seed)
        row: Dict = {
            "scenario": name,
            "nodes": network.num_nodes,
            "avg_degree": round(network.average_degree, 3),
        }
        for arm in ARMS:
            with (use_reference_engine() if arm == "reference"
                  else nullcontext()):
                row[arm] = time_stages(network, SkeletonParams(),
                                       repeats=repeats)
        ref, vec = row["reference"], row["vectorized"]
        assert ref["critical_nodes"] == vec["critical_nodes"], (
            "oracle and kernels disagree on critical nodes — equivalence broken"
        )
        row["speedup_stage1"] = round(ref["stage1_s"] / vec["stage1_s"], 2)
        row["speedup_stage2"] = round(ref["stage2_s"] / vec["stage2_s"], 2)
        results.append(row)
    return {
        "benchmark": "traversal-backend micro-benchmark",
        "protocol": f"best of {repeats} after 1 warm-up run per arm",
        "scale": scale,
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "params": {"k": 4, "l": 4, "alpha": 1, "local_max_hops": 1},
        "results": results,
    }


def write_report(report: Dict, path: Optional[Path] = None) -> Path:
    path = path if path is not None else OUTPUT_PATH
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main() -> None:
    report = run_traversal_bench()
    path = write_report(report)
    for row in report["results"]:
        print(
            f"{row['scenario']:9s} n={row['nodes']:5d} "
            f"stage1 {row['reference']['stage1_s']*1e3:8.1f}ms -> "
            f"{row['vectorized']['stage1_s']*1e3:6.1f}ms ({row['speedup_stage1']:.1f}x)  "
            f"stage2 {row['reference']['stage2_s']*1e3:8.1f}ms -> "
            f"{row['vectorized']['stage2_s']*1e3:6.1f}ms ({row['speedup_stage2']:.1f}x)"
        )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
