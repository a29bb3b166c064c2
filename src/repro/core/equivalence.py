"""Result equivalence checking: is one extraction bit-identical to another?

:func:`diff_results` compares every artifact two runs of the pipeline
should agree on — a reference run (usually a direct monolithic
extraction) against a candidate (sharded, served, cached, or run on the
reference engine) — stage by stage, so a mismatch names the first
divergent artifact instead of just "skeletons differ".
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..network.traversal import FloodTable
from .result import SkeletonResult

__all__ = ["diff_results", "assert_equivalent"]


def _diff(label: str, a, b, out: List[str]) -> None:
    if a != b:
        out.append(f"{label}: reference {_brief(a)} != candidate {_brief(b)}")


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def diff_results(reference: SkeletonResult,
                 candidate: SkeletonResult) -> List[str]:
    """All artifact mismatches between a *reference* run and a
    *candidate* run.

    Empty list ⇔ the runs are node-for-node, edge-for-edge, loop-for-loop
    identical.  Comparison order follows the pipeline so the first entry
    points at the earliest divergent stage.
    """
    out: List[str] = []
    _diff("stage1.khop_sizes", reference.index_data.khop_sizes,
          candidate.index_data.khop_sizes, out)
    _diff("stage1.centrality", reference.index_data.centrality,
          candidate.index_data.centrality, out)
    _diff("stage1.index", reference.index_data.index,
          candidate.index_data.index, out)
    _diff("stage1.critical_nodes", reference.critical_nodes,
          candidate.critical_nodes, out)
    _diff("stage2.sites", reference.voronoi.sites, candidate.voronoi.sites,
          out)
    for name, a, b in zip(FloodTable._fields, reference.voronoi.table,
                          candidate.voronoi.table):
        if not np.array_equal(a, b):
            out.append(f"stage2.table.{name}: reference {_brief(a)} != "
                       f"candidate {_brief(b)}")
    _diff("stage2.records", reference.voronoi.records,
          candidate.voronoi.records, out)
    _diff("stage2.cell_of", reference.voronoi.cell_of,
          candidate.voronoi.cell_of, out)
    _diff("stage2.segment_nodes", reference.voronoi.segment_nodes,
          candidate.voronoi.segment_nodes, out)
    _diff("stage2.voronoi_nodes", reference.voronoi.voronoi_nodes,
          candidate.voronoi.voronoi_nodes, out)
    _diff("stage2.pair_segments", reference.voronoi.pair_segments,
          candidate.voronoi.pair_segments, out)
    _diff("stage2.pair_border_edges", reference.voronoi.pair_border_edges,
          candidate.voronoi.pair_border_edges, out)
    _diff("stage3.connectors", reference.coarse.connectors,
          candidate.coarse.connectors, out)
    _diff("stage3.pair_paths", reference.coarse.pair_paths,
          candidate.coarse.pair_paths, out)
    _diff("stage3.nodes", reference.coarse.nodes, candidate.coarse.nodes,
          out)
    _diff("stage3.edges", reference.coarse.edges, candidate.coarse.edges,
          out)
    _diff("stage4.kept_pairs", reference.loop_analysis.kept_pairs,
          candidate.loop_analysis.kept_pairs, out)
    _diff("stage4.removed_pairs", reference.loop_analysis.removed_pairs,
          candidate.loop_analysis.removed_pairs, out)
    _diff(
        "stage4.loops",
        [(loop.sites, loop.ordered, loop.is_fake)
         for loop in reference.loop_analysis.loops],
        [(loop.sites, loop.ordered, loop.is_fake)
         for loop in candidate.loop_analysis.loops],
        out,
    )
    _diff("skeleton.nodes", reference.skeleton.nodes,
          candidate.skeleton.nodes, out)
    _diff("skeleton.edges", reference.skeleton.edges,
          candidate.skeleton.edges, out)
    _diff("byproduct.segmentation", reference.segmentation.segments,
          candidate.segmentation.segments, out)
    _diff("byproduct.boundary_nodes", reference.boundary_nodes,
          candidate.boundary_nodes, out)
    return out


def assert_equivalent(reference: SkeletonResult,
                      candidate: SkeletonResult) -> None:
    """Raise :class:`AssertionError` with the full diff on any mismatch."""
    mismatches = diff_results(reference, candidate)
    if mismatches:
        raise AssertionError(
            "candidate extraction diverged from the reference:\n  "
            + "\n  ".join(mismatches)
        )
