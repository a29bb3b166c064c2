"""Deterministic merge of per-shard results into global artifacts.

Both reductions here are order-invariant by construction — stage-1 rows
scatter into disjoint owned slots, and flood table entries re-filter against
an elementwise-minimum best — and everything downstream of them is the
monolithic code (:func:`~repro.core.voronoi.voronoi_from_entries`, the
stage-3 build in :mod:`repro.core.coarse`,
:func:`~repro.core.pipeline.finish_skeleton`), so the merged pipeline is
bit-identical to the monolithic one at any tile count and any task
completion order (the property ``tests/test_shard_properties.py``
fuzzes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..core.neighborhood import IndexData
from ..core.voronoi import Entries, within_alpha_of_best

__all__ = ["merge_stage1", "merge_flood_records"]


def merge_stage1(num_nodes: int,
                 tile_results: Iterable[Dict],
                 ) -> Tuple[IndexData, List[int]]:
    """Combine per-tile stage-1 outputs into global index data + sites.

    Tiles own disjoint node sets (the ownership partition), so scattering
    owned rows fills every slot exactly once regardless of input order.
    """
    khop = np.zeros(num_nodes, dtype=np.int64)
    centrality = np.zeros(num_nodes, dtype=np.float64)
    index = np.zeros(num_nodes, dtype=np.float64)
    filled = np.zeros(num_nodes, dtype=bool)
    critical: List[int] = []
    for result in tile_results:
        owned = np.asarray(result["owned"], dtype=np.int64)
        if filled[owned].any():
            raise ValueError("tile results overlap: a node is double-owned")
        filled[owned] = True
        khop[owned] = result["khop"]
        centrality[owned] = result["centrality"]
        index[owned] = result["index"]
        critical.extend(int(v) for v in result["critical"])
    if not filled.all():
        missing = int(np.flatnonzero(~filled)[0])
        raise ValueError(f"tile results incomplete: node {missing} unowned")
    return (
        IndexData(khop_sizes=khop.tolist(), centrality=centrality.tolist(),
                  index=index.tolist()),
        sorted(critical),
    )


def merge_flood_records(num_nodes: int, alpha: int,
                        batch_results: Iterable[Dict]) -> Entries:
    """Reduce per-batch flood tables to the global record entries.

    Each result is a :func:`~repro.shard.tile.flood_batch_task` output,
    its ``table`` rows indexing its ``sites``.  The first wave to reach a
    node is always recorded, so the minimum over all candidates is the
    node's global best distance; candidates are re-filtered against
    ``global best + alpha``.  Each batch keeps everything within
    ``alpha`` of its *batch* best — a superset of what survives the
    global filter — so the reduction loses nothing and is associative,
    and order-invariant once
    :func:`~repro.core.voronoi.voronoi_from_entries` sorts.
    """
    empty = np.empty(0, dtype=np.int64)
    node, site, dist = [empty], [empty], [empty]
    for result in batch_results:
        table = result["table"]
        node.append(table.node)
        site.append(np.asarray(result["sites"], dtype=np.int64)[table.site_row])
        dist.append(table.dist)
    node, site, dist = (np.concatenate(parts) for parts in (node, site, dist))
    keep = within_alpha_of_best(node, dist, num_nodes, alpha)
    return node[keep], site[keep], dist[keep]
