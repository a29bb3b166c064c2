"""Deterministic merge of per-tile stage-1 results into global artifacts.

The reduction is order-invariant by construction — stage-1 rows scatter
into disjoint owned slots — and everything downstream of it is the
monolithic code (:func:`~repro.core.voronoi.build_voronoi`,
:func:`~repro.core.coarse.build_coarse_skeleton`,
:func:`~repro.core.pipeline.finish_skeleton`), so the sharded pipeline is
bit-identical to the monolithic one at any tile count and any task
completion order (the property ``tests/test_shard_properties.py``
fuzzes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..core.neighborhood import IndexData

__all__ = ["merge_stage1"]


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
