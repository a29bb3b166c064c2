"""Deterministic merge of per-shard results into global artifacts.

Every reduction here is order-invariant by construction — stage-1 rows
scatter into disjoint owned slots, flood candidates re-filter against an
elementwise-minimum best, and all assembly iterates nodes/sites in id
order — so the merged pipeline is bit-identical to the monolithic one at
any tile count and any task completion order (the property
``tests/test_shard_properties.py`` fuzzes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..core.coarse import (
    CoarseSkeleton,
    ConnectorPlan,
    compose_pair_path,
    path_edges,
)
from ..core.neighborhood import IndexData
from ..core.voronoi import (
    Entries,
    SitePair,
    VoronoiDecomposition,
    voronoi_from_entries,
)
from ..network.graph import SensorNetwork
from ..network.traversal import FloodTable

__all__ = ["merge_stage1", "merge_flood_records", "assemble_voronoi",
           "assemble_coarse"]


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
    """Reduce per-batch flood candidates to the global record entries.

    The first wave to reach a node is always recorded, so the minimum
    over all candidates is the node's global best distance; candidates
    are re-filtered against ``global best + alpha``.  Each batch keeps
    everything within ``alpha`` of its *batch* best — a superset of what
    survives the global filter — so the reduction loses nothing and is
    associative, and order-invariant once :func:`assemble_voronoi` sorts.
    """
    results = list(batch_results)
    node, site, dist = (
        np.concatenate([np.empty(0, dtype=np.int64)]
                       + [np.asarray(r[key], dtype=np.int64) for r in results])
        for key in ("cand_node", "cand_site", "cand_dist"))
    best = np.full(num_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, node, dist)
    keep = dist <= best[node] + alpha
    return node[keep], site[keep], dist[keep]


def assemble_voronoi(network: SensorNetwork, sites: Sequence[int],
                     entries: Entries) -> VoronoiDecomposition:
    """A :class:`VoronoiDecomposition` from merged record entries.

    Cell structures derive through the same builder the monolithic build
    uses.  The flood table is deliberately empty: the paths phase resolves
    reverse paths per site batch, and no later stage reads the table
    (loop classification, refinement and the by-products consume records,
    cells and pair paths only).
    """
    return voronoi_from_entries(network, sorted(int(s) for s in sites),
                                entries, FloodTable.empty())


def assemble_coarse(network: SensorNetwork, sites: Sequence[int],
                    connectors: Dict[SitePair, int],
                    plans: Sequence[ConnectorPlan],
                    resolved_paths: Dict[Tuple[int, int], List[int]],
                    ) -> CoarseSkeleton:
    """Stitch resolved half paths into the global coarse skeleton.

    This is the cross-tile seam stitch: each pair's two halves — possibly
    realized by different shards — compose through the same
    :func:`~repro.core.coarse.compose_pair_path` the monolithic builder
    uses, so seam-crossing segment paths come out node-for-node equal.
    """
    nodes: Set[int] = set(int(s) for s in sites)
    edges = set()
    pair_paths: Dict[SitePair, List[int]] = {}
    for pair, (site_a, node_a), (site_b, node_b), joined in plans:
        half_a = resolved_paths.get((site_a, node_a))
        half_b = resolved_paths.get((site_b, node_b))
        if half_a is None or half_b is None:
            raise KeyError(f"unresolved path halves for pair {pair}")
        full = compose_pair_path(half_a, half_b, joined)
        pair_paths[pair] = full
        nodes.update(full)
        edges.update(path_edges(full))
    return CoarseSkeleton(
        network=network,
        nodes=nodes,
        edges=edges,
        sites=sorted(int(s) for s in sites),
        connectors=connectors,
        pair_paths=pair_paths,
    )
