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
    SitePair,
    VoronoiDecomposition,
    border_edges_from_cells,
    records_from_entries,
    records_to_structures,
)
from ..network.graph import SensorNetwork
from ..network.traversal import FloodTable
from .tile import _FAR

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
                        batch_results: Iterable[Dict],
                        ) -> List[List[Tuple[int, int]]]:
    """Reduce per-batch flood candidates to the global record lists.

    The global best distance per node is the minimum of the batch bests;
    candidates are re-filtered against ``global best + alpha``.  Each
    batch keeps everything within ``alpha`` of its *batch* best — a
    superset of what survives the global filter — so the reduction loses
    nothing and is associative and order-invariant.  Output records are
    sorted ``(distance, site)`` per node, the
    :func:`~repro.core.voronoi.build_voronoi` invariant.
    """
    best = np.full(num_nodes, _FAR, dtype=np.int64)
    nodes_parts: List[np.ndarray] = []
    sites_parts: List[np.ndarray] = []
    dists_parts: List[np.ndarray] = []
    for result in batch_results:
        np.minimum(best, np.asarray(result["best"], dtype=np.int64), out=best)
        nodes_parts.append(np.asarray(result["cand_node"], dtype=np.int64))
        sites_parts.append(np.asarray(result["cand_site"], dtype=np.int64))
        dists_parts.append(np.asarray(result["cand_dist"], dtype=np.int64))
    if not nodes_parts:
        return [[] for _ in range(num_nodes)]
    node = np.concatenate(nodes_parts)
    site = np.concatenate(sites_parts)
    dist = np.concatenate(dists_parts)
    keep = dist <= best[node] + alpha
    return records_from_entries(num_nodes, node[keep], site[keep], dist[keep])


def assemble_voronoi(network: SensorNetwork, sites: Sequence[int],
                     records: List[List[Tuple[int, int]]],
                     ) -> VoronoiDecomposition:
    """A :class:`VoronoiDecomposition` from merged records.

    Cell structures derive through the same helpers the monolithic build
    uses.  The flood table is deliberately empty: the paths phase resolves
    reverse paths per site batch, and no later stage reads the table
    (loop classification, refinement and the by-products consume records,
    cells and pair paths only).
    """
    cell_of, segment_nodes, voronoi_nodes, pair_segments = \
        records_to_structures(records)
    pair_border_edges = border_edges_from_cells(network, cell_of)
    return VoronoiDecomposition(
        network=network,
        sites=sorted(int(s) for s in sites),
        table=FloodTable.empty(),
        records=records,
        cell_of=cell_of,
        segment_nodes=segment_nodes,
        voronoi_nodes=voronoi_nodes,
        pair_segments=pair_segments,
        pair_border_edges=pair_border_edges,
    )


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
