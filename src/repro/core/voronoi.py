"""Voronoi cell construction (Section III-B).

The identified critical skeleton nodes ("sites") flood concurrently; every
node records its nearest site(s), hop distance and reverse path.  Nodes
whose best two hop distances differ by at most ``α`` are *segment nodes*;
nodes near-equidistant to three or more sites are *Voronoi nodes* — the
discrete analogue of Voronoi vertices, and the witnesses used later to spot
fake loops.  Theorem 4 guarantees each cell is connected.

This module is the centralized equivalent: exact BFS distances and parent
pointers at every recorded ``(site, node)`` pair, from one α-pruned wave
(:meth:`~repro.network.traversal.TraversalEngine.voronoi_flood`), held
in a sparse :class:`~repro.network.traversal.FloodTable`.  The
message-passing version lives in
:mod:`repro.core.distributed`; tests assert the two agree on cells and
segment sets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ..network.graph import SensorNetwork
from ..network.traversal import FloodTable
from .params import SkeletonParams

__all__ = ["VoronoiDecomposition", "build_voronoi", "flood_sites",
           "recorded_parent_row", "records_from_entries",
           "records_to_structures", "border_edges_from_cells"]

SitePair = Tuple[int, int]
"""An unordered adjacent-cell pair, stored as (low site id, high site id)."""


def _edge_arrays(network: SensorNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """Every directed adjacency entry ``(u, v)`` in CSR order: u ascending,
    then each node's adjacency order."""
    csr = network.csr_adjacency()
    u = np.repeat(np.arange(network.num_nodes, dtype=np.int64),
                  np.diff(csr.indptr))
    return u, csr.indices.astype(np.int64)


@dataclass
class VoronoiDecomposition:
    """The network partitioned into cells around critical skeleton nodes.

    Attributes:
        sites: the critical skeleton nodes, in id order.
        table: the sparse flood records — one ``(site_row, node, dist,
            parent)`` entry per recorded pair, sorted by ``(site_row,
            node)``; ``site_row`` indexes ``sites`` and ``parent`` is the
            BFS predecessor toward the site.  Empty when no stage reads
            reverse paths from it (the sharded merge resolves its paths
            per site batch instead).
        records: per node, the list of ``(site, distance)`` entries whose
            distance is within ``alpha`` of the node's best distance —
            exactly what the node "keeps record of" in Section III-B.
        cell_of: per node, the nearest site (lowest site id on exact ties).
        segment_nodes: nodes recording ≥ 2 sites.
        voronoi_nodes: nodes recording ≥ 3 sites.
        pair_segments: adjacent site pair -> the segment nodes almost
            equidistant to both sites of the pair.
        pair_border_edges: site pair -> network edges crossing the border
            between the two cells.  At low density a short cell border may
            hold no node close enough to both sites to become a segment
            node, yet the cells still touch — these edges witness that
            adjacency and serve as fallback connectors.
    """

    network: SensorNetwork
    sites: List[int]
    table: FloodTable
    records: List[List[Tuple[int, int]]]
    cell_of: List[int]
    segment_nodes: Set[int]
    voronoi_nodes: Set[int]
    pair_segments: Dict[SitePair, List[int]]
    pair_border_edges: Dict[SitePair, List[Tuple[int, int]]]

    @property
    def num_cells(self) -> int:
        return len(self.sites)

    @cached_property
    def _site_rows(self) -> Dict[int, int]:
        return {site: row for row, site in enumerate(self.sites)}

    def site_index(self, site: int) -> int:
        try:
            return self._site_rows[site]
        except KeyError:
            raise ValueError(f"{site} is not a site") from None

    def cell_members(self, site: int) -> List[int]:
        """All nodes whose nearest site is *site*."""
        return [v for v in self.network.nodes() if self.cell_of[v] == site]

    def adjacent_pairs(self) -> List[SitePair]:
        """All adjacent site pairs (segment- or border-witnessed), sorted."""
        return sorted(set(self.pair_segments) | set(self.pair_border_edges))

    def site_parent_row(self, site: int, nodes: Sequence[int]) -> np.ndarray:
        """*site*'s recorded parents as a dense length-n row, after checking
        that every one of *nodes* recorded *site*."""
        return recorded_parent_row(self.table, self.site_index(site), site,
                                   nodes, self.network.num_nodes)

    def sites_recorded_by(self, node: int) -> List[int]:
        return [site for site, _ in self.records[node]]

    def cells_are_connected(self) -> bool:
        """Theorem 4 check: every cell induces a connected subgraph.

        O(n + E): keep the edges inside a cell, label the connected
        components of what remains, and require one label per cell.
        """
        n = self.network.num_nodes
        if n == 0:
            return True
        cell = np.asarray(self.cell_of, dtype=np.int64)
        u, v = _edge_arrays(self.network)
        inside = (cell[u] == cell[v]) & (cell[u] >= 0)
        graph = sparse.csr_matrix(
            (np.ones(int(inside.sum()), dtype=np.int8), (u[inside], v[inside])),
            shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        assigned = cell >= 0
        pairs = np.unique(np.stack([cell[assigned], labels[assigned]]), axis=1)
        return pairs.shape[1] == np.unique(cell[assigned]).size


def flood_sites(network: SensorNetwork, sites: Sequence[int],
                params: SkeletonParams, tracer=None) -> FloodTable:
    """The α-pruned site flood as a :class:`FloodTable`
    (:meth:`TraversalEngine.voronoi_flood`)."""
    engine = network.traversal(params.traversal_batch_width)
    return engine.voronoi_flood(sites, params.alpha, tracer=tracer)


def recorded_parent_row(table: FloodTable, row: int, site: int,
                        nodes: Sequence[int], num_nodes: int) -> np.ndarray:
    """Row *row* (site *site*) of *table* as a dense parent row for
    reverse-path walks; raises ``ValueError`` if one of *nodes* did not
    record the site."""
    missing = ~table.recorded(row, nodes)
    if missing.any():
        node = int(np.asarray(nodes)[missing][0])
        raise ValueError(f"node {node} was not reached from site {site}")
    return table.parent_row(row, num_nodes)


def records_from_entries(num_nodes: int, node: np.ndarray, site: np.ndarray,
                         dist: np.ndarray) -> List[List[Tuple[int, int]]]:
    """Per-node ``(site, distance)`` lists sorted by ``(distance, site)``,
    from parallel entry arrays (one lexsort, no per-node scan)."""
    order = np.lexsort((site, dist, node))
    pairs = list(zip(site[order].tolist(), dist[order].tolist()))
    ends = np.cumsum(np.bincount(node, minlength=num_nodes)).tolist()
    return [pairs[start:end] for start, end in zip([0] + ends, ends)]


def records_to_structures(
    records: Sequence[Sequence[Tuple[int, int]]],
) -> Tuple[List[int], Set[int], Set[int], Dict[SitePair, List[int]]]:
    """Derive the cell structures from per-node record lists.

    Returns ``(cell_of, segment_nodes, voronoi_nodes, pair_segments)``.
    Records must already be sorted by ``(distance, site)`` per node — the
    invariant :func:`build_voronoi` establishes.  Factored out so the
    sharded merge (:mod:`repro.shard`) derives its structures through the
    exact same code path as the monolithic build: iterating nodes in
    ascending id order keeps every ``pair_segments`` list bit-identical.
    """
    cell_of = [near[0][0] if near else -1 for near in records]
    segment_nodes = {node for node, near in enumerate(records)
                     if len(near) >= 2}
    voronoi_nodes = {node for node, near in enumerate(records)
                     if len(near) >= 3}
    pair_segments: Dict[SitePair, List[int]] = {}
    for node, near in enumerate(records):
        if len(near) < 2:
            continue
        near_sites = [site for site, _ in near]
        for i in range(len(near_sites)):
            for j in range(i + 1, len(near_sites)):
                pair = (min(near_sites[i], near_sites[j]),
                        max(near_sites[i], near_sites[j]))
                pair_segments.setdefault(pair, []).append(node)
    return cell_of, segment_nodes, voronoi_nodes, pair_segments


def border_edges_from_cells(
    network: SensorNetwork, cell_of: Sequence[int],
) -> Dict[SitePair, List[Tuple[int, int]]]:
    """Edges crossing a cell border, grouped per adjacent site pair.

    Cells touch wherever an edge joins two cells, even when no node lies
    close enough to both sites to be a segment node.  Each edge is
    oriented with the lower-site cell's endpoint first; within a pair,
    edges keep the ``(u, v)`` scan order (u ascending, then adjacency
    order), and pairs appear in order of their first edge.  One
    vectorised pass over the CSR edges, shared by :func:`build_voronoi`,
    the sharded merge and the distributed lift.
    """
    if network.num_nodes == 0:
        return {}
    cell = np.asarray(cell_of, dtype=np.int64)
    u, v = _edge_arrays(network)
    cu, cv = cell[u], cell[v]
    cross = (v > u) & (cu >= 0) & (cv >= 0) & (cu != cv)
    u, v, cu, cv = u[cross], v[cross], cu[cross], cv[cross]
    if not u.size:
        return {}
    low_first = cu < cv
    lo, hi = np.where(low_first, cu, cv), np.where(low_first, cv, cu)
    a, b = np.where(low_first, u, v), np.where(low_first, v, u)
    _, first, group = np.unique(lo * network.num_nodes + hi,
                                return_index=True, return_inverse=True)
    # Stable sort by each pair's first scan position: pairs in order of
    # first appearance, edges in scan order within each pair.
    order = np.argsort(first[group], kind="stable")
    edges = list(zip(a[order].tolist(), b[order].tolist()))
    pair_lo, pair_hi = lo[order].tolist(), hi[order].tolist()
    bounds = np.flatnonzero(np.diff(first[group][order])) + 1
    pair_border_edges: Dict[SitePair, List[Tuple[int, int]]] = {}
    for start, end in zip([0, *bounds.tolist()], [*bounds.tolist(), len(edges)]):
        pair_border_edges[(pair_lo[start], pair_hi[start])] = edges[start:end]
    return pair_border_edges


def build_voronoi(network: SensorNetwork, sites: Sequence[int],
                  params: Optional[SkeletonParams] = None,
                  cache=None, tracer=None) -> VoronoiDecomposition:
    """Partition *network* into Voronoi cells around *sites*.

    Follows Section III-B with exact distances: each node's record set is
    every site within ``alpha`` hops of its best distance; the node's cell
    is its nearest site (lowest id on ties, a deterministic stand-in for
    "first wave to arrive").

    With *cache*, the decomposition is memoized under the graph's content
    hash, the site set and ``alpha``.  The cached artifact stores
    ``network=None`` so the graph is hashed once, never pickled per
    artifact; the caller's network is rebound on every hit.
    """
    params = params if params is not None else SkeletonParams()
    sites = sorted(set(sites))
    if not sites:
        raise ValueError("at least one site is required")
    if cache is not None:
        detached = cache.get_or_build(
            "voronoi",
            (network.content_hash(), tuple(sites), params.alpha),
            lambda: dataclasses.replace(
                build_voronoi(network, sites, params, tracer=tracer),
                network=None,
            ),
            tracer=tracer,
        )
        return dataclasses.replace(detached, network=network)
    # The pruned table holds exactly the record set (and the dense BFS's
    # distances and parents at those pairs).  Nodes no site reaches get no
    # records.
    table = flood_sites(network, sites, params, tracer=tracer)
    records = records_from_entries(
        network.num_nodes, table.node,
        np.asarray(sites, dtype=np.int64)[table.site_row], table.dist)

    cell_of, segment_nodes, voronoi_nodes, pair_segments = \
        records_to_structures(records)
    pair_border_edges = border_edges_from_cells(network, cell_of)

    return VoronoiDecomposition(
        network=network,
        sites=list(sites),
        table=table,
        records=records,
        cell_of=cell_of,
        segment_nodes=segment_nodes,
        voronoi_nodes=voronoi_nodes,
        pair_segments=pair_segments,
        pair_border_edges=pair_border_edges,
    )
