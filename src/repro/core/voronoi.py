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

__all__ = ["VoronoiDecomposition", "build_voronoi", "within_alpha_of_best",
           "voronoi_from_entries", "border_edges_from_cells"]

SitePair = Tuple[int, int]
"""An unordered adjacent-cell pair, stored as (low site id, high site id)."""

Entries = Tuple[np.ndarray, np.ndarray, np.ndarray]
"""Parallel ``(node, site, dist)`` arrays of record entries, in any order."""

# Cached views of a VoronoiDecomposition, left out of its pickles.
_LIST_VIEWS = ("records", "cell_of", "_site_rows")


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
            BFS predecessor toward the site.  Empty in the empty result.
        record_ptr, record_site, record_dist: the records, a CSR over
            nodes sorted by ``(distance, site)`` per node: every site within
            ``alpha`` of the node's best distance, exactly what the node
            "keeps record of" in Section III-B.
        cell: per node, the nearest site (lowest site id on exact ties);
            -1 where no site reached the node.
        segment_nodes: nodes recording ≥ 2 sites.
        voronoi_nodes: nodes recording ≥ 3 sites.
        pair_segments: adjacent site pair -> the segment nodes almost
            equidistant to both sites of the pair.
        pair_border_edges: site pair -> network edges crossing the border
            between the two cells.  At low density a short cell border may
            hold no node close enough to both sites to become a segment
            node, yet the cells still touch — these edges witness that
            adjacency and serve as fallback connectors.

    ``records`` and ``cell_of`` are Python-list views of the arrays, built
    on first read and cached; mutating them changes nothing.  Pickles
    carry the arrays only.
    """

    network: SensorNetwork
    sites: List[int]
    table: FloodTable
    record_ptr: np.ndarray
    record_site: np.ndarray
    record_dist: np.ndarray
    cell: np.ndarray
    segment_nodes: Set[int]
    voronoi_nodes: Set[int]
    pair_segments: Dict[SitePair, List[int]]
    pair_border_edges: Dict[SitePair, List[Tuple[int, int]]]

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key not in _LIST_VIEWS}

    @cached_property
    def records(self) -> List[List[Tuple[int, int]]]:
        """Per node, its ``(site, distance)`` records in that CSR order."""
        pairs = list(zip(self.record_site.tolist(), self.record_dist.tolist()))
        ptr = self.record_ptr.tolist()
        return [pairs[lo:hi] for lo, hi in zip(ptr, ptr[1:])]

    @cached_property
    def cell_of(self) -> List[int]:
        """``cell`` as a list of Python ints."""
        return self.cell.tolist()

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
        return np.flatnonzero(self.cell == site).tolist()

    def adjacent_pairs(self) -> List[SitePair]:
        """All adjacent site pairs (segment- or border-witnessed), sorted."""
        return sorted(set(self.pair_segments) | set(self.pair_border_edges))

    def site_parent_row(self, site: int, nodes: Sequence[int]) -> np.ndarray:
        """*site*'s recorded parents as a dense length-n row, for
        reverse-path walks; raises ``ValueError`` if one of *nodes* did not
        record *site*."""
        row = self.site_index(site)
        missing = ~self.table.recorded(row, nodes)
        if missing.any():
            node = int(np.asarray(nodes)[missing][0])
            raise ValueError(f"node {node} was not reached from site {site}")
        return self.table.parent_row(row, self.network.num_nodes)

    def sites_recorded_by(self, node: int) -> List[int]:
        lo, hi = self.record_ptr[node:node + 2].tolist()
        return self.record_site[lo:hi].tolist()

    def cells_are_connected(self) -> bool:
        """Theorem 4 check: every cell induces a connected subgraph.

        O(n + E): keep the edges inside a cell, label the connected
        components of what remains, and require one label per cell.
        """
        n = self.network.num_nodes
        if n == 0:
            return True
        cell = self.cell
        u, v = _edge_arrays(self.network)
        inside = (cell[u] == cell[v]) & (cell[u] >= 0)
        graph = sparse.csr_matrix(
            (np.ones(int(inside.sum()), dtype=np.int8), (u[inside], v[inside])),
            shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        assigned = cell >= 0
        pairs = np.unique(np.stack([cell[assigned], labels[assigned]]), axis=1)
        return pairs.shape[1] == np.unique(cell[assigned]).size


def within_alpha_of_best(node: np.ndarray, dist: np.ndarray,
                         num_nodes: int, alpha: int) -> np.ndarray:
    """Mask of the ``(node, dist)`` entries within *alpha* of their
    node's best (smallest) distance among all entries: the record
    filter applied to flood candidates gathered from more than one wave.
    """
    best = np.full(num_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, node, dist)
    return dist <= best[node] + alpha


def _first_seen_groups(keys: np.ndarray) -> Tuple[np.ndarray, list, list]:
    """Group equal *keys*: the permutation that lists the groups in order
    of their first occurrence, each keeping its input order, and every
    group's ``[start, end)`` bounds in that permutation."""
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    rank = first[group]
    order = np.argsort(rank, kind="stable")
    starts = np.flatnonzero(np.diff(rank[order], prepend=-1)).tolist()
    return order, starts, starts[1:] + [keys.size]


def _pair_segments(ptr: np.ndarray, node: np.ndarray,
                   site: np.ndarray) -> Dict[SitePair, List[int]]:
    """Every site pair ``(i, j)``, ``i < j``, of each node's sorted
    records, grouped per unordered pair: pairs in order of first
    appearance in (node, i, j) order, nodes ascending within a pair."""
    # Per entry, how many later entries its node holds: the pairs it opens.
    later = np.repeat(ptr[1:], np.diff(ptr)) - np.arange(site.size) - 1
    first = np.repeat(np.arange(site.size), later)
    opened = np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + np.arange(first.size) - opened
    lo = np.minimum(site[first], site[second])
    hi = np.maximum(site[first], site[second])
    order, starts, ends = _first_seen_groups(lo * ptr.size + hi)
    nodes = node[first][order].tolist()
    lo, hi = lo[order].tolist(), hi[order].tolist()
    return {(lo[a], hi[a]): nodes[a:b] for a, b in zip(starts, ends)}


def border_edges_from_cells(
    network: SensorNetwork, cell: Sequence[int],
) -> Dict[SitePair, List[Tuple[int, int]]]:
    """Edges crossing a cell border, grouped per adjacent site pair.

    Cells touch wherever an edge joins two cells, even when no node lies
    close enough to both sites to be a segment node.  Each edge is
    oriented with the lower-site cell's endpoint first; within a pair,
    edges keep the ``(u, v)`` scan order (u ascending, then adjacency
    order), and pairs appear in order of their first edge.  One
    vectorised pass over the CSR edges.
    """
    if network.num_nodes == 0:
        return {}
    cell = np.asarray(cell, dtype=np.int64)
    u, v = _edge_arrays(network)
    cu, cv = cell[u], cell[v]
    cross = (v > u) & (cu >= 0) & (cv >= 0) & (cu != cv)
    u, v, cu, cv = u[cross], v[cross], cu[cross], cv[cross]
    low_first = cu < cv
    lo, hi = np.where(low_first, cu, cv), np.where(low_first, cv, cu)
    a, b = np.where(low_first, u, v), np.where(low_first, v, u)
    order, starts, ends = _first_seen_groups(lo * network.num_nodes + hi)
    edges = list(zip(a[order].tolist(), b[order].tolist()))
    lo, hi = lo[order].tolist(), hi[order].tolist()
    return {(lo[s], hi[s]): edges[s:e] for s, e in zip(starts, ends)}


def voronoi_from_entries(network: SensorNetwork, sites: Sequence[int],
                         entries: Entries,
                         table: FloodTable) -> VoronoiDecomposition:
    """The decomposition whose records are *entries*.

    One lexsort orders the entries by ``(node, dist, site)`` into the
    record CSR; cells, segment and Voronoi nodes, pair segments and
    border edges follow with array operations.  Each ``(site, node)``
    pair may appear once.  The monolithic build, the distributed lift and
    the empty result all assemble theirs here.
    """
    node, site, dist = (np.asarray(a, dtype=np.int64) for a in entries)
    order = np.lexsort((site, dist, node))
    node, site, dist = node[order], site[order], dist[order]
    n = network.num_nodes
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(node, minlength=n), out=ptr[1:])
    count = np.diff(ptr)
    cell = np.full(n, -1, dtype=np.int64)
    cell[count > 0] = site[ptr[:-1][count > 0]]
    return VoronoiDecomposition(
        network=network,
        sites=list(sites),
        table=table,
        record_ptr=ptr, record_site=site, record_dist=dist,
        cell=cell,
        segment_nodes=set(np.flatnonzero(count >= 2).tolist()),
        voronoi_nodes=set(np.flatnonzero(count >= 3).tolist()),
        pair_segments=_pair_segments(ptr, node, site),
        pair_border_edges=border_edges_from_cells(network, cell),
    )


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
    engine = network.traversal(params.traversal_batch_width)
    table = engine.voronoi_flood(sites, params.alpha, tracer=tracer)
    entries = (table.node, np.asarray(sites, dtype=np.int64)[table.site_row],
               table.dist)
    return voronoi_from_entries(network, sites, entries, table)
