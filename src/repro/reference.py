"""The pure-Python traversal oracle, for the tests.

Every stage of the pipeline reads its hop counts from
``network.traversal(width)``, a :class:`~repro.network.TraversalEngine`
of batched CSR kernels.  :class:`ReferenceEngine` answers the same calls
with textbook traversals: one bounded BFS per node for the k-hop census
and l-centrality, one FIFO BFS per site for the flood, one parent walk
per reverse path.  It is slow by design and easy to check by eye.

Inside :func:`use_reference_engine` every network hands out a
``ReferenceEngine`` instead of its kernel engine, so the unchanged
pipeline — monolithic or sharded, with serial task execution — runs on
the oracle.  The kernels must reproduce every artifact bit for bit.
:func:`per_node_structures` derives the stage-2 structures one node
at a time, the oracle of the array builder.

No module of the package imports this one; only the tests do.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple
from unittest import mock

import numpy as np

from .network.graph import SensorNetwork
from .network.traversal import UNREACHED, FloodTable

__all__ = [
    "ReferenceEngine",
    "use_reference_engine",
    "is_locally_maximal",
    "path_to_source",
    "path_to_site",
    "per_node_records",
    "per_node_structures",
]


def use_reference_engine():
    """A context manager under which ``SensorNetwork.traversal`` returns
    a :class:`ReferenceEngine` (the batch width is ignored).

    Worker processes do not see the patch; run pools serially inside it.
    """
    return mock.patch.object(
        SensorNetwork, "traversal",
        lambda network, batch_width=None: ReferenceEngine(network))


def is_locally_maximal(network: SensorNetwork, node: int,
                       values: Sequence[float], hops: int = 1) -> bool:
    """True when ``(values[node], node)`` beats all of node's *hops*-hop
    neighbours lexicographically (Definition 5 for one node)."""
    mine = (values[node], node)
    if hops == 1:
        # The 1-hop ball is exactly the adjacency list — no BFS.
        return all((values[v], v) < mine for v in network.adjacency[node])
    reach = network.bfs_distances(node, max_hops=hops)
    return all((values[other], other) < mine
               for other in reach if other != node)


def path_to_source(parent_row, node: int) -> List[int]:
    """The stored reverse path from *node* to the source of one BFS row
    (the source has parent -1); *parent_row* maps each node to its parent
    (a dense array, or a dict of the recorded nodes).

    Parent chains are acyclic by construction; the cycle guard is kept
    because a wrong ``(dist, parent)`` pairing is an easy bug.
    """
    path = [node]
    current = node
    seen = {node}
    while parent_row[current] != -1:
        current = int(parent_row[current])
        if current in seen:
            raise RuntimeError("cycle in parent pointers")
        seen.add(current)
        path.append(current)
    return path


def path_to_site(voronoi, node: int, site: int) -> List[int]:
    """The recorded reverse path from *node* to *site* (inclusive) in a
    :class:`~repro.core.voronoi.VoronoiDecomposition`; raises
    ``ValueError`` if *node* did not record *site*."""
    return ReferenceEngine(voronoi.network).reconstruct_paths(
        voronoi.table, [voronoi.site_index(site)], [node])[0]


def per_node_records(num_nodes: int, node: Sequence[int],
                         site: Sequence[int], dist: Sequence[int],
                         ) -> List[List[Tuple[int, int]]]:
    """Per-node ``(site, distance)`` lists sorted by ``(distance, site)``,
    from parallel record-entry sequences."""
    records: List[List[Tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for v, d, s in sorted(zip(node, dist, site)):
        records[int(v)].append((int(s), int(d)))
    return records


def per_node_structures(
    records: Sequence[Sequence[Tuple[int, int]]],
) -> Tuple[List[int], Set[int], Set[int], Dict[Tuple[int, int], List[int]]]:
    """``(cell_of, segment_nodes, voronoi_nodes, pair_segments)`` from
    sorted per-node records, one node at a time in ascending id order."""
    cell_of = [near[0][0] if near else -1 for near in records]
    segment_nodes = {node for node, near in enumerate(records)
                     if len(near) >= 2}
    voronoi_nodes = {node for node, near in enumerate(records)
                     if len(near) >= 3}
    pair_segments: Dict[Tuple[int, int], List[int]] = {}
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


class ReferenceEngine:
    """Per-node and per-source BFS behind the
    :class:`~repro.network.TraversalEngine` methods the pipeline calls.

    Each method returns what the kernel of the same name returns, entry
    for entry.  ``tracer`` is accepted for signature parity and ignored.
    """

    def __init__(self, network: SensorNetwork):
        self.network = network
        self.n = network.num_nodes

    # -- k-hop sizes and l-centrality -------------------------------------

    def all_khop_sizes(self, k: int, include_self: bool = True,
                       tracer=None) -> np.ndarray:
        """``|N_k(p)|`` for every node, one bounded BFS per node.

        With ``include_self`` the node itself counts (it is at hop 0 of
        itself); the paper's "nodes at most k hops from p" admits either
        convention and the index is unaffected up to a constant.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        offset = 0 if include_self else -1
        bfs = self.network.bfs_distances
        return np.array([len(bfs(node, max_hops=k)) + offset
                         for node in self.network.nodes()], dtype=np.int64)

    def l_centrality(self, l: int, khop_sizes: Sequence[int],
                     include_self: bool = True, tracer=None) -> np.ndarray:
        """Definition 3: the average k-hop size over each node's l-hop
        neighbours."""
        if l < 1:
            raise ValueError("l must be at least 1")
        if len(khop_sizes) != self.n:
            raise ValueError("khop_sizes length must equal the node count")
        centrality = []
        for node in self.network.nodes():
            reach = self.network.bfs_distances(node, max_hops=l)
            members = [v for v in reach if include_self or v != node]
            total = sum(int(khop_sizes[v]) for v in members)
            centrality.append(total / len(members) if members else 0.0)
        return np.array(centrality, dtype=np.float64)

    def khop_stats(self, k: int, l: int, include_self: bool = True,
                   tracer=None) -> Tuple[np.ndarray, np.ndarray]:
        """``(|N_k(p)|, c_l(p))`` for every node."""
        sizes = self.all_khop_sizes(k, include_self=include_self)
        return sizes, self.l_centrality(l, sizes, include_self=include_self)

    # -- local-maxima election --------------------------------------------

    def all_local_maxima(self, values: Sequence[float], hops: int = 1,
                         tracer=None) -> np.ndarray:
        """Boolean mask of the nodes :func:`is_locally_maximal` elects."""
        return np.array([is_locally_maximal(self.network, node, values, hops)
                         for node in self.network.nodes()], dtype=bool)

    # -- site floods --------------------------------------------------------

    def multi_source_distances(
        self, sources: Sequence[int], blocked: Optional[Set[int]] = None,
        tracer=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full FIFO BFS from every source.

        Returns ``(dist, parent)`` of shape ``(len(sources), n)``; ``dist``
        holds hop counts (:data:`UNREACHED` where unreached) and ``parent``
        the BFS predecessor toward each source (-1 at the source and at
        unreached nodes) — the "reverse paths" of Section III-B.
        """
        m, n = len(sources), self.n
        dist = np.full((m, n), UNREACHED, dtype=np.int32)
        parent = np.full((m, n), -1, dtype=np.int32)
        adjacency = self.network.adjacency
        for row, src in enumerate(sources):
            drow, prow = dist[row], parent[row]
            drow[src] = 0
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in adjacency[u]:
                    if drow[v] != UNREACHED:
                        continue
                    if blocked is not None and v in blocked:
                        continue
                    drow[v] = drow[u] + 1
                    prow[v] = u
                    queue.append(v)
        return dist, parent

    def voronoi_flood(self, sites: Sequence[int], alpha: int,
                      tracer=None) -> FloodTable:
        """The dense flood's pairs within *alpha* of each node's best
        distance — what the pruned wave records."""
        dist, parent = self.multi_source_distances(sites)
        reached = dist != UNREACHED
        if not reached.size:
            return FloodTable.empty()
        best = np.where(reached, dist, np.iinfo(np.int32).max).min(axis=0)
        # Row-major nonzero order is (site_row, node) order.
        rows, nodes = np.nonzero(reached & (dist <= best + alpha))
        return FloodTable(rows.astype(np.int64), nodes.astype(np.int64),
                          dist[rows, nodes].astype(np.int64),
                          parent[rows, nodes].astype(np.int64))

    def reconstruct_paths(self, table: FloodTable, rows: Sequence[int],
                          nodes: Sequence[int],
                          tracer=None) -> List[List[int]]:
        """One :func:`path_to_source` walk per ``(row, node)`` pair, over
        that row's recorded parents."""
        paths = []
        parents: Dict[int, Dict[int, int]] = {}
        for row, node in zip(rows, nodes):
            if row not in parents:
                mine = table.site_row == row
                parents[row] = dict(zip(table.node[mine].tolist(),
                                        table.parent[mine].tolist()))
            parent = parents[row]
            if node not in parent:
                raise ValueError(f"node {node} was not reached from the "
                                 f"site of flood row {row}")
            paths.append(path_to_source(parent, node))
        return paths

    # -- distance-only sweeps ----------------------------------------------

    def hop_distances(self, sources: Sequence[int],
                      max_hops: Optional[int] = None,
                      tracer=None) -> np.ndarray:
        """Hop distances from each source, one BFS per source bounded at
        *max_hops*."""
        if max_hops is not None and max_hops < 0:
            raise ValueError("max_hops must be >= 0")
        dist = np.full((len(sources), self.n), UNREACHED, dtype=np.int32)
        for row, src in enumerate(sources):
            for node, d in self.network.bfs_distances(src, max_hops).items():
                dist[row, node] = d
        return dist

    def min_hop_distance(self, sources: Sequence[int],
                         tracer=None) -> np.ndarray:
        """Hop distance from every node to the nearest of *sources*: one
        multi-source deque sweep."""
        dist = [UNREACHED] * self.n
        queue = deque()
        for b in sources:
            if dist[b] == UNREACHED:
                dist[b] = 0
                queue.append(b)
        while queue:
            u = queue.popleft()
            for v in self.network.adjacency[u]:
                if dist[v] == UNREACHED:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return np.array(dist, dtype=np.int32)
