"""The sensor-network connectivity graph and its traversal kernels.

:class:`SensorNetwork` holds node positions and an adjacency structure built
from a radio model, with optional line-of-sight blocking by the deployment
field's boundary (holes are physical obstacles, so links may not cross
``∂D``).  All algorithmic stages of the paper consume *only* the adjacency
structure — positions are retained purely for evaluation and rendering,
mirroring the paper's "connectivity information only" constraint.

The hop-count kernels behind every stage (k-hop neighbourhood sizes,
Voronoi-cell flooding, path reconstruction) run on the CSR
:class:`~repro.network.traversal.TraversalEngine` that
:meth:`SensorNetwork.traversal` hands out; the plain BFS here serves
connectivity queries.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from ..geometry.polygon import Field
from ..geometry.primitives import Point, segments_intersect
from .radio import RadioModel, UnitDiskRadio

__all__ = ["SensorNetwork", "build_network", "line_of_sight_blocked"]


class _BoundaryEdgeGrid:
    """Spatial hash over a field's boundary edges for fast LoS queries."""

    def __init__(self, field: Field, cell_size: float):
        self.cell_size = max(cell_size, 1e-9)
        self.edges: List[Tuple[Point, Point]] = []
        for ring in field.rings():
            self.edges.extend(ring.edges())
        self.grid: Dict[Tuple[int, int], List[int]] = {}
        for idx, (a, b) in enumerate(self.edges):
            for key in self._cells_for(min(a.x, b.x), min(a.y, b.y),
                                       max(a.x, b.x), max(a.y, b.y)):
                self.grid.setdefault(key, []).append(idx)

    def _cells_for(self, min_x: float, min_y: float,
                   max_x: float, max_y: float) -> Iterable[Tuple[int, int]]:
        c = self.cell_size
        x0, x1 = int(min_x // c), int(max_x // c)
        y0, y1 = int(min_y // c), int(max_y // c)
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                yield (gx, gy)

    def crosses_boundary(self, p: Point, q: Point) -> bool:
        """True when the open segment pq intersects any boundary edge."""
        seen: Set[int] = set()
        for key in self._cells_for(min(p.x, q.x), min(p.y, q.y),
                                   max(p.x, q.x), max(p.y, q.y)):
            for idx in self.grid.get(key, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                a, b = self.edges[idx]
                if segments_intersect(p, q, a, b):
                    return True
        return False


def line_of_sight_blocked(field: Field, p: Point, q: Point) -> bool:
    """True when the segment between *p* and *q* crosses the field boundary.

    Convenience wrapper for one-off queries; the builder uses the cached
    grid variant internally.
    """
    for ring in field.rings():
        for a, b in ring.edges():
            if segments_intersect(p, q, a, b):
                return True
    return False


class SensorNetwork:
    """An immutable connectivity graph over positioned sensor nodes.

    Node ids are the integers ``0 .. n-1``, indexing both ``positions`` and
    the adjacency lists.
    """

    def __init__(self, positions: Sequence[Point],
                 adjacency: Sequence[Sequence[int]],
                 field: Optional[Field] = None,
                 radio: Optional[RadioModel] = None):
        if len(positions) != len(adjacency):
            raise ValueError("positions and adjacency must have equal length")
        self.positions: List[Point] = list(positions)
        self.adjacency: List[List[int]] = [sorted(set(nbrs)) for nbrs in adjacency]
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if not 0 <= v < len(positions):
                    raise ValueError(f"neighbour {v} of node {u} out of range")
                if v == u:
                    raise ValueError(f"node {u} lists itself as a neighbour")
        self.field = field
        self.radio = radio
        # Lazy caches for the vectorized traversal engine.  The adjacency
        # is immutable after construction, so neither ever needs
        # invalidation.
        self._csr: Optional[sparse.csr_matrix] = None
        self._engines: Dict[int, "TraversalEngine"] = {}
        self._content_hash: Optional[str] = None

    # -- serialization ----------------------------------------------------

    def __getstate__(self):
        """Pickle as compact arrays, not Python object graphs.

        Positions travel as one ``(n, 2)`` float64 array and the adjacency
        as CSR ``(indptr, indices)`` arrays, so shipping a network to a
        worker process costs a few contiguous buffers instead of millions
        of boxed floats and list cells.  The lazy traversal caches are
        dropped (they are rebuilt on demand, and a worker may never need
        them).
        """
        n = self.num_nodes
        pos = np.empty((n, 2), dtype=np.float64)
        for i, p in enumerate(self.positions):
            pos[i, 0] = p.x
            pos[i, 1] = p.y
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([len(nbrs) for nbrs in self.adjacency], out=indptr[1:])
        indices = np.fromiter(
            (v for nbrs in self.adjacency for v in nbrs),
            dtype=np.int64, count=int(indptr[-1]) if n else 0,
        )
        return {
            "positions": pos,
            "indptr": indptr,
            "indices": indices,
            "field": self.field,
            "radio": self.radio,
            "content_hash": self._content_hash,
        }

    def __setstate__(self, state):
        pos = state["positions"]
        indptr, indices = state["indptr"], state["indices"]
        self.positions = [Point(x, y) for x, y in pos.tolist()]
        flat, bounds = indices.tolist(), indptr.tolist()
        self.adjacency = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        self.field = state["field"]
        self.radio = state["radio"]
        self._csr = None
        self._engines = {}
        self._content_hash = state.get("content_hash")

    # -- content identity --------------------------------------------------

    def content_hash(self) -> str:
        """A stable digest of the graph's content (positions + edge list).

        Two networks with the same node positions (in id order) and the
        same undirected edge set hash identically, regardless of how they
        were built; any node/edge perturbation changes the digest.  This
        is the graph half of the artifact-cache key — artifacts keyed by
        ``(content_hash, params, stage)`` can be reused across runs and
        processes without risking stale reads.  Computed once and cached
        (the graph is immutable).
        """
        if self._content_hash is None:
            h = hashlib.sha256()
            h.update(b"SensorNetwork.v1")
            h.update(np.int64(self.num_nodes).tobytes())
            pos = np.empty((self.num_nodes, 2), dtype=np.float64)
            for i, p in enumerate(self.positions):
                pos[i, 0] = p.x
                pos[i, 1] = p.y
            h.update(np.ascontiguousarray(pos).tobytes())
            edges = np.array(
                sorted((u, v) for u in self.nodes()
                       for v in self.adjacency[u] if u < v),
                dtype=np.int64,
            )
            h.update(edges.tobytes())
            self._content_hash = h.hexdigest()
        return self._content_hash

    # -- basic accessors --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @property
    def average_degree(self) -> float:
        if not self.positions:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    def neighbors(self, node: int) -> List[int]:
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def nodes(self) -> range:
        return range(self.num_nodes)

    def has_edge(self, u: int, v: int) -> bool:
        # Neighbour lists are sorted at construction, so membership is a
        # binary search rather than a linear scan.
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    # -- vectorized traversal substrate ------------------------------------

    def csr_adjacency(self) -> sparse.csr_matrix:
        """The adjacency as a cached ``scipy.sparse`` CSR matrix.

        Built lazily on first use; the graph is immutable so the cache is
        invalidation-free.  Data is int32 ones so frontier-expansion
        products count reaching neighbours without overflow.
        """
        if self._csr is None:
            n = self.num_nodes
            indptr = np.zeros(n + 1, dtype=np.int64)
            if n:
                np.cumsum([len(nbrs) for nbrs in self.adjacency],
                          out=indptr[1:])
            nnz = int(indptr[-1]) if n else 0
            indices = np.fromiter(
                (v for nbrs in self.adjacency for v in nbrs),
                dtype=np.int64, count=nnz,
            )
            data = np.ones(nnz, dtype=np.int32)
            self._csr = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        return self._csr

    def traversal(self, batch_width: Optional[int] = None) -> "TraversalEngine":
        """The cached vectorized traversal engine for this network.

        One engine is kept per requested batch width (engines are cheap —
        they share the CSR matrix — but callers normally use one width).
        """
        from .traversal import DEFAULT_BATCH_WIDTH, TraversalEngine

        width = batch_width if batch_width is not None else DEFAULT_BATCH_WIDTH
        engine = self._engines.get(width)
        if engine is None:
            engine = TraversalEngine(self, batch_width=width)
            self._engines[width] = engine
        return engine

    # -- breadth-first search ----------------------------------------------

    def bfs_distances(self, source: int, max_hops: Optional[int] = None,
                      blocked: Optional[Set[int]] = None) -> Dict[int, int]:
        """Hop distances from *source*, optionally bounded and avoiding
        *blocked* nodes (the source itself is always explored).

        Returns a dict mapping reached node -> hop count (source included
        at 0).
        """
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if max_hops is not None and du >= max_hops:
                continue
            for v in self.adjacency[u]:
                if v in dist:
                    continue
                if blocked is not None and v in blocked:
                    continue
                dist[v] = du + 1
                queue.append(v)
        return dist

    # -- connectivity ------------------------------------------------------

    def connected_components(self) -> List[List[int]]:
        """All connected components, largest first."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in self.nodes():
            if start in seen:
                continue
            comp = list(self.bfs_distances(start).keys())
            seen.update(comp)
            components.append(sorted(comp))
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        return len(self.bfs_distances(0)) == self.num_nodes

    def largest_component_subgraph(self) -> "SensorNetwork":
        """The induced subgraph on the largest connected component.

        Node ids are compacted; the paper (like all of this literature)
        assumes a connected network, so generators call this after the
        probabilistic radio models possibly fragment the graph.
        """
        comps = self.connected_components()
        if not comps:
            return self
        keep = comps[0]
        return self.induced_subgraph(keep)

    def induced_subgraph(self, keep: Sequence[int]) -> "SensorNetwork":
        """Induced subgraph on *keep*, with node ids compacted to 0..len-1."""
        keep_sorted = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep_sorted)}
        positions = [self.positions[old] for old in keep_sorted]
        adjacency = [
            [remap[v] for v in self.adjacency[old] if v in remap]
            for old in keep_sorted
        ]
        return SensorNetwork(positions, adjacency, field=self.field, radio=self.radio)

    # -- interop -----------------------------------------------------------

    def to_networkx(self):
        """Export to a :mod:`networkx` graph with position attributes."""
        import networkx as nx

        g = nx.Graph()
        for u in self.nodes():
            g.add_node(u, pos=(self.positions[u].x, self.positions[u].y))
        for u in self.nodes():
            for v in self.adjacency[u]:
                if u < v:
                    g.add_edge(u, v)
        return g


def build_network(
    positions: Sequence[Point],
    radio: Optional[RadioModel] = None,
    field: Optional[Field] = None,
    rng: Optional[random.Random] = None,
    respect_line_of_sight: bool = True,
) -> SensorNetwork:
    """Build the connectivity graph over *positions* under *radio*.

    Candidate pairs are found with a KD-tree bounded by the radio's maximum
    range, link outcomes are drawn from the model's probabilities, and —
    when *field* is given and ``respect_line_of_sight`` — links crossing the
    field boundary (walls, obstacle holes) are removed.
    """
    radio = radio if radio is not None else UnitDiskRadio(1.0)
    n = len(positions)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    if n >= 2:
        arr = np.array([[p.x, p.y] for p in positions])
        tree = cKDTree(arr)
        pairs = tree.query_pairs(r=radio.max_range, output_type="ndarray")
        if len(pairs):
            diffs = arr[pairs[:, 0]] - arr[pairs[:, 1]]
            dists = np.hypot(diffs[:, 0], diffs[:, 1])
            probs = radio.link_probability(dists)
            if radio.is_deterministic():
                accept = probs >= 1.0
            else:
                seed = rng.getrandbits(32) if rng is not None else None
                np_rng = np.random.default_rng(seed)
                accept = np_rng.random(len(probs)) < probs
            grid = None
            if field is not None and respect_line_of_sight:
                grid = _BoundaryEdgeGrid(field, cell_size=radio.max_range)
            for (u, v), ok in zip(pairs, accept):
                if not ok:
                    continue
                pu, pv = positions[int(u)], positions[int(v)]
                if grid is not None and grid.crosses_boundary(pu, pv):
                    continue
                adjacency[int(u)].append(int(v))
                adjacency[int(v)].append(int(u))
    return SensorNetwork(positions, adjacency, field=field, radio=radio)
