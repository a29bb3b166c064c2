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
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

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

    The stored form is three arrays: positions as one ``(n, 2)`` float64
    array and the adjacency as CSR ``indptr``/``indices`` int64 arrays
    (each row sorted and duplicate-free).  ``positions``, ``adjacency``,
    :meth:`neighbors` and :meth:`has_edge` read Python-list views of those
    arrays, built on first use and cached like the CSR matrix; the
    extraction pipeline never builds them.
    """

    def __init__(self, positions: Sequence[Point],
                 adjacency: Sequence[Sequence[int]],
                 field: Optional[Field] = None,
                 radio: Optional[RadioModel] = None):
        n = len(positions)
        if n != len(adjacency):
            raise ValueError("positions and adjacency must have equal length")
        pos = np.array([(p.x, p.y) for p in positions], dtype=np.float64)
        counts = np.fromiter((len(nbrs) for nbrs in adjacency),
                             dtype=np.int64, count=n)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        cols = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64,
                           count=int(counts.sum()))
        bad = (cols < 0) | (cols >= n) | (cols == rows)
        if bad.any():
            # Report what a scan of each node's sorted neighbours meets
            # first: the smallest offending id of the lowest offending node.
            u = int(rows[bad].min())
            v = int(cols[bad & (rows == u)].min())
            if v == u:
                raise ValueError(f"node {u} lists itself as a neighbour")
            raise ValueError(f"neighbour {v} of node {u} out of range")
        # One sort of the (row, col) keys dedups and orders every row.
        rows, cols = np.divmod(np.unique(rows * n + cols), max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self._set_arrays(pos.reshape(n, 2), indptr, cols, field, radio)

    def _set_arrays(self, pos: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, field: Optional[Field],
                    radio: Optional[RadioModel],
                    content_hash: Optional[str] = None) -> None:
        """Install the stored arrays and reset every derived cache."""
        self._pos = pos
        self._indptr = indptr
        self._indices = indices
        self.field = field
        self.radio = radio
        # Lazy caches.  The graph is immutable after construction, so none
        # of them ever needs invalidation.
        self._positions: Optional[List[Point]] = None
        self._adjacency: Optional[List[List[int]]] = None
        self._csr: Optional[sparse.csr_matrix] = None
        self._engines: Dict[int, "TraversalEngine"] = {}
        self._content_hash = content_hash

    # -- serialization ----------------------------------------------------

    def __getstate__(self):
        """Pickle the stored arrays, not Python object graphs.

        Shipping a network to a worker process costs three contiguous
        buffers.  The lazy caches (list views, CSR matrix, traversal
        engines) are dropped: they are rebuilt on demand, and a worker may
        never need them.
        """
        return {
            "positions": self._pos,
            "indptr": self._indptr,
            "indices": self._indices,
            "field": self.field,
            "radio": self.radio,
            "content_hash": self._content_hash,
        }

    def __setstate__(self, state):
        self._set_arrays(
            np.asarray(state["positions"], dtype=np.float64),
            np.asarray(state["indptr"], dtype=np.int64),
            np.asarray(state["indices"], dtype=np.int64),
            state["field"], state["radio"], state.get("content_hash"))

    # -- content identity --------------------------------------------------

    def content_hash(self) -> str:
        """A stable digest of the graph's content (positions + edge list).

        Two networks with the same node positions (in id order) and the
        same undirected edge set hash identically, regardless of how they
        were built; any node/edge perturbation changes the digest.  This
        is the graph half of the artifact-cache key — artifacts keyed by
        ``(content_hash, params, stage)`` can be reused across runs and
        processes without risking stale reads.  Computed once and cached
        (the graph is immutable).  The edges are the CSR upper triangle,
        which row-major order already sorts by ``(u, v)``.
        """
        if self._content_hash is None:
            h = hashlib.sha256()
            h.update(b"SensorNetwork.v1")
            h.update(np.int64(self.num_nodes).tobytes())
            h.update(np.ascontiguousarray(self._pos).tobytes())
            rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                             np.diff(self._indptr))
            upper = rows < self._indices
            edges = np.column_stack((rows[upper], self._indices[upper]))
            h.update(edges.tobytes())
            self._content_hash = h.hexdigest()
        return self._content_hash

    # -- basic accessors --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._pos)

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    @property
    def average_degree(self) -> float:
        if not self.num_nodes:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    @property
    def position_array(self) -> np.ndarray:
        """The stored ``(n, 2)`` float64 positions, as a read-only view."""
        view = self._pos.view()
        view.flags.writeable = False
        return view

    @property
    def positions(self) -> List[Point]:
        """Node positions as :class:`Point` objects (a cached view)."""
        if self._positions is None:
            self._positions = [Point(x, y) for x, y in self._pos.tolist()]
        return self._positions

    @property
    def adjacency(self) -> List[List[int]]:
        """Sorted neighbour lists (a cached view of the CSR arrays)."""
        if self._adjacency is None:
            flat, bounds = self._indices.tolist(), self._indptr.tolist()
            self._adjacency = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        return self._adjacency

    def neighbors(self, node: int) -> List[int]:
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return int(self._indptr[node + 1] - self._indptr[node])

    def nodes(self) -> range:
        return range(self.num_nodes)

    def has_edge(self, u: int, v: int) -> bool:
        # Neighbour lists are sorted, so membership is a binary search
        # rather than a linear scan.
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    # -- vectorized traversal substrate ------------------------------------

    def csr_adjacency(self) -> sparse.csr_matrix:
        """The adjacency as a cached ``scipy.sparse`` CSR matrix.

        A wrapper over the stored ``indptr``/``indices`` arrays, built on
        first use; the graph is immutable so the cache is
        invalidation-free.  Data is int32 ones.
        """
        if self._csr is None:
            n = self.num_nodes
            data = np.ones(len(self._indices), dtype=np.int32)
            self._csr = sparse.csr_matrix(
                (data, self._indices, self._indptr), shape=(n, n))
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
        """All connected components as sorted id lists, largest first
        (ties by smallest member)."""
        if self.num_nodes == 0:
            return []
        _, labels = csgraph.connected_components(self.csr_adjacency(),
                                                 directed=False)
        order = np.argsort(labels, kind="stable")
        cuts = np.flatnonzero(np.diff(labels[order])) + 1
        components = [c.tolist() for c in np.split(order, cuts)]
        components.sort(key=lambda c: (-len(c), c[0]))
        return components

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        count, _ = csgraph.connected_components(self.csr_adjacency(),
                                                directed=False)
        return count == 1

    def largest_component_subgraph(self) -> "SensorNetwork":
        """The induced subgraph on the largest connected component.

        Node ids are compacted; the paper (like all of this literature)
        assumes a connected network, so generators call this after the
        probabilistic radio models possibly fragment the graph.
        """
        comps = self.connected_components()
        if not comps:
            return self
        return self.induced_subgraph(comps[0])

    def induced_subgraph(self, keep: Sequence[int]) -> "SensorNetwork":
        """Induced subgraph on *keep*, with node ids compacted to 0..len-1.

        The i-th smallest kept id becomes node ``i``; the remap is
        monotone, so every sliced CSR row stays sorted.
        """
        n = self.num_nodes
        kept = np.unique(np.fromiter(keep, dtype=np.int64))
        remap = np.full(n, -1, dtype=np.int64)
        remap[kept] = np.arange(len(kept), dtype=np.int64)
        starts, stops = self._indptr[kept], self._indptr[kept + 1]
        lengths = stops - starts
        # Gather the kept rows' CSR entries, in row order.
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        entries = offsets + np.arange(int(lengths.sum()), dtype=np.int64)
        cols = remap[self._indices[entries]]
        inside = cols >= 0
        row_of = np.repeat(np.arange(len(kept), dtype=np.int64), lengths)
        indptr = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of[inside], minlength=len(kept)),
                  out=indptr[1:])
        # The sliced arrays are valid by construction: skip validation.
        sub = SensorNetwork.__new__(SensorNetwork)
        sub._set_arrays(self._pos[kept], indptr, cols[inside], self.field,
                        self.radio)
        return sub

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
        from scipy.spatial import cKDTree

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
