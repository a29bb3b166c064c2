"""Spatial tiling with exactness-preserving halos.

The field's bounding box is cut into a ``gx × gy`` grid of tiles.  Every
node is *owned* by exactly one tile (the one whose half-open rectangle
contains its position — a partition by construction), and every tile's
working set is its owned nodes plus a geometric *halo*: all nodes within
``halo_hops × max_edge_length`` of the tile rectangle.

Why that halo makes per-tile stage 1 exact: one graph hop moves at most
``max_edge_length`` in Euclidean distance, so the entire
``halo_hops``-hop graph ball of an owned node — including every
connecting path — lies inside the expanded rectangle.  Criticality of a
node depends on the ``local_max_hops``-hop ball of *index* values, each
of which depends on a ``k + l``-hop ball of the graph, so
``halo_hops = k + l + local_max_hops`` suffices for every boundary,
index and election decision about an owned node to see its full
neighbourhood (DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.params import SkeletonParams
from ..network.graph import SensorNetwork

__all__ = ["Tile", "TilePlan", "halo_hops_for", "max_edge_length",
           "plan_tiles", "parse_grid"]


def halo_hops_for(params: SkeletonParams) -> int:
    """The graph radius every stage-1 decision about a node can reach."""
    return params.k + params.l + params.local_max_hops


def max_edge_length(network: SensorNetwork) -> float:
    """The longest Euclidean edge — the per-hop geometric step bound."""
    csr = network.csr_adjacency()
    u = np.repeat(np.arange(network.num_nodes), np.diff(csr.indptr))
    if not u.size:
        return 0.0
    diff = network.position_array[u] - network.position_array[csr.indices]
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


def parse_grid(spec) -> Tuple[int, int]:
    """``"2x2"`` / ``(2, 2)`` / ``2`` → a validated ``(gx, gy)`` pair."""
    if isinstance(spec, str):
        parts = spec.lower().split("x")
        if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
            raise ValueError(f"grid spec must look like '2x2', got {spec!r}")
        gx, gy = (int(p) for p in parts)
    elif isinstance(spec, int):
        gx = gy = spec
    else:
        gx, gy = spec
    if gx < 1 or gy < 1:
        raise ValueError(f"grid must be at least 1x1, got {gx}x{gy}")
    return gx, gy


@dataclass(frozen=True)
class Tile:
    """One tile of the plan, in global node ids.

    ``owned`` is this tile's slice of the ownership partition; ``members``
    is ``owned`` plus the halo — the node set per-tile stage 1 runs on.
    Both are sorted, so the induced subgraph's compacted ids preserve
    global id order (ties in (index, id) elections agree across scopes).
    """

    tx: int
    ty: int
    owned: Tuple[int, ...]
    members: Tuple[int, ...]


@dataclass(frozen=True)
class TilePlan:
    """The full tiling: grid shape, halo parameters and per-tile node sets."""

    grid: Tuple[int, int]
    halo_hops: int
    halo_width: float
    tiles: Tuple[Tile, ...]
    #: node id -> flat tile index (``ty * gx + tx``); the ownership map.
    owner_of: Tuple[int, ...]

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def replication_factor(self) -> float:
        """Σ |members| / n — the halo overhead the tiling pays."""
        n = len(self.owner_of)
        if n == 0:
            return 1.0
        return sum(len(t.members) for t in self.tiles) / n


def plan_tiles(network: SensorNetwork, grid=(2, 2),
               params: Optional[SkeletonParams] = None) -> TilePlan:
    """Partition *network* into owned tiles with exactness halos.

    Ownership is by position: the bounding box is split into equal
    half-open rectangles (the last row/column closed), so every node has
    exactly one owner even on shared tile boundaries.  Membership adds
    every node within ``halo_hops × max_edge_length`` of the tile
    rectangle (per-axis expansion), which over-covers the halo ball —
    over-coverage only adds work, never changes owned-node results.
    """
    params = params if params is not None else SkeletonParams()
    gx, gy = parse_grid(grid)
    n = network.num_nodes
    hops = halo_hops_for(params)
    if n == 0:
        return TilePlan(grid=(gx, gy), halo_hops=hops, halo_width=0.0,
                        tiles=(), owner_of=())

    xs, ys = network.position_array.T
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    # Degenerate extents (all nodes collinear/coincident) get unit spans so
    # the index arithmetic below stays well-defined; everything then lands
    # in column/row 0.
    wx = (x1 - x0) or 1.0
    wy = (y1 - y0) or 1.0
    col = np.clip((gx * (xs - x0) / wx).astype(np.int64), 0, gx - 1)
    row = np.clip((gy * (ys - y0) / wy).astype(np.int64), 0, gy - 1)
    owner = row * gx + col

    halo_width = hops * max_edge_length(network)
    tiles = []
    for ty in range(gy):
        ry0 = y0 + wy * ty / gy
        ry1 = y0 + wy * (ty + 1) / gy
        for tx in range(gx):
            rx0 = x0 + wx * tx / gx
            rx1 = x0 + wx * (tx + 1) / gx
            owned = np.flatnonzero(owner == ty * gx + tx)
            member_mask = (
                (xs >= rx0 - halo_width) & (xs <= rx1 + halo_width)
                & (ys >= ry0 - halo_width) & (ys <= ry1 + halo_width)
            )
            members = np.flatnonzero(member_mask)
            tiles.append(Tile(
                tx=tx, ty=ty,
                owned=tuple(owned.tolist()),
                members=tuple(members.tolist()),
            ))
    return TilePlan(
        grid=(gx, gy),
        halo_hops=hops,
        halo_width=halo_width,
        tiles=tuple(tiles),
        owner_of=tuple(owner.tolist()),
    )
