"""Correctness gates: output digests and the Theorem 4 cell check.

Digests are compared only against other runs of the same commit (across
passes, against a direct extraction, between monolithic and sharded
runs) and never against committed goldens, so a change that fixes the
pipeline's output does not fail the benchmark.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

#: Artifact kinds the serving workload requests, and the result field
#: each one is a view of.
ARTIFACT_FIELDS = {
    "skeleton": "skeleton",
    "segmentation": "segmentation",
    "boundary": "boundary_nodes",
}


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for label, value in parts:
        h.update(label.encode())
        h.update(repr(value).encode())
    return h.hexdigest()


def _skeleton_parts(skeleton):
    return (("skeleton_nodes", sorted(int(v) for v in skeleton.nodes)),
            ("skeleton_edges", sorted(tuple(sorted((int(u), int(v))))
                                      for u, v in skeleton.edges)))


def result_digest(result) -> str:
    """Digest of critical nodes, skeleton nodes and edges, ``cell_of``
    and boundary nodes of one extraction."""
    return _hash(("critical", sorted(int(v) for v in result.critical_nodes)),
                 *_skeleton_parts(result.skeleton),
                 ("cell_of", [int(c) for c in result.voronoi.cell_of]),
                 ("boundary", sorted(int(v) for v in result.boundary_nodes)))


def artifact_digest(kind: str, artifact) -> str:
    """Digest of one served artifact of *kind*."""
    if kind == "skeleton":
        return _hash(*_skeleton_parts(artifact))
    if kind == "segmentation":
        return _hash(("segments", sorted(
            (int(label), sorted(int(v) for v in members))
            for label, members in artifact.segments.items())))
    if kind == "boundary":
        return _hash(("boundary", sorted(int(v) for v in artifact)))
    raise ValueError(f"unknown artifact kind {kind!r}")


def result_artifact_digest(result, kind: str) -> str:
    """The digest a served *kind* artifact must have for *result*."""
    return artifact_digest(kind, getattr(result, ARTIFACT_FIELDS[kind]))


def cells_connected(result) -> bool:
    """Theorem 4 in O(n + E): every Voronoi cell induces a connected
    subgraph.

    Keeps only the edges whose endpoints share a cell and labels the
    connected components of what remains; each cell must then carry
    exactly one component label.
    """
    network = result.network
    n = network.num_nodes
    cell = np.asarray(result.voronoi.cell_of, dtype=np.int64)
    if n == 0:
        return True
    degree = np.fromiter((len(network.neighbors(u)) for u in range(n)),
                         dtype=np.int64, count=n)
    rows = np.repeat(np.arange(n, dtype=np.int64), degree)
    cols = np.fromiter((v for u in range(n) for v in network.neighbors(u)),
                       dtype=np.int64, count=int(degree.sum()))
    same = cell[rows] == cell[cols]
    graph = sparse.csr_matrix(
        (np.ones(int(same.sum()), dtype=np.int8), (rows[same], cols[same])),
        shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    assigned = cell >= 0
    cells = np.unique(cell[assigned])
    pairs = np.unique(np.stack([cell[assigned], labels[assigned]]), axis=1)
    return pairs.shape[1] == cells.size
