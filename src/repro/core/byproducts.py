"""The two by-products of skeleton extraction (Section III-E, Fig. 3).

* **Segmentation** — the Voronoi decomposition built in Section III-B
  already partitions the network into nicely shaped cells, one per critical
  skeleton node (Fig. 3a).
* **Boundaries** — nodes near ``∂D`` have markedly smaller neighbourhood
  sizes than interior nodes (the observation the paper inherits from Fekete
  et al. [8] and exploits throughout); thresholding the k-hop size against
  the network median exposes the boundary nodes (Fig. 3b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..network.graph import SensorNetwork
from .voronoi import VoronoiDecomposition

__all__ = ["Segmentation", "segmentation_from_voronoi", "detect_boundary_nodes"]


@dataclass
class Segmentation:
    """A partition of the network's nodes into named segments."""

    segments: Dict[int, List[int]]
    """Segment label (the cell's site) -> member node ids."""

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def segment_of(self, node: int) -> Optional[int]:
        for label, members in self.segments.items():
            if node in members:
                return label
        return None

    def sizes(self) -> Dict[int, int]:
        return {label: len(members) for label, members in self.segments.items()}

    def covers(self, num_nodes: int) -> bool:
        """True when every node of a network of *num_nodes* is segmented."""
        return sum(len(m) for m in self.segments.values()) == num_nodes


def segmentation_from_voronoi(voronoi: VoronoiDecomposition) -> Segmentation:
    """Fig. 3(a): each Voronoi cell is one segment, members in id order."""
    nodes = np.argsort(voronoi.cell, kind="stable")
    cells = voronoi.cell[nodes]
    starts = np.searchsorted(cells, voronoi.sites).tolist()
    ends = np.searchsorted(cells, voronoi.sites, side="right").tolist()
    members = nodes.tolist()
    return Segmentation(segments={site: members[lo:hi] for site, lo, hi
                                  in zip(voronoi.sites, starts, ends)})


def detect_boundary_nodes(network: SensorNetwork,
                          khop_sizes: Sequence[int],
                          threshold_factor: float = 0.67) -> Set[int]:
    """Fig. 3(b): connectivity-only boundary detection.

    A node is flagged as a boundary node when its k-hop neighbourhood size
    falls below ``threshold_factor`` times the network median — interior
    nodes of a uniformly deployed network see a full disk's worth of
    neighbours while boundary nodes see roughly half of one.
    """
    if len(khop_sizes) != network.num_nodes:
        raise ValueError("khop_sizes length must equal the node count")
    if network.num_nodes == 0:
        return set()
    sizes = np.asarray(khop_sizes)
    cutoff = threshold_factor * np.median(sizes)
    return set(np.flatnonzero(sizes < cutoff).tolist())
