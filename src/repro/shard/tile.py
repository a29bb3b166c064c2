"""The phase functions of :func:`~repro.shard.run_sharded`.

* :func:`stage1_tile_task` — indices + critical-node election on one
  tile's halo-expanded subgraph, reported for owned nodes only.  The one
  task fanned out through :class:`~repro.perf.ParallelRunner`: a pure
  function of its config dict, which carries node ids, never the graph —
  it reads the run's network from :func:`~repro.perf.task_network` and
  the artifact cache and tracer from :func:`~repro.perf.task_context`.
* :func:`flood_batch_task` and :func:`paths_batch_task` — stages 2 and 3:
  the monolithic builders, called in the calling process on the merged
  stage-1 sites (stage 2 is one flood from all sites at once, so it does
  not tile).  The names are those of the benchmark's ``shard.*`` rows.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.coarse import CoarseSkeleton, build_coarse_skeleton
from ..core.identification import find_critical_nodes
from ..core.neighborhood import compute_indices
from ..core.params import SkeletonParams
from ..core.voronoi import VoronoiDecomposition, build_voronoi
from ..network.graph import SensorNetwork
from ..perf import task_context, task_network

__all__ = ["stage1_tile_task", "flood_batch_task", "paths_batch_task"]


def stage1_tile_task(config: Dict) -> Dict:
    """Stage 1 on one tile: per-owned-node statistics and elected sites.

    ``config`` carries the tile's sorted global ``members`` and ``owned``
    ids and the :class:`SkeletonParams`; the task builds the members'
    induced subgraph of the task network itself.  Index values and
    elections for owned nodes are exact because the halo completes every
    ball they depend on (see :mod:`repro.shard.plan`).
    """
    cache, tracer = task_context(config.get("cache_dir"))
    params = config["params"]
    members = np.asarray(config["members"], dtype=np.int64)
    owned_local = np.searchsorted(
        members, np.asarray(config["owned"], dtype=np.int64))
    subnet = task_network().induced_subgraph(members)

    index_data = compute_indices(subnet, params, cache=cache, tracer=tracer)
    critical_local = find_critical_nodes(subnet, index_data, params)

    khop = np.asarray(index_data.khop_sizes, dtype=np.int64)
    centrality = np.asarray(index_data.centrality, dtype=np.float64)
    index = np.asarray(index_data.index, dtype=np.float64)
    owned_set = set(owned_local.tolist())
    critical_global = [int(members[v]) for v in critical_local
                       if int(v) in owned_set]
    return {
        "tile": config["tile"],
        "owned": members[owned_local],
        "khop": khop[owned_local],
        "centrality": centrality[owned_local],
        "index": index[owned_local],
        "critical": np.asarray(sorted(critical_global), dtype=np.int64),
    }


def flood_batch_task(network: SensorNetwork, sites: Sequence[int],
                     params: SkeletonParams, cache=None,
                     tracer=None) -> VoronoiDecomposition:
    """Phase 2: the monolithic stage-2 build over the whole network."""
    return build_voronoi(network, sites, params, cache=cache, tracer=tracer)


def paths_batch_task(voronoi: VoronoiDecomposition, index: Sequence[float],
                     params: SkeletonParams, tracer=None) -> CoarseSkeleton:
    """Phase 3: the monolithic stage-3 build on the phase-2 cells."""
    return build_coarse_skeleton(voronoi, index, params, tracer=tracer)
