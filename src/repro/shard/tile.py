"""Per-shard task functions, picklable for :class:`~repro.perf.ParallelRunner`.

Three task kinds, one per parallel phase of the sharded pipeline:

* :func:`stage1_tile_task` — indices + critical-node election on one
  tile's halo-expanded subgraph, reported for owned nodes only;
* :func:`flood_batch_task` — α-pruned Voronoi flooding of one batch of
  sites over the *full* graph, returning each node's near-best candidate
  records;
* :func:`paths_batch_task` — reverse-path realization for one batch of
  sites' connector endpoints.

All three are pure functions of their config dicts (the ParallelRunner
contract), and read the shared :func:`~repro.perf.task_context` for the
artifact cache and tracer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.identification import find_critical_nodes
from ..core.neighborhood import compute_indices
from ..core.voronoi import flood_sites, recorded_parent_row
from ..network.graph import SensorNetwork
from ..perf import task_context

__all__ = ["stage1_tile_task", "flood_batch_task", "paths_batch_task"]


def stage1_tile_task(config: Dict) -> Dict:
    """Stage 1 on one tile: per-owned-node statistics and elected sites.

    ``config`` carries the tile's induced subgraph (``subnet``), the
    local indices of its owned nodes (``owned_local``), the global ids of
    all members (``members``) and the :class:`SkeletonParams`.  Index
    values and elections for owned nodes are exact because the halo
    completes every ball they depend on (see :mod:`repro.shard.plan`).
    """
    cache, tracer = task_context(config.get("cache_dir"))
    subnet: SensorNetwork = config["subnet"]
    params = config["params"]
    members = np.asarray(config["members"], dtype=np.int64)
    owned_local = np.asarray(config["owned_local"], dtype=np.int64)

    index_data = compute_indices(subnet, params, cache=cache, tracer=tracer)
    critical_local = find_critical_nodes(subnet, index_data, params)

    khop = np.asarray(index_data.khop_sizes, dtype=np.int64)
    centrality = np.asarray(index_data.centrality, dtype=np.float64)
    index = np.asarray(index_data.index, dtype=np.float64)
    owned_set = set(int(v) for v in owned_local)
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


def flood_batch_task(config: Dict) -> Dict:
    """Voronoi flood for one site batch over the full graph.

    Returns every ``(node, site, dist)`` candidate within ``alpha`` of the
    node's best distance to a batch site — exactly the table of the
    α-pruned flood over the batch's sites.  The batch best is never below
    the global best, so the batch threshold is at least the global one
    and the union of batch candidate sets is a superset of the monolithic
    record set — the merge re-filters against the global best, an
    associative reduction.
    """
    cache, tracer = task_context(config.get("cache_dir"))
    network: SensorNetwork = config["network"]
    params = config["params"]
    sites = [int(s) for s in config["sites"]]

    def build() -> Dict:
        table = flood_sites(network, sites, params, tracer=tracer)
        return {
            "cand_node": table.node,
            "cand_site": np.asarray(sites, dtype=np.int64)[table.site_row],
            "cand_dist": table.dist,
        }

    if cache is not None:
        return cache.get_or_build(
            "shard:flood",
            (network.content_hash(), tuple(sites), params.alpha),
            build, tracer=tracer,
        )
    return build()


def paths_batch_task(config: Dict) -> Dict:
    """Reverse paths from connector endpoints to one batch of sites.

    ``config["requests"]`` maps each site of the batch to its sorted
    endpoint list.  Re-floods exactly the requested sites with the
    α-pruned kernel and walks the recorded parents — the same kernels the
    monolithic coarse builder uses, so every path matches node for node.
    Pruning against this batch's best only keeps more pairs than the
    global flood does, and every endpoint records its site globally, so
    each endpoint and (by the flood's closure) its whole reverse path is
    in the batch table.  Returns ``{(site, endpoint): path}`` with paths
    running endpoint → site.
    """
    cache, tracer = task_context(config.get("cache_dir"))
    network: SensorNetwork = config["network"]
    params = config["params"]
    requests: List[Tuple[int, Tuple[int, ...]]] = [
        (int(site), tuple(int(t) for t in targets))
        for site, targets in config["requests"]
    ]
    sites = [site for site, _ in requests]

    def build() -> Dict:
        table = flood_sites(network, sites, params, tracer=tracer)
        engine = network.traversal(params.traversal_batch_width)
        out: Dict[Tuple[int, int], List[int]] = {}
        for row, (site, targets) in enumerate(requests):
            parent = recorded_parent_row(table, row, site, targets,
                                         network.num_nodes)
            paths = engine.reconstruct_paths(parent, list(targets),
                                             tracer=tracer)
            for node, path in zip(targets, paths):
                out[(site, node)] = path
        return out

    if cache is not None:
        return cache.get_or_build(
            "shard:paths",
            (network.content_hash(), tuple(requests), params.alpha),
            build, tracer=tracer,
        )
    return build()
