"""Per-shard task functions, picklable for :class:`~repro.perf.ParallelRunner`.

Three task kinds, one per sharded phase of the pipeline:

* :func:`stage1_tile_task` — indices + critical-node election on one
  tile's halo-expanded subgraph, reported for owned nodes only;
* :func:`flood_batch_task` — α-pruned Voronoi flooding of one batch of
  sites over the *full* graph, returning the batch's flood table;
* :func:`paths_batch_task` — reverse-path realization for one batch of
  sites' connector endpoints, walked in that batch's flood table.

All three are pure functions of their config dicts (the ParallelRunner
contract).  Configs carry node ids, site lists and tables, never the
graph: tasks read the run's network from :func:`~repro.perf.task_network`
and the artifact cache and tracer from :func:`~repro.perf.task_context`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.identification import find_critical_nodes
from ..core.neighborhood import compute_indices
from ..core.voronoi import flood_sites, recorded_parent_row
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


def flood_batch_task(config: Dict) -> Dict:
    """Voronoi flood for one site batch over the full graph.

    Returns ``{"sites", "table"}``: the batch's sites and its
    :class:`~repro.network.traversal.FloodTable`, whose ``site_row``
    indexes them.  The table holds every ``(site, node)`` pair within
    ``alpha`` of the node's best distance to a batch site, with its
    distance and parent.  The batch best is never below the global best,
    so the batch threshold is at least the global one and the union of
    batch tables is a superset of the monolithic record set — the merge
    re-filters against the global best, an associative reduction.
    """
    cache, tracer = task_context(config.get("cache_dir"))
    network = task_network()
    params = config["params"]
    sites = [int(s) for s in config["sites"]]

    def build() -> Dict:
        return {"sites": np.asarray(sites, dtype=np.int64),
                "table": flood_sites(network, sites, params, tracer=tracer)}

    if cache is not None:
        return cache.get_or_build(
            "shard:flood",
            (network.content_hash(), tuple(sites), params.alpha),
            build, tracer=tracer,
        )
    return build()


def paths_batch_task(config: Dict) -> Dict:
    """Reverse paths from connector endpoints to one batch of sites.

    ``config`` is one :func:`flood_batch_task` result (``sites``,
    ``table``) plus ``requests``, ``(site, sorted endpoints)`` pairs for
    sites of that batch, and the ``params``.  Each endpoint's path is
    walked along the batch table's recorded parents — the kernel the
    monolithic coarse builder uses.  Pruning against this batch's best
    only keeps more pairs than the global flood does, and a flood row
    does not depend on the other sites flooded with it, so every pair the
    global flood records is in the batch table with the same distance
    and parent: every path matches node for node.  Returns
    ``{(site, endpoint): path}`` with paths running endpoint → site.
    """
    _cache, tracer = task_context()
    network = task_network()
    table = config["table"]
    row_of = {site: row for row, site in enumerate(
        np.asarray(config["sites"]).tolist())}
    engine = network.traversal(config["params"].traversal_batch_width)
    out: Dict[Tuple[int, int], List[int]] = {}
    for site, targets in config["requests"]:
        parent = recorded_parent_row(table, row_of[site], site, targets,
                                     network.num_nodes)
        paths = engine.reconstruct_paths(parent, list(targets), tracer=tracer)
        out.update(((site, node), path) for node, path in zip(targets, paths))
    return out
