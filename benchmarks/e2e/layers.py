"""What the traced run wraps, and the per-layer metrics derived from it.

Every time metric is *self* time — a span's duration minus the union of
its child spans — summed over the traced window and divided by the
window's operations (``s/op``), so runs that fit a different number of
operations into their window stay comparable.  Counts are per operation
too.  A metric whose targets all failed to resolve is absent; a metric
whose targets resolved but never ran (the shard layer on a monolithic
workload) is 0.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .recorder import Span, Target

NETWORK, CORE, SHARD, PERF, SERVING = "network", "core", "shard", "perf", \
    "serving"

_TRAVERSAL = "repro.network.traversal.TraversalEngine"


# -- hooks: numbers measured from a call's arguments and result -------------

def _computed_bytes(args, kwargs, result) -> Dict[str, float]:
    """Bytes of the arrays a kernel returned (computed, not measured)."""
    return {"bytes": float(sum(array.nbytes for array in result))}


def _result_counts(result) -> Dict[str, float]:
    counts = {}
    for key, read in (
            ("sites", lambda r: len(r.critical_nodes)),
            ("records", lambda r: sum(len(x) for x in r.voronoi.records)),
            ("segment_nodes", lambda r: len(r.voronoi.segment_nodes)),
            ("loops", lambda r: len(r.loops)),
            ("fake_loops", lambda r: len(r.fake_loops)),
            ("skeleton_nodes", lambda r: len(r.skeleton.nodes))):
        try:
            counts[key] = float(read(result))
        except (AttributeError, TypeError):  # field renamed or reshaped:
            pass                              # the count goes absent
    return counts


def _extract_counts(args, kwargs, result) -> Dict[str, float]:
    return _result_counts(result)


def _shard_counts(args, kwargs, run) -> Dict[str, float]:
    counts = _result_counts(run.result)
    tiles = run.plan.tiles
    counts["tiles"] = float(len(tiles))
    counts["replication"] = (sum(len(t.members) for t in tiles)
                             / max(1, run.result.network.num_nodes))
    counts["flood_batches"] = float(run.num_flood_batches)
    return counts


def _map_attrs(args, kwargs, result) -> Dict[str, float]:
    """Worker count and pickled config bytes of one executor map."""
    runner = args[0]
    configs = args[2] if len(args) > 2 else kwargs["configs"]
    workers = min(runner.jobs, len(configs)) if len(configs) > 1 else 1
    shipped = (len(pickle.dumps(list(configs), pickle.HIGHEST_PROTOCOL))
               if workers > 1 else 0)
    return {"workers": float(workers), "config_bytes": float(shipped)}


def _lookup_attrs(args, kwargs, result) -> Dict[str, float]:
    hit, _value = result
    return {"hit": float(bool(hit))}


def _pump_attrs(args, kwargs, result) -> Dict[str, float]:
    return {"computed": float(result)}


#: Public functions the traced run wraps.  Several targets may share a
#: span name (the four merge functions; both executors' ``map``), so a
#: metric survives the removal of any one of them.
TARGETS: Tuple[Target, ...] = (
    Target(f"{_TRAVERSAL}.khop_stats", "khop_stats", NETWORK),
    Target(f"{_TRAVERSAL}.multi_source_distances", "multi_source_distances",
           NETWORK, _computed_bytes),
    Target(f"{_TRAVERSAL}.hop_distances", "hop_distances", NETWORK),
    Target(f"{_TRAVERSAL}.min_hop_distance", "min_hop_distance", NETWORK),
    Target(f"{_TRAVERSAL}.reconstruct_paths", "reconstruct_paths", NETWORK),
    Target("repro.network.graph.SensorNetwork.content_hash", "content_hash",
           NETWORK),
    Target("repro.core.pipeline.extract_skeleton", "extract_skeleton", CORE,
           _extract_counts),
    Target("repro.core.neighborhood.compute_indices", "compute_indices", CORE),
    Target("repro.core.identification.find_critical_nodes",
           "find_critical_nodes", CORE),
    Target("repro.core.voronoi.build_voronoi", "build_voronoi", CORE),
    Target("repro.core.coarse.build_coarse_skeleton", "build_coarse_skeleton",
           CORE),
    Target("repro.core.loops.identify_loops", "identify_loops", CORE),
    Target("repro.core.refine.refine_skeleton", "refine_skeleton", CORE),
    Target("repro.core.byproducts.detect_boundary_nodes",
           "detect_boundary_nodes", CORE),
    Target("repro.core.byproducts.segmentation_from_voronoi",
           "segmentation_from_voronoi", CORE),
    Target("repro.shard.api.run_sharded", "run_sharded", SHARD,
           _shard_counts),
    Target("repro.shard.plan.plan_tiles", "plan_tiles", SHARD),
    Target("repro.shard.tile.stage1_tile_task", "stage1_tile_task", SHARD),
    Target("repro.shard.tile.flood_batch_task", "flood_batch_task", SHARD),
    Target("repro.shard.tile.paths_batch_task", "paths_batch_task", SHARD),
    Target("repro.shard.merge.merge_stage1", "merge", SHARD),
    Target("repro.shard.merge.merge_flood_records", "merge", SHARD),
    Target("repro.shard.merge.assemble_voronoi", "merge", SHARD),
    Target("repro.shard.merge.assemble_coarse", "merge", SHARD),
    Target("repro.perf.runner.ParallelRunner.map", "map", PERF, _map_attrs),
    Target("repro.resilience.supervisor.ResilientRunner.map", "map", PERF,
           _map_attrs),
    Target("repro.perf.cache.ArtifactCache.lookup", "cache.lookup", PERF,
           _lookup_attrs),
    Target("repro.perf.cache.ArtifactCache.put", "cache.put", PERF),
    Target("repro.serving.service.SkeletonService.submit", "submit", SERVING),
    Target("repro.serving.service.SkeletonService.pump", "pump", SERVING,
           _pump_attrs),
)


# -- self time ----------------------------------------------------------------

def covered(start: float, end: float, children: Iterable[Span]) -> float:
    """Length of the union of the children's intervals within
    ``[start, end]``."""
    total, run_start, run_end = 0.0, None, None
    for lo, hi in sorted((max(start, c.start), min(end, c.end))
                         for c in children):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may run in other processes (pool workers link to the span
    that forked them) and overlap each other; the union counts each
    covered instant once.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {span.id: span.duration - covered(span.start, span.end,
                                             children.get(span.id, ()))
            for span in spans}


class Aggregate:
    """Per-key sums over one traced window's spans."""

    def __init__(self, spans: Sequence[Span], ops: int,
                 present: Iterable[str]):
        self.ops = max(1, ops)
        self.present = set(present)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.attrs: Dict[Tuple[str, str], float] = defaultdict(float)
        selfs = self_times(spans)
        maps = {s.id: s for s in spans if s.key == "perf.map"}
        self.task_s = sum(s.duration for s in spans if s.parent in maps)
        self.map_capacity = sum(s.duration * (s.attrs or {}).get("workers", 1)
                                for s in maps.values())
        self.compute_s = sum(s.duration for s in spans
                             if s.key == "serving.pump"
                             and (s.attrs or {}).get("computed"))
        for span in spans:
            self.self_s[span.key] += selfs[span.id]
            self.calls[span.key] += 1
            for name, value in (span.attrs or {}).items():
                self.attrs[(span.key, name)] += value

    def per_op_self(self, key: str) -> Optional[float]:
        return self.self_s[key] / self.ops if key in self.present else None

    def per_op_calls(self, key: str) -> Optional[float]:
        return self.calls[key] / self.ops if key in self.present else None

    def per_op_attr(self, key: str, name: str) -> Optional[float]:
        return (self.attrs[(key, name)] / self.ops
                if key in self.present else None)

    def cache_hit_ratio(self) -> Optional[float]:
        if "perf.cache.lookup" not in self.present:
            return None
        lookups = self.calls["perf.cache.lookup"]
        return self.attrs[("perf.cache.lookup", "hit")] / lookups \
            if lookups else 0.0


def _self(key):
    return lambda agg: agg.per_op_self(key)


def _calls(key):
    return lambda agg: agg.per_op_calls(key)


def _attr(key, name):
    return lambda agg: agg.per_op_attr(key, name)


def _misses(agg):
    calls = agg.per_op_calls("perf.cache.lookup")
    return None if calls is None else \
        calls - agg.per_op_attr("perf.cache.lookup", "hit")


def _map_efficiency(agg):
    if "perf.map" not in agg.present:
        return None
    return agg.task_s / agg.map_capacity if agg.map_capacity else 0.0


def _present(key, value):
    return lambda agg: value(agg) if key in agg.present else None


#: Spans whose hooks count a result's contents: monolithic and sharded.
_EXTRACTIONS = ("core.extract_skeleton", "shard.run_sharded")


def _result_count(name):
    """Per-operation sum of one result count over every extraction."""
    def source(agg):
        counted = [key for key in _EXTRACTIONS if key in agg.present]
        if not counted:
            return None
        return sum(agg.attrs[(key, name)] for key in counted) / agg.ops
    return source


def _replication(agg):
    """Mean halo replication over the window's sharded runs."""
    if "shard.run_sharded" not in agg.present:
        return None
    calls = agg.calls["shard.run_sharded"]
    return agg.attrs[("shard.run_sharded", "replication")] / calls \
        if calls else 0.0


#: ``(name, unit, better, source)``.  ``source(aggregate)`` gives the
#: value, ``None`` when its targets did not resolve.  A ``None`` source
#: means the workload or runner supplies the value (0 when the workload
#: has no such quantity).
PER_LAYER: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("network.khop_stats.s", "s/op", "lower", _self("network.khop_stats")),
    ("network.multi_source_distances.s", "s/op", "lower",
     _self("network.multi_source_distances")),
    ("network.multi_source_distances.bytes", "B/op", "lower",
     _attr("network.multi_source_distances", "bytes")),
    ("network.hop_distances.s", "s/op", "lower",
     _self("network.hop_distances")),
    ("network.min_hop_distance.s", "s/op", "lower",
     _self("network.min_hop_distance")),
    ("network.reconstruct_paths.s", "s/op", "lower",
     _self("network.reconstruct_paths")),
    ("network.reconstruct_paths.calls", "count/op", "lower",
     _calls("network.reconstruct_paths")),
    ("network.content_hash.s", "s/op", "lower", _self("network.content_hash")),
    ("network.content_hash.calls", "count/op", "lower",
     _calls("network.content_hash")),
    ("core.compute_indices.s", "s/op", "lower", _self("core.compute_indices")),
    ("core.find_critical_nodes.s", "s/op", "lower",
     _self("core.find_critical_nodes")),
    ("core.build_voronoi.s", "s/op", "lower", _self("core.build_voronoi")),
    ("core.build_coarse_skeleton.s", "s/op", "lower",
     _self("core.build_coarse_skeleton")),
    ("core.identify_loops.s", "s/op", "lower", _self("core.identify_loops")),
    ("core.refine_skeleton.s", "s/op", "lower", _self("core.refine_skeleton")),
    ("core.detect_boundary_nodes.s", "s/op", "lower",
     _self("core.detect_boundary_nodes")),
    ("core.segmentation_from_voronoi.s", "s/op", "lower",
     _self("core.segmentation_from_voronoi")),
    ("core.extract_skeleton.s", "s/op", "lower",
     _self("core.extract_skeleton")),
    ("core.sites", "count/op", "lower", _result_count("sites")),
    ("core.records", "count/op", "lower", _result_count("records")),
    ("core.segment_nodes", "count/op", "lower",
     _result_count("segment_nodes")),
    ("core.loops", "count/op", "lower", _result_count("loops")),
    ("core.fake_loops", "count/op", "lower", _result_count("fake_loops")),
    ("core.skeleton_nodes", "count/op", "lower",
     _result_count("skeleton_nodes")),
    ("core.homotopic_ratio", "ratio", "higher", None),
    ("shard.run_sharded.s", "s/op", "lower", _self("shard.run_sharded")),
    ("shard.plan_tiles.s", "s/op", "lower", _self("shard.plan_tiles")),
    ("shard.stage1_tile_task.s", "s/op", "lower",
     _self("shard.stage1_tile_task")),
    ("shard.flood_batch_task.s", "s/op", "lower",
     _self("shard.flood_batch_task")),
    ("shard.paths_batch_task.s", "s/op", "lower",
     _self("shard.paths_batch_task")),
    ("shard.merge.s", "s/op", "lower", _self("shard.merge")),
    ("shard.tiles", "count/op", "lower", _attr("shard.run_sharded", "tiles")),
    ("shard.replication", "ratio", "lower", _replication),
    ("shard.flood_batches", "count/op", "lower",
     _attr("shard.run_sharded", "flood_batches")),
    ("perf.map.s", "s/op", "lower", _self("perf.map")),
    ("perf.map.task_s", "s/op", "lower",
     _present("perf.map", lambda agg: agg.task_s / agg.ops)),
    ("perf.map.efficiency", "ratio", "higher", _map_efficiency),
    ("perf.map.config_bytes", "B/op", "lower",
     _attr("perf.map", "config_bytes")),
    ("perf.cache.lookup.s", "s/op", "lower", _self("perf.cache.lookup")),
    ("perf.cache.put.s", "s/op", "lower", _self("perf.cache.put")),
    ("perf.cache.hits", "count/op", "higher",
     _attr("perf.cache.lookup", "hit")),
    ("perf.cache.misses", "count/op", "lower", _misses),
    ("perf.cache.hit_ratio", "ratio", "higher",
     lambda agg: agg.cache_hit_ratio()),
    ("serving.submit.s", "s/op", "lower", _self("serving.submit")),
    ("serving.compute.s", "s/op", "lower",
     _present("serving.pump", lambda agg: agg.compute_s / agg.ops)),
    ("serving.queue_wait_s_p50", "s", "lower", None),
    ("serving.queue_wait_s_p95", "s", "lower", None),
    ("serving.hit_latency_s_p50", "s", "lower", None),
    ("serving.computed", "count/op", "lower", None),
    ("serving.dedup_hits", "count/op", "higher", None),
    ("serving.compute_reuse", "ratio", "higher", None),
    ("trace.overhead", "ratio", "lower", None),
    ("trace.coverage", "ratio", "higher", None),
)

def per_layer_metrics(spans: Sequence[Span], ops: int,
                      installed: Iterable[Target],
                      supplied: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """``{name: (value, unit)}`` for every derivable :data:`PER_LAYER`
    metric.  *installed* are the targets that resolved; *supplied* holds
    the workload's and runner's own values."""
    agg = Aggregate(spans, ops, {f"{t.layer}.{t.name}" for t in installed})
    out: Dict[str, Tuple[float, str]] = {}
    for name, unit, _better, source in PER_LAYER:
        value = source(agg) if source is not None else supplied.get(name, 0.0)
        if value is not None:
            out[name] = (float(value), unit)
    return out
