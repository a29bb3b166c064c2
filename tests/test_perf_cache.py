"""The content-addressed artifact cache (repro.perf.cache).

Covers the keying vocabulary (``stable_digest`` over primitives, arrays,
dataclasses, radio models), both storage tiers (memory LRU, disk with a
byte cap and torn-read tolerance), version-embedded keys, and the
``SensorNetwork.content_hash`` property the whole keying scheme rests on:
any perturbation changes it, and nothing else does.
"""

import pickle
import random

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.params import SkeletonParams
from repro.geometry import Point
from repro.network import (QuasiUnitDiskRadio, SensorNetwork, UnitDiskRadio,
                           build_network)
from repro.observability import Tracer, build_metrics
from repro.perf import (
    ArtifactCache,
    CACHE_VERSION,
    decode_artifact,
    stable_digest,
)
from repro.perf import cache as cache_mod


# -- stable_digest --------------------------------------------------------


def test_digest_deterministic_across_calls():
    parts = ("stage", 3, 1.5, ("a", "b"), {"k": 4, "l": 2})
    assert stable_digest(*parts) == stable_digest(*parts)


def test_digest_distinguishes_values_and_types():
    assert stable_digest(1) != stable_digest(2)
    assert stable_digest(1) != stable_digest("1")
    assert stable_digest(1) != stable_digest(1.0)
    assert stable_digest(True) != stable_digest(1)


def test_digest_dict_and_set_order_independent():
    assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
    assert stable_digest({3, 1, 2}) == stable_digest({1, 2, 3})


def test_digest_ndarray_content_addressed():
    a = np.arange(6, dtype=np.int64)
    assert stable_digest(a) == stable_digest(a.copy())
    assert stable_digest(a) != stable_digest(a.astype(np.int32))
    assert stable_digest(a) != stable_digest(a.reshape(2, 3))


def test_digest_covers_params_and_radio_models():
    assert stable_digest(SkeletonParams()) == stable_digest(SkeletonParams())
    assert stable_digest(SkeletonParams(k=5)) != stable_digest(SkeletonParams())
    assert (stable_digest(SkeletonParams(alpha=2))
            != stable_digest(SkeletonParams(alpha=1)))
    assert stable_digest(UnitDiskRadio(2.0)) == stable_digest(UnitDiskRadio(2.0))
    assert stable_digest(UnitDiskRadio(2.0)) != stable_digest(
        QuasiUnitDiskRadio(2.0))


def test_digest_rejects_unhashable_vocabulary():
    with pytest.raises(TypeError):
        stable_digest(object())  # no __dict__, no canonical form


def test_make_key_embeds_stage_and_version(monkeypatch):
    key = ArtifactCache.make_key("indices", ("h", 4))
    assert key.startswith("indices-")
    assert key != ArtifactCache.make_key("voronoi", ("h", 4))
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", CACHE_VERSION + 1)
    assert ArtifactCache.make_key("indices", ("h", 4)) != key


# -- memory tier ----------------------------------------------------------


def test_get_or_build_builds_once_then_hits():
    cache = ArtifactCache()
    calls = []
    for _ in range(3):
        value = cache.get_or_build("stage", ("k",),
                                   lambda: calls.append(1) or "artifact")
    assert value == "artifact"
    assert len(calls) == 1
    assert cache.stats() == {"stage": {"hits": 2, "misses": 1}}
    assert cache.hit_rate == pytest.approx(2 / 3)


def test_lru_evicts_least_recently_used():
    cache = ArtifactCache(max_entries=2)
    cache.get_or_build("s", (1,), lambda: "one")
    cache.get_or_build("s", (2,), lambda: "two")
    cache.get_or_build("s", (1,), lambda: "one")      # refresh 1
    cache.get_or_build("s", (3,), lambda: "three")    # evicts 2
    assert len(cache) == 2
    rebuilt = []
    cache.get_or_build("s", (2,), lambda: rebuilt.append(1) or "two")
    assert rebuilt  # 2 was evicted, so it rebuilt


def test_distinct_key_parts_do_not_collide():
    cache = ArtifactCache()
    a = cache.get_or_build("s", ("h", 4, 2), lambda: "a")
    b = cache.get_or_build("s", ("h", 4, 3), lambda: "b")
    assert (a, b) == ("a", "b")


# -- disk tier ------------------------------------------------------------


def test_disk_tier_shared_across_cache_instances(tmp_path):
    first = ArtifactCache(disk_dir=tmp_path)
    first.get_or_build("indices", ("h",), lambda: {"table": [1, 2, 3]})
    second = ArtifactCache(disk_dir=tmp_path)  # fresh memory tier
    value = second.get_or_build("indices", ("h",),
                                lambda: pytest.fail("should hit disk"))
    assert value == {"table": [1, 2, 3]}
    assert second.stats()["indices"]["hits"] == 1


def test_torn_disk_entry_treated_as_miss(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.get_or_build("s", (1,), lambda: "good")
    (path,) = tmp_path.glob("*.pkl")
    path.write_bytes(b"\x80\x04 torn")  # simulate a crashed writer
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.get_or_build("s", (1,), lambda: "rebuilt") == "rebuilt"
    # The torn entry was quarantined as evidence (never deleted) and the
    # rebuilt artifact verifies under the digest-checked disk format.
    assert (fresh.quarantine_dir / path.name).read_bytes() == b"\x80\x04 torn"
    assert decode_artifact(path.read_bytes()) == ("ok", pickle.dumps(
        "rebuilt", protocol=pickle.HIGHEST_PROTOCOL))
    assert fresh.quarantined == {"s": 1}


def test_disk_cap_evicts_oldest(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path, max_disk_bytes=1)
    cache.get_or_build("s", (1,), lambda: "x" * 100)
    cache.get_or_build("s", (2,), lambda: "y" * 100)
    # A 1-byte cap keeps at most the newest file transiently; the older
    # entry is gone.
    assert len(list(tmp_path.glob("*.pkl"))) <= 1


def test_clear_drops_memory_and_disk(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.get_or_build("s", (1,), lambda: "v")
    cache.clear(memory_only=True)
    assert len(cache) == 0 and list(tmp_path.glob("*.pkl"))
    cache.clear()
    assert not list(tmp_path.glob("*.pkl"))


def test_tracer_sees_cache_traffic():
    cache = ArtifactCache()
    tracer = Tracer(record_events=False)
    cache.get_or_build("indices", (1,), lambda: "v", tracer=tracer)
    cache.get_or_build("indices", (1,), lambda: "v", tracer=tracer)
    report = build_metrics(tracer)
    assert report.cache_misses == {"indices": 1}
    assert report.cache_hits == {"indices": 1}
    assert report.cache_hit_rate == pytest.approx(0.5)


# -- SensorNetwork.content_hash ------------------------------------------


def _grid_network(perturb_node=None, drop_edge=False, extra_node=False):
    rng = random.Random(11)
    positions = [Point(float(i % 4), float(i // 4)) for i in range(16)]
    if perturb_node is not None:
        p = positions[perturb_node]
        positions[perturb_node] = Point(p.x + 1e-9, p.y)
    if extra_node:
        positions.append(Point(0.5, 0.5))
    network = build_network(positions, radio=UnitDiskRadio(1.1), rng=rng)
    if drop_edge:
        # The network is immutable: rebuild it without one edge.
        adjacency = [list(nbrs) for nbrs in network.adjacency]
        u = 0
        v = adjacency[u][0]
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        network = SensorNetwork(network.positions, adjacency,
                                radio=network.radio)
    return network


def test_content_hash_stable_across_rebuilds_and_pickling():
    a, b = _grid_network(), _grid_network()
    assert a.content_hash() == b.content_hash()
    clone = pickle.loads(pickle.dumps(_grid_network()))
    assert clone.content_hash() == a.content_hash()
    # And the clone's adjacency round-tripped exactly (the CSR pickle path).
    assert clone.adjacency == a.adjacency


@pytest.mark.parametrize("perturbation", [
    dict(perturb_node=5),
    dict(perturb_node=0),
    dict(drop_edge=True),
    dict(extra_node=True),
])
def test_content_hash_changes_on_any_perturbation(perturbation):
    assert (_grid_network(**perturbation).content_hash()
            != _grid_network().content_hash())


@pytest.mark.parametrize("jobs,line", [
    ("1", "artifact cache: hit rate 0.50 "
          "(per stage: {'fig': {'hits': 1, 'misses': 1}})"),
    ("2", "artifact cache: hit rate unmeasured "
          "(2 worker processes keep their own counters)"),
], ids=["serial", "pool"])
def test_suite_cache_line_under_a_pool(jobs, line, monkeypatch, capsys):
    # Pool workers count cache traffic in their own forked copies, so the
    # parent's counters cannot give a hit rate for a parallel run.
    def fake_suite(*, cache, **_kwargs):
        cache.get_or_build("fig", 1, lambda: "built")
        cache.get_or_build("fig", 1, lambda: "built")
        return []

    monkeypatch.setattr("repro.cli.run_figure_suite", fake_suite)
    assert cli_main(["suite", "--jobs", jobs]) == 0
    assert capsys.readouterr().out.splitlines() == [line]
