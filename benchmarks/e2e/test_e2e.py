"""Tests of the e2e benchmark itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
the tier-1 ``testpaths``).
"""

import io
import itertools
import json
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.pipeline
import repro.core.voronoi
from repro import SensorNetwork
from repro.geometry import Point

from benchmarks.e2e import checks, compare, layers, runner, workloads
from benchmarks.e2e.recorder import Recorder, Span, Target
from benchmarks.e2e.stats import tail_percentile

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

TINY = {
    "paper_suite": {"scenarios": ("music", "star"), "num_nodes": 300},
    "mega_mono": {"spec": "mega_smoke", "scale": 1.0},
    "mega_sharded": {"spec": "mega_smoke", "scale": 1.0},
    "serve_zipf": {"requests": 20, "scenarios": ("music", "star", "window"),
                   "num_nodes": 250},
}


@pytest.fixture(autouse=True)
def tiny_inputs(tmp_path, monkeypatch):
    """Generated tiny networks go to a temporary directory."""
    monkeypatch.setattr(workloads, "INPUTS", tmp_path / "inputs")


def tiny_run(name, trace=False, passes=1, **options):
    """Exactly *passes* passes per window (the window never runs out),
    after the one warm-up pass."""
    return runner.run_workload(name, seed=3, seconds=3600, trace=trace,
                               setup_repeats=1, setup_seconds=0,
                               max_passes=passes, **options, **TINY[name])


def span(id, start, end, parent=None, pid=1, name="f", layer="x"):
    return Span(id, name, layer, start, end, parent=parent, pid=pid)


# -- self time ----------------------------------------------------------------

def test_self_time_is_parent_minus_union_of_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 5.0, parent=1, pid=2),   # overlaps 2, other process
        span(4, 7.0, 8.0, parent=1),
        span(5, 7.5, 7.8, parent=4),          # grandchild: not the root's
        span(6, 9.5, 12.0, parent=1),         # clipped to the parent
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert selfs[4] == pytest.approx(1.0 - 0.3)
    assert selfs[2] == pytest.approx(2.0)


# -- tail percentile rule -----------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


# -- recorder -----------------------------------------------------------------

def test_recorder_patches_defining_and_importing_modules(tmp_path):
    original = repro.core.voronoi.build_voronoi
    recorder = Recorder(tmp_path)
    recorder.install([Target("repro.core.voronoi.build_voronoi",
                             "build_voronoi", "core")])
    try:
        wrapper = repro.core.voronoi.build_voronoi
        assert wrapper is not original
        assert repro.core.pipeline.build_voronoi is wrapper
    finally:
        recorder.uninstall()
    assert repro.core.voronoi.build_voronoi is original
    assert repro.core.pipeline.build_voronoi is original


def test_missing_target_is_reported_not_raised(tmp_path):
    recorder = Recorder(tmp_path)
    recorder.install([
        Target("repro.core.voronoi.no_such_function", "gone", "core"),
        Target("repro.no_such_module.f", "gone", "core"),
        Target("repro.network.traversal.TraversalEngine.no_such_method",
               "gone", "network"),
    ])
    recorder.uninstall()
    assert len(recorder.missing) == 3 and recorder.installed == []


def test_missing_target_gives_absent_metric(monkeypatch):
    renamed = tuple(
        Target(t.path.replace("merge_", "renamed_merge_")
               .replace("assemble_", "renamed_assemble_"),
               t.name, t.layer, t.hook) for t in layers.TARGETS)
    monkeypatch.setattr(runner, "TARGETS", renamed)
    result = tiny_run("mega_sharded", trace=True)
    assert result["correct"]
    assert "shard.merge.s" not in result["metrics"]
    assert result["metrics"]["shard.plan_tiles.s"]["value"] > 0
    assert len(result["missing_targets"]) == 4


def test_map_efficiency_is_unmeasured_with_fewer_cores_than_jobs(
        monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
    result = tiny_run("mega_sharded", trace=True)
    assert "perf.map.efficiency" not in result["metrics"]
    assert "perf.map.s" in result["metrics"]
    assert any("unmeasured" in note for note in result["notes"])


def test_traced_sharded_run_records_pool_workers(tmp_path):
    spans_out = tmp_path / "spans.jsonl"
    result = tiny_run("mega_sharded", trace=True, spans_out=spans_out)
    metrics = result["metrics"]
    assert result["correct"]
    # Stage-1 tiles run in forked workers; their spans reach the parent.
    assert metrics["shard.stage1_tile_task.s"]["value"] > 0
    assert metrics["core.compute_indices.s"]["value"] > 0
    assert metrics["perf.map.task_s"]["value"] > 0
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert not list(Path(runner.HERE).glob(".trace-spool-*"))
    spans = [json.loads(line) for line in spans_out.read_text().splitlines()]
    assert len({s["pid"] for s in spans}) > 1
    assert {"id", "name", "layer", "start", "end", "parent", "rid",
            "pid"} <= set(spans[0])


# -- correctness gates --------------------------------------------------------

def test_digest_mismatch_counts_as_failed(monkeypatch):
    counter = itertools.count()
    monkeypatch.setattr(checks, "result_digest",
                        lambda result: f"digest-{next(counter)}")
    result = tiny_run("paper_suite", passes=2)
    assert result["attempted"] == 6       # warm-up pass, then two
    assert result["failed"] == 4          # every pass after the first
    assert not result["correct"]


def test_sharded_digest_is_checked_against_monolithic(monkeypatch):
    monkeypatch.setattr(workloads.MegaSharded, "references",
                        lambda self: {self.spec.name: "not-the-digest"})
    result = tiny_run("mega_sharded")
    assert result["failed"] == result["attempted"] > 0


def test_peak_rss_is_read_before_the_monolithic_reference(monkeypatch):
    events = []
    monkeypatch.setattr(runner, "peak_rss_mb",
                        lambda: events.append("peak") or 1.0)
    references = workloads.MegaSharded.references
    monkeypatch.setattr(workloads.MegaSharded, "references",
                        lambda self: events.append("references")
                        or references(self))
    result = tiny_run("mega_sharded", trace=True)
    assert result["correct"]
    assert events == ["peak", "references"]
    assert result["end_to_end"]["peak_rss_mb"]["value"] == 1.0


def test_theorem4_check_detects_a_split_cell():
    path = SensorNetwork([Point(float(i), 0.0) for i in range(3)],
                         [[1], [0, 2], [1]])
    result = SimpleNamespace(network=path, voronoi=SimpleNamespace(
        cell_of=[0, 1, 0]))
    assert not checks.cells_connected(result)
    result.voronoi.cell_of = [0, 0, 2]
    assert checks.cells_connected(result)


def test_inputs_are_built_once_per_source(monkeypatch):
    built = []

    def build():
        built.append(1)
        return [1, 2, 3]

    first = workloads.input_path("k", build)
    assert workloads.input_path("k", build) == first and len(built) == 1
    monkeypatch.setattr(workloads, "_source_digest", lambda: "f" * 16)
    second = workloads.input_path("k", build)
    assert len(built) == 2 and second.exists() and not first.exists()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workloads_are_correct(name):
    result = tiny_run(name)
    assert result["correct"], result.get("errors")
    assert result["attempted"] >= 1 and result["failed"] == 0


# -- printed names match BENCHMARK.json ---------------------------------------

def test_printed_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = {"end_to_end": [name for name, _ in runner.END_TO_END],
             "per_layer": [row[0] for row in layers.PER_LAYER]}
    for key in ("end_to_end", "per_layer"):
        assert [m["name"] for m in spec[key]] == names[key]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    betters = {m["name"]: m["better"] for m in spec["per_layer"]}
    assert all(betters[name] == better
               for name, _, better, _ in layers.PER_LAYER)
    workload_names = [w["name"] for w in spec["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run("serve_zipf", trace=trace)
        out = io.StringIO()
        with redirect_stdout(out):
            runner._print_result("serve_zipf", result)
        printed = [line.split() for line in out.getvalue().splitlines()
                   if not line.startswith("#")]
        assert [p[1] for p in printed] == names[key]
        assert all(units[p[1]] == p[3] for p in printed)
        assert all(p[0] == "serve_zipf" for p in printed)


# -- compare.py ---------------------------------------------------------------

#: A run that failed one operation, and a run without the workload.
FAILED, MISSING = object(), None


def _reports(directory, side, runs):
    """One report file per run; a run is a value, ``(FAILED, value)`` or
    MISSING."""
    paths = []
    for i, run in enumerate(runs):
        failed, value = (1, run[1]) if isinstance(run, tuple) else (0, run)
        result = {"failed": failed, "metrics": {"m": {"value": value,
                                                      "unit": "s"}}}
        path = directory / f"{side}{i}.json"
        path.write_text(json.dumps(
            {"workloads": {} if run is MISSING else {"w": result}}))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("base, head, better, bound, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [10, 10.02, 9.95, 10.1, 10], "lower", 0.1,
     "unchanged"),
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "lower", 0.1,
     "regressed"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "lower", 0.1,
     "improved"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "higher", 0.1,
     "regressed"),
    ([5, 15, 8, 12, 10], [9, 11, 10, 14, 7], "lower", 0.1, "unresolved"),
    ([1, 1, 1], [2, 2, 2], "lower", None, "regressed"),
    # a faster head, but one of its runs failed an operation
    ([10, 10.1, 9.9], [8, (FAILED, 8.1), 7.9], "lower", 0.1, "unresolved"),
    # the base's first run lacks the workload: pairs must not shift
    ([MISSING, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1, "unresolved"),
])
def test_compare_verdicts(tmp_path, base, head, better, bound, expected):
    specs = {"m": {"better": better, "bound": bound}}
    [row] = compare.compare(_reports(tmp_path, "base", base),
                            _reports(tmp_path, "head", head), specs)
    assert row["verdict"] == expected


def test_compare_pairs_one_workload_reports_within_each_workload(tmp_path):
    paths = {"base": [], "head": []}
    for side, values in (("base", (10, 10.1, 9.9)), ("head", (10, 10.05, 9.95))):
        for i, value in enumerate(values):
            for workload in ("u", "w"):
                path = tmp_path / f"{side}{i}-{workload}.json"
                path.write_text(json.dumps({"workloads": {workload: {
                    "failed": 0,
                    "metrics": {"m": {"value": value, "unit": "s"}}}}}))
                paths[side].append(str(path))
    rows = compare.compare(paths["base"], paths["head"],
                           {"m": {"better": "lower", "bound": 0.1}})
    assert [(r["workload"], r["verdict"], r["runs"]) for r in rows] == [
        ("u", "unchanged", (3, 3)), ("w", "unchanged", (3, 3))]


def test_compare_refuses_unpaired_sets(tmp_path):
    base = _reports(tmp_path, "base", [1.0])
    with pytest.raises(ValueError):
        compare.compare(base, base * 2, compare.load_specs())
