"""The parallel executor and its determinism contract (repro.perf.runner).

Worker-count resolution, serial/parallel bit-identity of ``map``, the
task-context plumbing, the ``with`` block's one executor and task
network, and the end-to-end contract on real runners:
``run_fig4_scenarios`` and the figure suite produce row-identical reports
serially, with ``jobs=2``, and against a cold or warm artifact cache.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import run_fig1_pipeline, run_fig4_scenarios
from repro.experiments.suite import run_figure_suite, suite_shards
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.observability import Tracer, build_metrics
from repro.perf import (
    ArtifactCache,
    ParallelRunner,
    effective_jobs,
    set_task_context,
    task_context,
    task_network,
)
from repro.perf import runner as runner_module

SCALE = 0.1  # keep the end-to-end parity runs quick
FIG4_SUBSET = ["window", "one_hole"]  # two scenarios: parity, not coverage


def _square(x):  # module-level: must pickle into pool workers
    return x * x


def _context_probe(config):
    cache, _tracer = task_context(config.get("cache_dir"))
    if cache is None:
        return None
    return cache.get_or_build("probe", (config["key"],),
                              lambda: f"built-{config['key']}")


# -- worker-count resolution ----------------------------------------------


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert effective_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert effective_jobs(None) == 5
        assert ParallelRunner().jobs == 5

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            effective_jobs(None)

    def test_rejects_nonpositive(self, monkeypatch):
        with pytest.raises(ValueError):
            effective_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "-3")
        with pytest.raises(ValueError):
            ParallelRunner()

    def test_effective_jobs_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        # A runner that was not asked for parallelism must not fork.
        assert effective_jobs(None) == 1
        assert ParallelRunner().jobs == 1
        assert effective_jobs(4) == 4
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert effective_jobs(None) == 2


# -- ParallelRunner -------------------------------------------------------


class TestParallelRunner:
    def test_serial_and_parallel_identical(self):
        configs = list(range(20))
        serial = ParallelRunner(1).map(_square, configs)
        parallel = ParallelRunner(2).map(_square, configs)
        assert serial == parallel == [x * x for x in configs]

    def test_map_preserves_config_order(self):
        # Uneven work sizes: completion order != submission order.
        configs = [2000, 1, 1500, 2, 900]
        assert ParallelRunner(3).map(_square, configs) == \
            [x * x for x in configs]

    def test_single_config_runs_inline(self):
        assert ParallelRunner(8).map(_square, [3]) == [9]


def _network_size_plus(config):
    return task_network().num_nodes + config


class TestRunnerBlock:
    def test_block_keeps_one_executor(self, monkeypatch):
        created = []

        class CountingExecutor(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor",
                            CountingExecutor)
        with ParallelRunner(2) as runner:
            assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert runner.map(_square, [4]) == [16]  # inline
            assert runner.map(_square, [5, 6]) == [25, 36]
        assert len(created) == 1
        # Outside a block, each map has a pool of its own.
        runner = ParallelRunner(2)
        runner.map(_square, [1, 2])
        runner.map(_square, [3, 4])
        assert len(created) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_network_reaches_every_task_and_is_restored(self, jobs):
        network = build_network([Point(float(i), 0.0) for i in range(5)],
                                radio=UnitDiskRadio(1.5))
        with pytest.raises(RuntimeError, match="no task network"):
            task_network()
        with ParallelRunner(jobs, network=network) as runner:
            assert task_network() is network
            assert runner.map(_network_size_plus, [0, 1, 2]) == [5, 6, 7]
        with pytest.raises(RuntimeError, match="no task network"):
            task_network()
        # A map outside a block installs the network for its own duration.
        assert ParallelRunner(jobs, network=network).map(
            _network_size_plus, [0, 1]) == [5, 6]
        with pytest.raises(RuntimeError, match="no task network"):
            task_network()

    def test_block_is_not_reentrant(self):
        runner = ParallelRunner(1)
        with runner:
            with pytest.raises(RuntimeError, match="already open"):
                runner.__enter__()


# -- task context ---------------------------------------------------------


class TestTaskContext:
    def test_set_and_restore(self):
        cache, tracer = ArtifactCache(), Tracer(record_events=False)
        previous = set_task_context(cache, tracer)
        try:
            assert task_context() == (cache, tracer)
        finally:
            set_task_context(*previous)
        assert task_context() == previous

    def test_cache_dir_fallback_rebuilds_disk_cache(self, tmp_path):
        # The spawn-worker path: no inherited context, only a cache_dir.
        ArtifactCache(disk_dir=tmp_path).get_or_build(
            "probe", ("k",), lambda: "warmed")
        previous = set_task_context(None, None)
        try:
            value = _context_probe({"cache_dir": str(tmp_path), "key": "k"})
        finally:
            set_task_context(*previous)
        assert value == "warmed"  # served from the shared disk tier

    def test_workers_share_disk_tier(self, tmp_path):
        configs = [{"cache_dir": str(tmp_path), "key": i % 2}
                   for i in range(6)]
        results = ParallelRunner(2).map(_context_probe, configs)
        assert results == ["built-0", "built-1"] * 3


# -- end-to-end determinism on real runners -------------------------------


class TestRunnerParity:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET)

    def test_fig4_parallel_bit_identical(self, reference):
        parallel = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET, jobs=2)
        assert parallel.rows == reference.rows
        assert parallel.notes == reference.notes

    def test_fig4_cached_bit_identical_cold_and_warm(self, reference, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cold = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET, cache=cache)
        tracer = Tracer(record_events=False)
        warm = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET,
                                  cache=cache, tracer=tracer)
        assert cold.rows == warm.rows == reference.rows
        report = build_metrics(tracer)
        assert report.cache_hit_rate >= 0.8  # acceptance: warm re-run
        assert report.total_cache_misses == 0

    def test_fig4_cached_parallel_bit_identical(self, reference, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        parallel = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET,
                                      jobs=2, cache=cache)
        assert parallel.rows == reference.rows


class TestSuite:
    def test_shards_cover_selected_runners_in_order(self):
        shards = suite_shards(("fig1", "fig4"))
        assert [runner for _, runner, _ in shards] == ["fig1"] + ["fig4"] * 10
        keys = [key for key, _, _ in shards]
        assert keys == sorted(keys)

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown suite runner"):
            suite_shards(("fig1", "nope"))

    def test_suite_merge_matches_direct_runner(self):
        (merged,) = run_figure_suite(scale=SCALE, runners=["fig1"])
        direct = run_fig1_pipeline(scale=SCALE)
        assert merged.rows == direct.rows
        assert merged.notes == direct.notes

    def test_suite_parallel_and_cached_identical(self, tmp_path):
        serial = run_figure_suite(scale=SCALE, runners=["fig1", "fig6"])
        cache = ArtifactCache(disk_dir=tmp_path)
        parallel = run_figure_suite(scale=SCALE, runners=["fig1", "fig6"],
                                    jobs=2, cache=cache)
        assert [r.rows for r in parallel] == [r.rows for r in serial]
        assert [r.notes for r in parallel] == [r.notes for r in serial]
