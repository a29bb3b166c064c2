"""How ``run_sharded`` uses its worker pool.

One executor per call, shut down before the call returns; no config that
crosses the process boundary holds the network (workers get it once,
from the pool initializer); and a pool whose workers are spawned, so
inherit nothing, gives the same output as the pinned sharded digest.
"""

import io
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro import get_scenario
from repro.network.graph import SensorNetwork
from repro.perf import ParallelRunner
from repro.perf import runner as runner_module
from repro.shard import run_sharded
from tests.test_execution_digests import WINDOW
from tests.test_stage4_golden import stage4_digest


@pytest.fixture(scope="module")
def window():
    return get_scenario("window").build(seed=1, num_nodes=400)


def _pickles_a_network(value) -> bool:
    """Whether pickling *value* would pickle a :class:`SensorNetwork`."""
    found = []

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, SensorNetwork):
                found.append(obj)
            return None

    Spy(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(value)
    return bool(found)


@pytest.fixture
def spies(monkeypatch):
    """Record every config passed to ``ParallelRunner.map`` and every
    executor the runner creates."""
    configs, executors = [], []
    original_map = ParallelRunner.map

    def spy_map(self, fn, batch):
        batch = list(batch)
        configs.extend(batch)
        return original_map(self, fn, batch)

    class CountingExecutor(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            executors.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ParallelRunner, "map", spy_map)
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor",
                        CountingExecutor)
    return configs, executors


def test_configs_never_carry_the_network(window, spies):
    configs, _ = spies
    run = run_sharded(window, grid=(2, 2), jobs=2)
    assert stage4_digest(run.result) == WINDOW
    assert configs, "run_sharded mapped no configs"
    assert not any(_pickles_a_network(config) for config in configs)


def test_one_executor_per_call_and_no_worker_left(window, spies):
    _, executors = spies
    before = set(multiprocessing.active_children())
    for calls in (1, 2):
        run_sharded(window, grid=(2, 2), jobs=2)
        assert len(executors) == calls
        assert set(multiprocessing.active_children()) <= before


def test_serial_run_starts_no_executor(window, spies):
    _, executors = spies
    run_sharded(window, grid=(2, 2), jobs=1)
    assert executors == []


def test_spawned_workers_match_the_pinned_digest(window, monkeypatch):
    """Spawned workers inherit nothing: the network must come from the
    pool initializer, pickled once per worker and never per config."""
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=spawn))
    pickled = []
    getstate = SensorNetwork.__getstate__

    def counting_getstate(self):
        pickled.append(self)
        return getstate(self)

    monkeypatch.setattr(SensorNetwork, "__getstate__", counting_getstate)
    run = run_sharded(window, grid=(2, 2), jobs=2)
    assert stage4_digest(run.result) == WINDOW
    assert 1 <= len(pickled) <= 2
    assert all(network is window for network in pickled)
