"""Deterministic process-pool fan-out for independent experiment configs.

:class:`ParallelRunner` executes a task function over a list of
configurations, either serially (``jobs=1``) or on a
``ProcessPoolExecutor``.  The contract that makes parallelism safe to
wire into the experiment battery is *determinism*: results come back in
config order — never completion order — and the task functions are pure
functions of their config, so a parallel run is bit-identical to the
serial one row for row.

A runner used as a context manager keeps one executor for every
``map`` inside the ``with`` block; outside one, each ``map`` starts and
stops a pool of its own.  A runner built with ``network=`` installs that
network as the :func:`task_network` of its tasks: in the parent for the
block's duration, and in each pool worker through the pool initializer,
so configs never carry it.  Under fork the initializer's argument is
inherited and costs nothing; under spawn or forkserver the network is
pickled once per worker, not once per config.

Configs and results cross the process boundary via pickle;
:class:`~repro.network.graph.SensorNetwork` ships as compact arrays
(positions matrix + CSR index arrays) rather than boxed Python object
graphs, so handing a 3k-node scenario to a worker costs a few contiguous
buffers.

Worker count resolution (:func:`effective_jobs`): an explicit ``jobs=``
wins, then the ``REPRO_JOBS`` environment variable, else serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["ParallelRunner", "effective_jobs", "set_task_context",
           "task_context", "task_network"]

_JOBS_ENV = "REPRO_JOBS"


def effective_jobs(jobs: Optional[int] = None) -> int:
    """The worker count: an explicit ``jobs=`` or a set ``REPRO_JOBS``
    opts in to parallelism; otherwise stay serial.  A library call that
    did not ask for parallelism must not silently fork — tests and
    embedding code rely on single-process execution by default.
    """
    if jobs is None:
        env = os.environ.get(_JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{_JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


# The cache/tracer a sweep runner was called with, made visible to its task
# function: directly when the task runs inline (jobs=1), and as a fork-time
# snapshot in pool workers on fork platforms (reads of the warmed in-memory
# tier still hit; worker-side writes stay worker-local, which is sound
# because tasks are pure).  On spawn platforms workers see None and fall
# back to the config's ``cache_dir`` — the disk tier is the shared medium.
_task_cache = None
_task_tracer = None


def set_task_context(cache=None, tracer=None):
    """Install the context task functions read; returns the previous pair
    so callers can restore it in a ``finally``."""
    global _task_cache, _task_tracer
    previous = (_task_cache, _task_tracer)
    _task_cache, _task_tracer = cache, tracer
    return previous


def task_context(cache_dir=None):
    """The ``(cache, tracer)`` for the currently executing task.

    Inside a worker that inherited no context, a *cache_dir* (threaded
    through the pickled config) reconstructs a disk-backed cache so
    parallel tasks still share artifacts.
    """
    cache, tracer = _task_cache, _task_tracer
    if cache is None and cache_dir is not None:
        from .cache import ArtifactCache

        cache = ArtifactCache(disk_dir=cache_dir)
    return cache, tracer


# The network of the run whose tasks are executing, installed by a
# ParallelRunner built with ``network=`` (in the parent for its block, in
# each pool worker by the pool initializer).
_task_network = None


def _install_network(network):
    """Make *network* the task network; returns the one it replaces.
    Also the pool initializer, so it must stay module-level."""
    global _task_network
    previous, _task_network = _task_network, network
    return previous


def task_network():
    """The network installed for the currently executing task.

    Raises ``RuntimeError`` outside a :class:`ParallelRunner` that was
    built with ``network=``.
    """
    if _task_network is None:
        raise RuntimeError("no task network installed: run the task "
                           "through ParallelRunner(jobs, network=...)")
    return _task_network


class ParallelRunner:
    """Fan a pure task function out over configs, results in config order.

    ``jobs`` resolves through :func:`effective_jobs`.  One worker runs the
    tasks inline — no executor, no pickling — which is both the fallback
    and the reference behaviour the parallel path must reproduce
    bit-identically.

    Inside ``with runner:`` every ``map`` shares one executor, sized by
    the first ``map`` that needs one (``min(jobs, len(configs))``
    workers) and shut down when the block exits.  *network*, if given,
    is the :func:`task_network` of every task the runner executes; the
    previous one is restored on exit.
    """

    def __init__(self, jobs: Optional[int] = None, network=None):
        self.jobs = effective_jobs(jobs)
        self.network = network
        self._open = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._outer = None

    def __enter__(self) -> "ParallelRunner":
        if self._open:
            raise RuntimeError("ParallelRunner is already open")
        self._outer = _install_network(self.network)
        self._open = True
        return self

    def __exit__(self, *exc_info) -> None:
        pool, self._pool = self._pool, None
        self._open = False
        try:
            if pool is not None:
                pool.shutdown()
        finally:
            _install_network(self._outer)

    def map(self, fn: Callable[[Any], Any],
            configs: Sequence[Any]) -> List[Any]:
        """Run ``fn(config)`` for every config; results in input order.

        *fn* must be a module-level callable (picklable) and must not
        depend on shared mutable state — each worker process runs with
        its own copy of everything.
        """
        configs = list(configs)
        if not self._open:
            with self:
                return self._map(fn, configs)
        return self._map(fn, configs)

    def _map(self, fn: Callable[[Any], Any], configs: List[Any]) -> List[Any]:
        if self.jobs == 1 or len(configs) <= 1:
            return [fn(c) for c in configs]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(configs)),
                initializer=_install_network, initargs=(self.network,))
        # Executor.map preserves submission order, so the result list is
        # ordered by config regardless of completion interleaving.
        return list(self._pool.map(fn, configs))
