"""Skeleton-as-a-service: a long-lived request layer over the pipeline.

:class:`SkeletonService` turns the one-shot extractor into the thing the
ROADMAP's north star asks for — a process that *serves* skeleton,
segmentation and boundary artifacts for submitted networks, repeatedly,
under load.  It is built almost entirely out of substrate that already
exists in this repository; this module contributes the request lifecycle
around it:

* **content-addressed serving** — responses come from the
  :class:`~repro.perf.ArtifactCache` keyed by
  ``(SensorNetwork.content_hash(), params)``, so a repeated network is a
  cache hit, not a recomputation, and a hit is correct by construction;
* **request dedup** — concurrent identical requests (same content key)
  coalesce onto one in-flight computation: N submissions, one pipeline
  execution, N identical responses;
* **bounded-queue admission** — at most ``max_queue`` computations wait;
  beyond that the service *sheds* (an immediate ``"shed"`` response)
  instead of building an unbounded backlog;
* **deadlines** — per-request, with a ``deadline_action`` of
  ``"full"`` (the deadline is advisory: the response is merely flagged
  late) or ``"shed"`` (requests whose deadline passed while queued are
  dropped);
* **supervised batches** — :meth:`SkeletonService.submit_batch` fans
  its misses out through :func:`~repro.resilience.supervise`
  under the configured :class:`~repro.resilience.SupervisorPolicy` /
  :class:`~repro.resilience.ExecutorFaultPlan`, so a crashed batch task
  retries and an exhausted one fails only its own requests;
* **serving metrics** — hit / dedup / shed / computed counters and
  latency percentiles (:class:`ServiceStats`), plus
  :class:`~repro.observability.tracer.Tracer` integration (compute
  spans, cache counters, batch supervision counters) so a served workload
  reads out through the standard
  :class:`~repro.observability.metrics.MetricsReport`.

Determinism is the design constraint throughout: the service never
resolves a request from anything but the cache or a pipeline run, both
of which are bit-identical to a direct monolithic extraction — the
serial-equivalence battery in ``tests/test_serving.py`` pins that for
every artifact kind.  Timing-dependent
behaviour (queueing, deadlines, shedding) runs on a pluggable clock;
see :mod:`repro.serving.clock`.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.params import SkeletonParams
from ..core.pipeline import extract_skeleton, stage_span
from ..core.result import SkeletonResult
from ..network.graph import SensorNetwork
from ..observability.metrics import percentile
from ..perf import ArtifactCache, effective_jobs, set_task_context, \
    stable_digest, task_context
from ..resilience import ExecutorFaultPlan, SupervisorPolicy, \
    outcome_counters, supervise
from .clock import SystemClock

__all__ = ["ARTIFACT_KINDS", "RESULT_STAGE", "ServiceConfig",
           "SkeletonResponse", "Ticket", "ServiceStats", "SkeletonService"]

#: What a request may ask for.  All kinds are views over one
#: :class:`~repro.core.result.SkeletonResult`, so they share cache
#: entries and dedup keys — asking for the boundary of a network whose
#: skeleton is in flight coalesces onto the same computation.
ARTIFACT_KINDS = ("skeleton", "segmentation", "boundary", "result")

#: Cache stage under which full results are published.
RESULT_STAGE = "serve:result"

#: Supervision stage (and trace span) of :meth:`SkeletonService.submit_batch`
#: tasks.
BATCH_STAGE = "serve:batch"

_DEADLINE_ACTIONS = ("full", "shed")


def _check_deadline(name: str, deadline: Optional[float]) -> None:
    """Reject a deadline that could never be met or missed: negative,
    NaN (every comparison against it is false) or infinite."""
    if deadline is not None and not (math.isfinite(deadline)
                                     and deadline >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, "
                         f"got {deadline!r}")


@dataclass(frozen=True)
class ServiceConfig:
    """Admission, execution and deadline policy for one service instance.

    Attributes:
        max_queue: computations allowed to wait; admission beyond this
            sheds the request.  (Dedup attachments and cache hits never
            consume a slot — they are resolved without queueing.)
        workers: background worker threads.  0 (the default) is inline
            mode: ``submit`` processes the queue synchronously, which is
            the deterministic mode the test batteries use.
        default_deadline: seconds granted to a request that names none
            (``None`` = no deadline; otherwise finite and >= 0).
        deadline_action: ``"full"`` / ``"shed"`` — the default for
            requests that don't choose.
        jobs: worker processes for :meth:`SkeletonService.submit_batch`
            (``None`` follows the suite convention: ``REPRO_JOBS`` or
            serial; otherwise >= 1).
        supervisor: retry policy for
            :meth:`SkeletonService.submit_batch` only (``None`` = the
            default :class:`~repro.resilience.SupervisorPolicy`); single
            requests run the monolithic extractor unsupervised.
        fault_plan: deterministic executor chaos injected into
            :meth:`SkeletonService.submit_batch` tasks only, for drills
            and tests.
    """

    max_queue: int = 64
    workers: int = 0
    default_deadline: Optional[float] = None
    deadline_action: str = "full"
    jobs: Optional[int] = None
    supervisor: Optional[SupervisorPolicy] = None
    fault_plan: Optional[ExecutorFaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.deadline_action not in _DEADLINE_ACTIONS:
            raise ValueError(
                f"deadline_action must be one of {_DEADLINE_ACTIONS}")
        _check_deadline("default_deadline", self.default_deadline)


@dataclass
class SkeletonResponse:
    """One resolved request.

    ``status``: ``"ok"`` (the artifact), ``"shed"`` (dropped by
    admission or a ``"shed"`` deadline; no artifact), ``"failed"`` (the
    computation raised, or a batch task exhausted its attempt budget;
    see :attr:`error`).
    """

    request_id: int
    kind: str
    status: str
    content_key: str
    artifact: Any = None
    from_cache: bool = False
    deduped: bool = False
    deadline_missed: bool = False
    error: Optional[str] = None
    submitted_at: float = 0.0
    resolved_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency(self) -> float:
        """Seconds from admission to resolution, on the service clock."""
        return self.resolved_at - self.submitted_at


class _Request:
    """Internal per-submission record (the thing a :class:`Ticket` wraps)."""

    __slots__ = ("id", "kind", "submitted_at", "deadline_at", "action",
                 "deduped", "event", "response")

    def __init__(self, rid: int, kind: str, submitted_at: float,
                 deadline_at: Optional[float], action: str):
        self.id = rid
        self.kind = kind
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        self.action = action
        self.deduped = False
        self.event = threading.Event()
        self.response: Optional[SkeletonResponse] = None


class _Computation:
    """One unique in-flight content key and everyone waiting on it."""

    __slots__ = ("key", "network", "params", "waiters")

    def __init__(self, key: str, network: SensorNetwork,
                 params: SkeletonParams, founder: _Request):
        self.key = key
        self.network = network
        self.params = params
        self.waiters: List[_Request] = [founder]


class Ticket:
    """Handle to a submitted request; resolves to a
    :class:`SkeletonResponse`."""

    def __init__(self, request: _Request):
        self._request = request

    @property
    def request_id(self) -> int:
        return self._request.id

    def done(self) -> bool:
        return self._request.event.is_set()

    def result(self, timeout: Optional[float] = None) -> SkeletonResponse:
        """Block until resolved (``timeout`` in wall seconds)."""
        if not self._request.event.wait(timeout):
            raise TimeoutError(
                f"request {self._request.id} unresolved after {timeout}s")
        assert self._request.response is not None
        return self._request.response


@dataclass(frozen=True)
class ServiceStats:
    """A snapshot of the service counters and latency percentiles.

    Counter arithmetic (the property battery pins this): every submitted
    request resolves to exactly one status, so once the queue is drained
    ``completed == submitted == ok + failed + shed``.
    ``computed`` counts pipeline executions — N identical
    concurrent requests contribute 1.
    """

    submitted: int
    completed: int
    ok: int
    failed: int
    shed: int
    computed: int
    cache_hits: int
    dedup_hits: int
    queue_depth: int
    latency_p50: float
    latency_p99: float
    latency_max: float
    supervision: Dict[str, Dict[str, int]] = field(default_factory=dict)


class SkeletonService:
    """The request-serving layer.  See the module docstring for design.

    Usage (inline mode — deterministic, the default)::

        service = SkeletonService()
        response = service.request(network, kind="skeleton")
        assert response.ok

    Threaded mode::

        with SkeletonService(ServiceConfig(workers=2)) as service:
            tickets = [service.submit(net) for net in networks]
            responses = [t.result(timeout=60) for t in tickets]
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Optional[ArtifactCache] = None,
                 tracer=None, clock=None):
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else SystemClock()
        self.tracer = tracer
        self.cache = cache if cache is not None else ArtifactCache()
        self._cond = threading.Condition()
        self._queue: "deque[_Computation]" = deque()
        self._inflight: Dict[str, _Computation] = {}
        self._threads: List[threading.Thread] = []
        self._paused = False
        self._stopping = False
        self._next_id = 0
        self._latencies: List[float] = []
        self._supervision: Dict[str, Dict[str, int]] = {}
        self._counters: Dict[str, int] = {
            key: 0 for key in ("submitted", "completed", "ok", "failed",
                               "shed", "computed", "cache_hits",
                               "dedup_hits")
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SkeletonService":
        """Spawn the configured worker threads (no-op in inline mode)."""
        with self._cond:
            if self._stopping:
                raise RuntimeError("service already stopped")
            missing = self.config.workers - len(self._threads)
            for i in range(missing):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"skeleton-serve-{len(self._threads) + 1}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, stop the workers, and refuse new submissions."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        # Inline mode (or a paused stop): resolve whatever is still queued.
        self.drain()

    def __enter__(self) -> "SkeletonService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def pause(self) -> None:
        """Hold queued computations (tests step them with :meth:`pump`)."""
        with self._cond:
            self._paused = True

    def resume(self, drain: bool = True) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()
        if drain and self.config.workers == 0:
            self.drain()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- submission ---------------------------------------------------------

    def content_key(self, network: SensorNetwork,
                    params: Optional[SkeletonParams] = None) -> str:
        """The dedup/cache identity of ``(network, params)``."""
        params = params if params is not None else SkeletonParams()
        return stable_digest(network.content_hash(), params)

    def submit(self, network: SensorNetwork, kind: str = "skeleton",
               params: Optional[SkeletonParams] = None,
               deadline: Optional[float] = None,
               deadline_action: Optional[str] = None) -> Ticket:
        """Admit one request; returns immediately with a :class:`Ticket`.

        Resolution order at admission: cache hit (instant response) →
        dedup attach (rides the in-flight computation) → queue (subject
        to ``max_queue`` — beyond it, an instant ``"shed"`` response).
        *deadline* (seconds) must be finite and >= 0.
        """
        if kind not in ARTIFACT_KINDS:
            raise ValueError(
                f"kind must be one of {ARTIFACT_KINDS}, got {kind!r}")
        action = deadline_action if deadline_action is not None \
            else self.config.deadline_action
        if action not in _DEADLINE_ACTIONS:
            raise ValueError(
                f"deadline_action must be one of {_DEADLINE_ACTIONS}, "
                f"got {action!r}")
        _check_deadline("deadline", deadline)
        deadline = deadline if deadline is not None \
            else self.config.default_deadline
        params = params if params is not None else SkeletonParams()
        now = self.clock.now()
        key = self.content_key(network, params)
        with self._cond:
            if self._stopping:
                raise RuntimeError("service is stopped")
            request = _Request(
                self._next_id, kind, now,
                now + deadline if deadline is not None else None, action)
            self._next_id += 1
            self._counters["submitted"] += 1
            hit, value = self.cache.lookup(
                RESULT_STAGE, (network.content_hash(), params),
                tracer=self.tracer)
            if hit:
                self._counters["cache_hits"] += 1
                self._resolve_locked(request, key, "ok", result=value,
                                     from_cache=True)
                return Ticket(request)
            if key in self._inflight:
                request.deduped = True
                self._counters["dedup_hits"] += 1
                self._inflight[key].waiters.append(request)
                return Ticket(request)
            if len(self._queue) >= self.config.max_queue:
                self._resolve_locked(
                    request, key, "shed",
                    error=f"queue full (max_queue={self.config.max_queue})")
                return Ticket(request)
            computation = _Computation(key, network, params, request)
            self._inflight[key] = computation
            self._queue.append(computation)
            self._cond.notify()
            start_workers = self.config.workers > 0 and not self._threads
        if start_workers:
            self.start()
        elif self.config.workers == 0 and not self._paused:
            self.drain()
        return Ticket(request)

    def request(self, network: SensorNetwork, kind: str = "skeleton",
                params: Optional[SkeletonParams] = None,
                deadline: Optional[float] = None,
                deadline_action: Optional[str] = None,
                timeout: Optional[float] = None) -> SkeletonResponse:
        """Submit and wait: the synchronous convenience entry point.

        In inline mode this forces the queue through even when paused —
        a paused inline service has nobody else to do it.
        """
        ticket = self.submit(network, kind, params=params, deadline=deadline,
                             deadline_action=deadline_action)
        if self.config.workers == 0 and not ticket.done():
            self.drain()
        return ticket.result(timeout)

    # -- processing ---------------------------------------------------------

    def pump(self) -> int:
        """Process at most one queued computation; returns 0 or 1.

        The deterministic stepping primitive: tests pause the service,
        submit a scripted interleaving, then pump requests through one at
        a time at exact virtual-clock instants.
        """
        with self._cond:
            if not self._queue:
                return 0
            computation = self._queue.popleft()
        self._process(computation)
        return 1

    def drain(self) -> int:
        """Process queued computations until the queue is empty."""
        count = 0
        while self.pump():
            count += 1
        return count

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and (not self._queue or self._paused):
                    self._cond.wait(timeout=0.05)
                if self._stopping:
                    return
                computation = self._queue.popleft()
            self._process(computation)

    def _process(self, computation: _Computation) -> None:
        founder = computation.waiters[0]
        now = self.clock.now()
        expired = founder.deadline_at is not None and now >= founder.deadline_at
        if expired and founder.action == "shed":
            self._finish(computation, "shed",
                         error="deadline expired before execution")
            return
        try:
            with stage_span(self.tracer, "serve:compute"):
                # The monolithic extractor shares the service's cache
                # handle, so its stage artifacts warm-start later requests.
                result = extract_skeleton(
                    computation.network, computation.params,
                    cache=self.cache, tracer=self.tracer)
        except Exception as exc:  # noqa: BLE001 - the service must survive
            self._finish(computation, "failed",
                         error=f"{type(exc).__name__}: {exc}")
            return
        with self._cond:
            self._counters["computed"] += 1
        self.cache.put(RESULT_STAGE,
                       (computation.network.content_hash(),
                        computation.params), result)
        self._finish(computation, "ok", result=result)

    # -- resolution ---------------------------------------------------------

    def _artifact(self, result: SkeletonResult, kind: str) -> Any:
        if kind == "skeleton":
            return result.skeleton
        if kind == "segmentation":
            return result.segmentation
        if kind == "boundary":
            return result.boundary_nodes
        return result

    def _finish(self, computation: _Computation, status: str,
                result: Optional[SkeletonResult] = None,
                error: Optional[str] = None) -> None:
        with self._cond:
            self._inflight.pop(computation.key, None)
            for request in computation.waiters:
                self._resolve_locked(request, computation.key, status,
                                     result=result, error=error)

    def _resolve_locked(self, request: _Request, key: str, status: str,
                        result: Optional[SkeletonResult] = None,
                        from_cache: bool = False,
                        error: Optional[str] = None) -> None:
        now = self.clock.now()
        response = SkeletonResponse(
            request_id=request.id,
            kind=request.kind,
            status=status,
            content_key=key,
            artifact=(self._artifact(result, request.kind)
                      if result is not None and status == "ok" else None),
            from_cache=from_cache,
            deduped=request.deduped,
            deadline_missed=(request.deadline_at is not None
                             and now > request.deadline_at),
            error=error,
            submitted_at=request.submitted_at,
            resolved_at=now,
        )
        self._counters["completed"] += 1
        self._counters[status] += 1
        if status == "ok":
            self._latencies.append(response.latency)
        request.response = response
        request.event.set()

    def _merge_supervision(self, stage: str,
                           counters: Dict[str, int]) -> None:
        with self._cond:
            slot = self._supervision.setdefault(
                stage, dict.fromkeys(counters, 0))
            for what, amount in counters.items():
                slot[what] += amount
        if self.tracer is not None:
            for _ in range(counters["retries"]):
                self.tracer.on_task_retry(stage)
            for _ in range(counters["failures"]):
                self.tracer.on_task_failure(stage)

    # -- batch --------------------------------------------------------------

    def submit_batch(self, items: Sequence[Union[SensorNetwork,
                                                 Tuple[SensorNetwork, str]]],
                     kind: str = "skeleton",
                     params: Optional[SkeletonParams] = None,
                     jobs: Optional[int] = None) -> List[SkeletonResponse]:
        """Serve a batch in one supervised fan-out; responses in order.

        Items are networks, or ``(network, kind)`` pairs overriding the
        batch-level *kind*.  Within the batch, identical content keys
        dedup to one computation, cached keys are served from the cache,
        and the misses fan out through
        :func:`~repro.resilience.supervise` (worker processes per *jobs*
        / ``REPRO_JOBS``; an explicit value must be >= 1, checked before
        any cache lookup), so a crashed batch task retries with backoff
        and an exhausted one yields a ``"failed"`` response for exactly
        the requests that depended on it — never an exception out of the
        batch call.  Batch requests bypass the admission
        queue: an explicit bulk submission is its own load statement.
        """
        jobs = effective_jobs(jobs if jobs is not None else self.config.jobs)
        params = params if params is not None else SkeletonParams()
        normalized: List[Tuple[SensorNetwork, str]] = []
        for item in items:
            if isinstance(item, tuple):
                network, item_kind = item
            else:
                network, item_kind = item, kind
            if item_kind not in ARTIFACT_KINDS:
                raise ValueError(
                    f"kind must be one of {ARTIFACT_KINDS}, got {item_kind!r}")
            normalized.append((network, item_kind))

        started_at = self.clock.now()
        order: List[str] = []
        by_key: Dict[str, List[int]] = {}
        for index, (network, _item_kind) in enumerate(normalized):
            key = self.content_key(network, params)
            if key not in by_key:
                order.append(key)
            by_key.setdefault(key, []).append(index)

        resolved: Dict[str, Tuple[str, Optional[SkeletonResult], bool,
                                  Optional[str]]] = {}
        to_compute: List[str] = []
        with self._cond:
            self._counters["submitted"] += len(normalized)
            for key in order:
                indices = by_key[key]
                self._counters["dedup_hits"] += len(indices) - 1
                network = normalized[indices[0]][0]
                hit, value = self.cache.lookup(
                    RESULT_STAGE, (network.content_hash(), params),
                    tracer=self.tracer)
                if hit:
                    self._counters["cache_hits"] += len(indices)
                    resolved[key] = ("ok", value, True, None)
                    continue
                to_compute.append(key)

        if to_compute:
            cache_dir = (str(self.cache.disk_dir)
                         if self.cache.disk_dir is not None else None)
            configs = [{"network": normalized[by_key[key][0]][0],
                        "params": params, "cache_dir": cache_dir}
                       for key in to_compute]
            previous = set_task_context(self.cache, self.tracer)
            try:
                with stage_span(self.tracer, BATCH_STAGE):
                    outcomes = supervise(
                        _batch_compute_task, configs, jobs=jobs,
                        stage=BATCH_STAGE, policy=self.config.supervisor,
                        fault_plan=self.config.fault_plan)
            finally:
                set_task_context(*previous)
            self._merge_supervision(BATCH_STAGE, outcome_counters(outcomes))
            for key, outcome in zip(to_compute, outcomes):
                if outcome.ok:
                    with self._cond:
                        self._counters["computed"] += 1
                    network = normalized[by_key[key][0]][0]
                    self.cache.put(RESULT_STAGE,
                                   (network.content_hash(), params),
                                   outcome.result)
                    resolved[key] = ("ok", outcome.result, False, None)
                else:
                    message = outcome.errors[-1] if outcome.errors \
                        else "task failed"
                    resolved[key] = ("failed", None, False, message)

        responses: List[SkeletonResponse] = []
        finished_at = self.clock.now()
        with self._cond:
            for index, (network, item_kind) in enumerate(normalized):
                key = self.content_key(network, params)
                status, result, from_cache, error = resolved[key]
                request = _Request(self._next_id, item_kind, started_at,
                                   None, "full")
                self._next_id += 1
                request.deduped = index != by_key[key][0]
                self._resolve_locked(request, key, status, result=result,
                                     from_cache=from_cache, error=error)
                assert request.response is not None
                request.response.resolved_at = finished_at
                responses.append(request.response)
        return responses

    # -- introspection ------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of counters, queue depth and latencies."""
        with self._cond:
            latencies = list(self._latencies)
            supervision = {stage: dict(values)
                           for stage, values in self._supervision.items()}
            return ServiceStats(
                submitted=self._counters["submitted"],
                completed=self._counters["completed"],
                ok=self._counters["ok"],
                failed=self._counters["failed"],
                shed=self._counters["shed"],
                computed=self._counters["computed"],
                cache_hits=self._counters["cache_hits"],
                dedup_hits=self._counters["dedup_hits"],
                queue_depth=len(self._queue),
                latency_p50=percentile(latencies, 0.50),
                latency_p99=percentile(latencies, 0.99),
                latency_max=max(latencies, default=0.0),
                supervision=supervision,
            )


def _batch_compute_task(config: Dict) -> SkeletonResult:
    """One batch computation — a pure function of its config, executable
    in any pool worker (module-level for pickling).  Supervision happens
    in the parent's :func:`~repro.resilience.supervise` call."""
    cache, tracer = task_context(config.get("cache_dir"))
    return extract_skeleton(config["network"], config["params"],
                            cache=cache, tracer=tracer)
