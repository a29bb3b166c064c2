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
* **serving metrics** — hit / dedup / shed / computed counters and
  latency percentiles (:class:`ServiceStats`), plus
  :class:`~repro.observability.tracer.Tracer` integration (compute
  spans and cache counters) so a served workload reads out through the
  standard :class:`~repro.observability.metrics.MetricsReport`.

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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.params import SkeletonParams
from ..core.pipeline import extract_skeleton, stage_span
from ..core.result import SkeletonResult
from ..network.graph import SensorNetwork
from ..observability.metrics import percentile
from ..perf import ArtifactCache, stable_digest
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
    """Admission, worker and deadline policy for one service instance.

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
    """

    max_queue: int = 64
    workers: int = 0
    default_deadline: Optional[float] = None
    deadline_action: str = "full"

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.deadline_action not in _DEADLINE_ACTIONS:
            raise ValueError(
                f"deadline_action must be one of {_DEADLINE_ACTIONS}")
        _check_deadline("default_deadline", self.default_deadline)


@dataclass
class SkeletonResponse:
    """One resolved request.

    ``status``: ``"ok"`` (the artifact), ``"shed"`` (dropped by
    admission or a ``"shed"`` deadline; no artifact), ``"failed"`` (the
    computation raised; see :attr:`error`).
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

    # -- introspection ------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of counters, queue depth and latencies."""
        with self._cond:
            latencies = list(self._latencies)
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
            )

