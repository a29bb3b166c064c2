"""Skeleton-as-a-service: an in-process request loop over the pipeline.

:class:`SkeletonService` serves skeleton, segmentation and boundary
artifacts for submitted networks, repeatedly.  It is built out of
substrate that already exists in this repository; this module
contributes the request lifecycle around it:

* **content-addressed serving** — responses come from the
  :class:`~repro.perf.ArtifactCache` keyed by
  ``(SensorNetwork.content_hash(), params)``, so a repeated network is a
  cache hit, not a recomputation, and a hit is correct by construction;
* **request dedup** — identical in-flight requests (same content key)
  coalesce onto one computation: N submissions, one pipeline execution,
  N identical responses;
* **bounded-queue admission** — at most ``max_queue`` computations wait;
  beyond that the service *sheds* (an immediate ``"shed"`` response)
  instead of building an unbounded backlog;
* **serving metrics** — hit / dedup / shed / computed counters and
  latency percentiles (:class:`ServiceStats`), plus
  :class:`~repro.observability.tracer.Tracer` integration (compute
  spans and cache counters) so a served workload reads out through the
  standard :class:`~repro.observability.metrics.MetricsReport`.

Computations run on the calling thread: ``submit`` on a running
service, or ``pump`` / ``drain`` / ``resume`` on a paused one.  The
service never resolves a request from anything but the cache or a
pipeline run, both of which are bit-identical to a direct monolithic
extraction — the serial-equivalence battery in ``tests/test_serving.py``
pins that for every artifact kind.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..core.params import SkeletonParams
from ..core.pipeline import extract_skeleton, stage_span
from ..core.result import SkeletonResult
from ..network.graph import SensorNetwork
from ..observability.metrics import percentile
from ..perf import ArtifactCache, stable_digest

__all__ = ["ARTIFACT_KINDS", "RESULT_STAGE", "ServiceConfig",
           "SkeletonResponse", "Ticket", "ServiceStats", "SkeletonService"]

#: What a request may ask for.  All kinds are views over one
#: :class:`~repro.core.result.SkeletonResult`, so they share cache
#: entries and dedup keys — asking for the boundary of a network whose
#: skeleton is in flight coalesces onto the same computation.
ARTIFACT_KINDS = ("skeleton", "segmentation", "boundary", "result")

#: Cache stage under which full results are published.
RESULT_STAGE = "serve:result"


@dataclass(frozen=True)
class ServiceConfig:
    """Admission policy for one service instance.

    Attributes:
        max_queue: computations allowed to wait; admission beyond this
            sheds the request.  (Dedup attachments and cache hits never
            consume a slot — they are resolved without queueing.)
    """

    max_queue: int = 64

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


@dataclass
class SkeletonResponse:
    """One resolved request.

    ``status``: ``"ok"`` (the artifact), ``"shed"`` (dropped by
    admission; no artifact), ``"failed"`` (the computation raised; see
    :attr:`error`).
    """

    request_id: int
    kind: str
    status: str
    content_key: str
    artifact: Any = None
    from_cache: bool = False
    deduped: bool = False
    error: Optional[str] = None
    submitted_at: float = 0.0
    resolved_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency(self) -> float:
        """Seconds from admission to resolution (``perf_counter``)."""
        return self.resolved_at - self.submitted_at


class _Request:
    """Internal per-submission record (the thing a :class:`Ticket` wraps)."""

    __slots__ = ("id", "kind", "submitted_at", "deduped", "response")

    def __init__(self, rid: int, kind: str, submitted_at: float):
        self.id = rid
        self.kind = kind
        self.submitted_at = submitted_at
        self.deduped = False
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

    def done(self) -> bool:
        return self._request.response is not None

    def result(self, timeout: Optional[float] = None) -> SkeletonResponse:
        """The response, or ``TimeoutError`` at once if unresolved.

        The service has no threads of its own, so nothing resolves a
        ticket while its caller waits: whatever *timeout*, an unresolved
        ticket (its service paused, or its computation still running on
        another caller's thread) raises immediately.
        """
        response = self._request.response
        if response is None:
            raise TimeoutError(f"request {self._request.id} is unresolved")
        return response


@dataclass(frozen=True)
class ServiceStats:
    """A snapshot of the service counters and latency percentiles.

    Counter arithmetic (the property battery pins this): every submitted
    request resolves to exactly one status, so once the queue is drained
    ``completed == submitted == ok + failed + shed``.
    ``computed`` counts pipeline executions — N identical
    in-flight requests contribute 1.
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

    Usage::

        service = SkeletonService()
        response = service.request(network, kind="skeleton")
        assert response.ok

    Batches::

        service.pause()
        tickets = [service.submit(net) for net in networks]
        service.resume()            # computes the queue, dedup applied
        responses = [t.result() for t in tickets]
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Optional[ArtifactCache] = None, tracer=None):
        self.config = config if config is not None else ServiceConfig()
        self.tracer = tracer
        self.cache = cache if cache is not None else ArtifactCache()
        # Callers may submit from several threads; the lock guards the
        # queue, the in-flight map and the counters.
        self._lock = threading.Lock()
        self._queue: "deque[_Computation]" = deque()
        self._inflight: Dict[str, _Computation] = {}
        self._paused = False
        self._next_id = 0
        self._latencies: List[float] = []
        self._counters: Dict[str, int] = {
            key: 0 for key in ("submitted", "completed", "ok", "failed",
                               "shed", "computed", "cache_hits",
                               "dedup_hits")
        }

    def pause(self) -> None:
        """Hold queued computations until :meth:`resume` or :meth:`pump`."""
        with self._lock:
            self._paused = True

    def resume(self, drain: bool = True) -> None:
        with self._lock:
            self._paused = False
        if drain:
            self.drain()

    # -- submission ---------------------------------------------------------

    def submit(self, network: SensorNetwork, kind: str = "skeleton",
               params: Optional[SkeletonParams] = None) -> Ticket:
        """Admit one request and return its :class:`Ticket`.

        Resolution order at admission: cache hit (instant response) →
        dedup attach (rides the in-flight computation) → queue (subject to
        ``max_queue`` — beyond it, an instant ``"shed"`` response).  A
        service that is not paused then drains its queue before
        returning.
        """
        if kind not in ARTIFACT_KINDS:
            raise ValueError(
                f"kind must be one of {ARTIFACT_KINDS}, got {kind!r}")
        params = params if params is not None else SkeletonParams()
        now = perf_counter()
        key = stable_digest(network.content_hash(), params)
        with self._lock:
            request = _Request(self._next_id, kind, now)
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
            paused = self._paused
        if not paused:
            self.drain()
        return Ticket(request)

    def request(self, network: SensorNetwork, kind: str = "skeleton",
                params: Optional[SkeletonParams] = None) -> SkeletonResponse:
        """Submit and resolve: the synchronous convenience entry point.

        This forces the queue through even when the service is paused.
        """
        ticket = self.submit(network, kind, params=params)
        if not ticket.done():
            self.drain()
        return ticket.result()

    # -- processing ---------------------------------------------------------

    def pump(self) -> int:
        """Process at most one queued computation; returns 0 or 1.

        The stepping primitive: tests pause the service, submit a
        scripted interleaving, then pump computations through one at a
        time.
        """
        with self._lock:
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

    def _process(self, computation: _Computation) -> None:
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
        with self._lock:
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
        with self._lock:
            self._inflight.pop(computation.key, None)
            for request in computation.waiters:
                self._resolve_locked(request, computation.key, status,
                                     result=result, error=error)

    def _resolve_locked(self, request: _Request, key: str, status: str,
                        result: Optional[SkeletonResult] = None,
                        from_cache: bool = False,
                        error: Optional[str] = None) -> None:
        response = SkeletonResponse(
            request_id=request.id,
            kind=request.kind,
            status=status,
            content_key=key,
            artifact=(self._artifact(result, request.kind)
                      if result is not None and status == "ok" else None),
            from_cache=from_cache,
            deduped=request.deduped,
            error=error,
            submitted_at=request.submitted_at,
            resolved_at=perf_counter(),
        )
        self._counters["completed"] += 1
        self._counters[status] += 1
        if status == "ok":
            self._latencies.append(response.latency)
        request.response = response

    # -- introspection ------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of counters, queue depth and latencies."""
        with self._lock:
            latencies = list(self._latencies)
            return ServiceStats(
                **self._counters,
                queue_depth=len(self._queue),
                latency_p50=percentile(latencies, 0.50),
                latency_p99=percentile(latencies, 0.99),
                latency_max=max(latencies, default=0.0),
            )
