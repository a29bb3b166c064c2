"""Structured observability for the distributed runtimes.

Zero-overhead-when-disabled tracing and metrics for both schedulers and
any protocol they run:

* :class:`Tracer` — records spans (pipeline stages, protocol phases,
  per-site floods) and events (send / deliver / drop / retry / ack loss /
  correction / timer / crash) with virtual-time stamps and node ids;
* :class:`MetricsReport` — compact per-phase breakdown: message counts,
  wave frontier widths, convergence-latency percentiles, retry
  amplification;
* :class:`TraceQuery` — ``events_between`` / ``messages_by_phase`` /
  ``causal_chain`` over the event log, the API trace-based tests consume;
* :func:`chrome_trace` / :func:`write_chrome_trace` — Perfetto-loadable
  Chrome trace-event JSON;
* ``python -m repro trace`` — trace a scenario end to end, print
  the ASCII per-phase summary, write the trace JSON.

Attach a tracer via the ``tracer=`` keyword of
:func:`repro.core.extract_skeleton`,
:func:`repro.core.extract_skeleton_distributed`,
:func:`repro.core.run_distributed_stages`, or either scheduler's
constructor.  Tracing is observationally pure: results and ``RunStats``
are bit-identical with and without it (property-tested across the
synchronous, lossy and asynchronous fabrics).
"""

from .tracer import Span, TraceEvent, Tracer
from .metrics import MetricsReport, PhaseMetrics, build_metrics, percentile
from .query import TraceQuery
from .export import chrome_trace, write_chrome_trace

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "MetricsReport",
    "PhaseMetrics",
    "build_metrics",
    "percentile",
    "TraceQuery",
    "chrome_trace",
    "write_chrome_trace",
]
