"""Distributed-simulation runtimes.

Two schedulers over the same per-node protocol abstraction: a round-based
synchronous simulator and an event-driven asynchronous one (priority-queue
event loop, per-link latency models, adaptive timers, deficit-counting
convergence detection).  Shared across both: broadcast accounting and a
deterministic fault-injection layer (message drops, link flaps, node
crashes) with link-layer ack/retry recovery.  The per-node program the
paper's stages 1-2 run on them is
:class:`~repro.core.distributed.SkeletonNodeProtocol`.
"""

from .message import Message
from .protocol import NodeApi, NodeProtocol
from .faults import CrashWindow, FaultPlan, RetryPolicy
from .latency import LatencyModel
from .link import SeqWindow
from .scheduler import SynchronousScheduler
from .async_scheduler import (
    AsyncNodeApi,
    AsyncProfile,
    AsyncScheduler,
    live_components,
)
from .stats import ConvergenceReport, RunStats

__all__ = [
    "Message",
    "NodeApi",
    "NodeProtocol",
    "CrashWindow",
    "FaultPlan",
    "RetryPolicy",
    "LatencyModel",
    "SeqWindow",
    "SynchronousScheduler",
    "AsyncNodeApi",
    "AsyncProfile",
    "AsyncScheduler",
    "live_components",
    "ConvergenceReport",
    "RunStats",
]
