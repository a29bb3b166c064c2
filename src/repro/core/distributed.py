"""Message-passing implementation of the identification and Voronoi stages.

This module runs the paper's first two stages as genuine per-node protocols
on the synchronous runtime, with full message accounting — the empirical
side of Theorem 5 (O(√n) rounds, O((k+l+1)n) broadcasts):

* rounds ``0 .. k-1``     — aggregated k-hop neighbourhood gossip
                            (≤ k broadcasts per node);
* rounds ``k .. k+l-1``   — each node's k-hop size spreads l hops
                            (≤ l broadcasts per node);
* rounds ``k+l ..``       — index gossip over ``local_max_hops`` hops, after
                            which each node decides whether it is a critical
                            skeleton node (Definition 5);
* final phase             — concurrent site flooding builds the Voronoi
                            cells (≤ 1 broadcast per node).

The composite protocol is time-triggered: because the runtime is
synchronous and every node knows k and l, phase boundaries need no control
messages.  Tests assert the outcome matches the centralized engine exactly.

The same protocol also runs on the **event-driven runtime**
(:class:`~repro.runtime.async_scheduler.AsyncScheduler`), where no global
round exists.  Gossip switches to hop-TTL entries (each carries its hop
distance from its origin, dying at the same hop count the round budget
enforces), and phase boundaries become *adaptive local timeouts*: each node
schedules a nominal deadline of phase-length hops, extends it with an
exponentially backed-off grace whenever in-phase traffic is still arriving,
and advances when the deadline passes quietly.  With zero jitter no
extension can fire and the run is result-identical to the synchronous one;
under jitter, late information triggers **monotone recomputation** — k-hop
sizes and indices carry version numbers, receivers keep the highest — and
bounded correction broadcasts keep downstream nodes converging without
violating the paper's per-node budgets (corrections are accounted
separately in :attr:`RunStats.corrections`).

The stages also run over the lossy fabric of :mod:`repro.runtime.faults`:
pass a ``fault_plan`` (and usually a ``retry_policy``) to
:func:`run_distributed_stages`.  Phase boundaries are evaluated as
"reached and not yet computed", so a node that was crashed across a
boundary catches up on recovery instead of dying with half-initialised
state; with a zero-probability plan the outcome is bit-identical to the
fault-free run.  :func:`voronoi_from_distributed` and
:func:`extract_skeleton_distributed` lift a (possibly degraded) distributed
outcome into the centralized stage-3/4 data model so the full pipeline —
and its quality metrics — can be evaluated under faults.  When permanent
crashes partition the survivors, :func:`extract_skeleton_distributed`
degrades gracefully: the run still terminates (each fragment quiesces on
its own), and the result carries ``partitioned=True`` plus one partial
:class:`~repro.core.result.SkeletonResult` per surviving fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..network.graph import SensorNetwork
from ..network.traversal import FloodTable
from ..runtime.async_scheduler import AsyncProfile, AsyncScheduler, live_components
from ..runtime.faults import FaultPlan, RetryPolicy
from ..runtime.latency import LatencyModel
from ..runtime.message import Message
from ..runtime.protocol import NodeApi, NodeProtocol
from ..runtime.scheduler import SynchronousScheduler
from ..runtime.stats import RunStats
from .coarse import build_coarse_skeleton
from .neighborhood import IndexData
from .params import SkeletonParams
from .pipeline import empty_skeleton_result, finish_skeleton, stage_span
from .result import ComponentResult
from .voronoi import (VoronoiDecomposition, voronoi_from_entries,
                      within_alpha_of_best)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Tracer

__all__ = [
    "SkeletonNodeProtocol",
    "DistributedExtraction",
    "run_distributed_stages",
    "voronoi_from_distributed",
    "extract_skeleton_distributed",
]

_SCHEDULERS = ("sync", "async")


class SkeletonNodeProtocol(NodeProtocol):
    """The per-node program for identification + Voronoi construction.

    Dual-mode: time-triggered phases on the synchronous scheduler,
    timer-triggered phases with hop-TTL gossip and versioned monotone
    recomputation on the event-driven one (selected automatically via
    ``api.is_async`` at start).
    """

    NBR = "nbr"      # phase 1: neighbourhood gossip payloads
    SIZE = "size"    # phase 2: (id, k-hop size) pairs
    INDEX = "index"  # phase 3: (id, index) pairs
    SITE = "site"    # phase 4: (site id, hop counter) waves

    # Async phase numbers (the synchronous path derives phases from rounds).
    _P_NBR, _P_SIZE, _P_INDEX, _P_SITE = 0, 1, 2, 3

    def __init__(self, node_id: int, params: SkeletonParams,
                 async_profile: Optional[AsyncProfile] = None):
        super().__init__(node_id)
        self.params = params
        # Phase 1 state.
        self.known: Set[int] = {node_id}
        self._fresh_ids: Set[int] = set()
        self._nbr_sent = 0
        # Phase 2 state.
        self.sizes: Dict[int, int] = {}
        self._fresh_sizes: Dict[int, int] = {}
        self._size_sent = 0
        # Phase 3 state.
        self.indices: Dict[int, float] = {}
        self._fresh_indices: Dict[int, float] = {}
        self._index_sent = 0
        # Outcomes.
        self.khop_size: Optional[int] = None
        self.centrality: Optional[float] = None
        self.index: Optional[float] = None
        self.is_critical: Optional[bool] = None
        # Phase 4 state: site -> (distance, parent).
        self.site_records: Dict[int, Tuple[int, Optional[int]]] = {}
        self._site_anchor: Optional[int] = None
        # Repair re-forwards left.  Both fabrics start with the same budget;
        # the synchronous one rejects ``async_profile``, so it gets the
        # default.
        self._corrections_left = (
            async_profile.correction_budget if async_profile is not None
            else AsyncProfile.correction_budget
        )
        # Event-driven state: hop-TTL gossip (distance per origin, pending
        # re-forwards), versions for monotone recomputation and the adaptive
        # phase deadline.
        self._profile = async_profile
        self._async = False
        self._phase = self._P_NBR
        self._deadline: Optional[float] = None
        self._grace = 0.0
        self._hop_time = 1.0
        self._flush_armed = False
        self._nbr_dists: Dict[int, int] = {node_id: 0}
        self._nbr_pending: Dict[int, int] = {}
        self._size_vers: Dict[int, int] = {}
        self._size_hops: Dict[int, int] = {}
        self._size_pending: Dict[int, Tuple[int, int, int]] = {}
        self._my_size_version = -1
        self._index_vers: Dict[int, int] = {}
        self._index_hops: Dict[int, int] = {}
        self._index_pending: Dict[int, Tuple[int, float, int]] = {}
        self._my_index_version = -1

    # -- phase boundaries (synchronous mode) --------------------------------

    @property
    def _size_phase_start(self) -> int:
        return self.params.k

    @property
    def _index_phase_start(self) -> int:
        return self.params.k + self.params.l

    @property
    def _decision_round(self) -> int:
        return self.params.k + self.params.l + self.params.local_max_hops

    # -- protocol hooks -------------------------------------------------------

    def on_start(self, api: NodeApi) -> None:
        self._async = api.is_async
        if self._async:
            if self._profile is None:
                self._profile = AsyncProfile()
            base = api.base_latency
            self._hop_time = base + self._profile.aggregation_delay
            self._grace = self._profile.grace * base
            api.broadcast(self.NBR, ((self.node_id, 0),))
            self._nbr_sent = 1
            self._deadline = self.params.k * self._hop_time + self._grace
            api.set_timer(self._deadline, "phase")
            return
        api.broadcast(self.NBR, frozenset({self.node_id}))
        self._nbr_sent = 1

    def on_message(self, message: Message, api: NodeApi) -> None:
        if message.kind == self.SITE:
            self._handle_site_wave(message, api)
            return
        if self._async:
            self._on_gossip_async(message, api)
            return
        if message.kind == self.NBR:
            for node in message.payload:
                if node not in self.known:
                    self.known.add(node)
                    self._fresh_ids.add(node)
        elif message.kind == self.SIZE:
            for node, size in message.payload:
                if node not in self.sizes:
                    self.sizes[node] = size
                    self._fresh_sizes[node] = size
        elif message.kind == self.INDEX:
            for node, value in message.payload:
                if node not in self.indices:
                    self.indices[node] = value
                    self._fresh_indices[node] = value

    # -- site flood (shared by both modes) ----------------------------------

    def _handle_site_wave(self, message: Message, api: NodeApi) -> None:
        site, hops = message.payload
        my_dist = hops + 1
        if not self.site_records:
            self.site_records[site] = (my_dist, message.sender)
            api.broadcast(self.SITE, (site, my_dist))
            self._site_anchor = site
            return
        if site in self.site_records:
            # Loss or reordering delivered waves out of distance order; keep
            # the shortest path seen.  If this node already propagated the
            # site's wave (or the upgrade makes a banded site its strict
            # nearest), descendants hold stale state — re-broadcast as a
            # budgeted correction.  Never fires on a fault-free synchronous
            # run, so the ≤ 1 algorithmic broadcast bound stands.
            if my_dist < self.site_records[site][0]:
                self.site_records[site] = (my_dist, message.sender)
                if site == self._site_anchor:
                    self._prune_site_records(my_dist)
                    self._site_correct(api, site, my_dist)
                elif my_dist < self._site_anchor_distance():
                    self._prune_site_records(my_dist)
                    self._site_correct(api, site, my_dist)
            return
        best = min(d for d, _ in self.site_records.values())
        if my_dist < best:
            # A strictly nearer site arrived after this node joined a
            # farther wave: re-anchor, prune records pushed outside the α
            # band, and forward the wave this node should have carried.
            self.site_records[site] = (my_dist, message.sender)
            self._prune_site_records(my_dist)
            self._site_correct(api, site, my_dist)
            return
        if my_dist - best <= self.params.alpha:
            self.site_records[site] = (my_dist, message.sender)

    def _site_anchor_distance(self) -> float:
        record = self.site_records.get(self._site_anchor)
        return record[0] if record is not None else float("inf")

    def _prune_site_records(self, new_best: int) -> None:
        for stale in [
            s for s, (d, _) in self.site_records.items()
            if d > new_best + self.params.alpha
        ]:
            del self.site_records[stale]

    def _site_correct(self, api: NodeApi, site: int, dist: int) -> None:
        if self._corrections_left > 0:
            self._corrections_left -= 1
            api.broadcast(self.SITE, (site, dist), correction=True)
            self._site_anchor = site
        else:
            api.note_suppressed_correction()

    # -- event-driven gossip -------------------------------------------------

    def _on_gossip_async(self, message: Message, api: NodeApi) -> None:
        params = self.params
        if message.kind == self.NBR:
            changed = False
            for origin, dist in message.payload:
                my_dist = dist + 1
                cur = self._nbr_dists.get(origin)
                if cur is not None and my_dist >= cur:
                    continue
                self._nbr_dists[origin] = my_dist
                self.known.add(origin)
                if my_dist < params.k:
                    self._nbr_pending[origin] = my_dist
                changed = True
            if changed:
                if self._phase == self._P_NBR:
                    self._extend_deadline(api)
                elif self.khop_size is not None:
                    # The neighbourhood grew after the size was announced:
                    # recompute and re-announce under a higher version.
                    self._recompute_size()
        elif message.kind == self.SIZE:
            changed = value_changed = False
            for origin, version, value, hops in message.payload:
                my_hops = hops + 1
                cur_ver = self._size_vers.get(origin, -1)
                if version > cur_ver:
                    self._size_vers[origin] = version
                    self._size_hops[origin] = my_hops
                    if self.sizes.get(origin) != value:
                        self.sizes[origin] = value
                        value_changed = True
                elif version == cur_ver and my_hops < self._size_hops[origin]:
                    self._size_hops[origin] = my_hops
                else:
                    continue
                if my_hops < params.l:
                    self._size_pending[origin] = (version, value, my_hops)
                changed = True
            if changed and self._phase == self._P_SIZE:
                self._extend_deadline(api)
            if value_changed and self.index is not None:
                self._recompute_index()
        elif message.kind == self.INDEX:
            changed = False
            for origin, version, value, hops in message.payload:
                my_hops = hops + 1
                cur_ver = self._index_vers.get(origin, -1)
                if version > cur_ver:
                    self._index_vers[origin] = version
                    self._index_hops[origin] = my_hops
                    self.indices[origin] = value
                elif version == cur_ver and my_hops < self._index_hops[origin]:
                    self._index_hops[origin] = my_hops
                else:
                    continue
                if my_hops < params.local_max_hops:
                    self._index_pending[origin] = (version, value, my_hops)
                changed = True
            if changed and self._phase == self._P_INDEX:
                self._extend_deadline(api)
            # A changed index after the criticality decision cannot be
            # acted on — the site flood has launched; the divergence is
            # part of the measured degradation.

    def _recompute_size(self) -> None:
        new_size = (len(self.known) if self.params.include_self
                    else len(self.known) - 1)
        if new_size == self.khop_size:
            return
        self.khop_size = new_size
        self._my_size_version += 1
        self.sizes[self.node_id] = new_size
        self._size_vers[self.node_id] = self._my_size_version
        self._size_hops[self.node_id] = 0
        self._size_pending[self.node_id] = (
            self._my_size_version, new_size, 0
        )
        if self.index is not None:
            self._recompute_index()

    def _recompute_index(self) -> None:
        members = list(self.sizes.values())
        self.centrality = sum(members) / len(members) if members else 0.0
        new_index = (self.khop_size + self.centrality) / 2.0
        if new_index == self.index:
            return
        self.index = new_index
        self._my_index_version += 1
        self.indices[self.node_id] = new_index
        self._index_vers[self.node_id] = self._my_index_version
        self._index_hops[self.node_id] = 0
        self._index_pending[self.node_id] = (
            self._my_index_version, new_index, 0
        )

    def _extend_deadline(self, api: NodeApi) -> None:
        """Adaptive timeout: in-phase traffic still arriving slides the
        phase deadline to one grace past the latest arrival.  With zero
        jitter every arrival lands inside the nominal deadline and no
        extension fires."""
        if self._deadline is None:
            return
        extended = api.now + self._grace
        if extended > self._deadline:
            self._deadline = extended
            # The armed timer fires at the old deadline and re-arms itself.

    def on_timer(self, tag: str, api: NodeApi) -> None:
        if tag == "flush":
            self._flush_armed = False
            self._flush(api)
            return
        if tag != "phase" or self._deadline is None:
            return
        if api.now < self._deadline - 1e-9:
            # The deadline moved while this timer was in flight: a full
            # grace elapsed and in-phase traffic was still arriving, so
            # back the grace off exponentially (straggler-heavy runs wait
            # longer per extension instead of thrashing) and re-arm.
            self._grace *= self._profile.backoff
            api.set_timer(self._deadline - api.now, "phase")
            return
        self._advance_phase(api)

    def _advance_phase(self, api: NodeApi) -> None:
        params = self.params
        base = api.base_latency
        if self._phase == self._P_NBR:
            self._phase = self._P_SIZE
            if self.khop_size is None:
                self.khop_size = (len(self.known) if params.include_self
                                  else len(self.known) - 1)
                self._my_size_version = 0
                self.sizes[self.node_id] = self.khop_size
                self._size_vers[self.node_id] = 0
                self._size_hops[self.node_id] = 0
                self._size_pending[self.node_id] = (0, self.khop_size, 0)
            self._grace = self._profile.grace * base
            self._deadline = api.now + params.l * self._hop_time + self._grace
            api.set_timer(self._deadline - api.now, "phase")
            self._flush(api)
        elif self._phase == self._P_SIZE:
            self._phase = self._P_INDEX
            if self.index is None:
                members = list(self.sizes.values())
                self.centrality = (sum(members) / len(members)
                                   if members else 0.0)
                self.index = (self.khop_size + self.centrality) / 2.0
                self._my_index_version = 0
                self.indices[self.node_id] = self.index
                self._index_vers[self.node_id] = 0
                self._index_hops[self.node_id] = 0
                self._index_pending[self.node_id] = (0, self.index, 0)
            self._grace = self._profile.grace * base
            self._deadline = (api.now
                              + params.local_max_hops * self._hop_time
                              + self._grace)
            api.set_timer(self._deadline - api.now, "phase")
            self._flush(api)
        elif self._phase == self._P_INDEX:
            self._phase = self._P_SITE
            self._deadline = None
            if self.is_critical is None:
                mine = (self.index, self.node_id)
                self.is_critical = all(
                    (value, node) <= mine
                    for node, value in self.indices.items()
                )
                if self.is_critical:
                    self.site_records[self.node_id] = (0, None)
                    api.broadcast(self.SITE, (self.node_id, 0))
                    self._site_anchor = self.node_id
            self._flush(api)

    def on_batch_end(self, api: NodeApi) -> None:
        if not self._async or self._flush_armed:
            return
        if not (self._nbr_pending or self._size_pending or self._index_pending):
            return
        delay = self._profile.aggregation_delay
        if delay > 0:
            api.set_timer(delay, "flush")
            self._flush_armed = True
            return
        self._flush(api)

    def _flush(self, api: NodeApi) -> None:
        params = self.params
        if self._nbr_pending:
            payload = tuple(sorted(self._nbr_pending.items()))
            self._nbr_pending = {}
            self._emit(api, self.NBR, payload, self._P_NBR,
                       "_nbr_sent", params.k)
        if self._size_pending and self.khop_size is not None:
            payload = tuple(
                (origin, version, value, hops)
                for origin, (version, value, hops)
                in sorted(self._size_pending.items())
            )
            self._size_pending = {}
            self._emit(api, self.SIZE, payload, self._P_SIZE,
                       "_size_sent", params.l)
        if self._index_pending and self.index is not None:
            payload = tuple(
                (origin, version, value, hops)
                for origin, (version, value, hops)
                in sorted(self._index_pending.items())
            )
            self._index_pending = {}
            self._emit(api, self.INDEX, payload, self._P_INDEX,
                       "_index_sent", params.local_max_hops)

    def _emit(self, api: NodeApi, kind: str, payload, phase: int,
              sent_attr: str, budget: int) -> None:
        sent = getattr(self, sent_attr)
        if self._phase == phase and sent < budget:
            api.broadcast(kind, payload)
            setattr(self, sent_attr, sent + 1)
        elif self._corrections_left > 0:
            self._corrections_left -= 1
            api.broadcast(kind, payload, correction=True)
        else:
            api.note_suppressed_correction()

    # -- synchronous round hook ----------------------------------------------

    def on_round_end(self, api: NodeApi) -> None:
        rnd = api.round
        params = self.params
        # Phase 1: keep gossiping freshly learned ids, up to k broadcasts.
        if rnd < self._size_phase_start:
            if self._fresh_ids and self._nbr_sent < params.k:
                api.broadcast(self.NBR, frozenset(self._fresh_ids))
                self._nbr_sent += 1
            self._fresh_ids = set()
            return
        # Boundary: compute the k-hop size, seed phase 2.  Boundaries test
        # "reached and not yet computed" rather than exact equality so a
        # node that was crashed across a boundary catches up — possibly
        # running several boundary computations in one hook — on recovery.
        if self.khop_size is None:
            self.khop_size = len(self.known) if params.include_self \
                else len(self.known) - 1
            self.sizes[self.node_id] = self.khop_size
            self._fresh_sizes[self.node_id] = self.khop_size
        if rnd < self._index_phase_start:
            if self._fresh_sizes and self._size_sent < params.l:
                api.broadcast(self.SIZE, tuple(self._fresh_sizes.items()))
                self._size_sent += 1
            self._fresh_sizes = {}
            return
        # Boundary: compute centrality + index, seed phase 3.
        if self.index is None:
            members = list(self.sizes.values())
            self.centrality = sum(members) / len(members) if members else 0.0
            self.index = (self.khop_size + self.centrality) / 2.0
            self.indices[self.node_id] = self.index
            self._fresh_indices[self.node_id] = self.index
        if rnd < self._decision_round:
            if self._fresh_indices and self._index_sent < params.local_max_hops:
                api.broadcast(self.INDEX, tuple(self._fresh_indices.items()))
                self._index_sent += 1
            self._fresh_indices = {}
            return
        # Boundary: decide criticality; sites launch the Voronoi flood.
        if self.is_critical is None:
            mine = (self.index, self.node_id)
            self.is_critical = all(
                (value, node) <= mine
                for node, value in self.indices.items()
            )
            if self.is_critical:
                # A late-deciding site (crash recovery) may already have
                # joined another site's tree; its own record still wins at
                # distance 0.
                self.site_records[self.node_id] = (0, None)
                api.broadcast(self.SITE, (self.node_id, 0))
                self._site_anchor = self.node_id

    def is_active(self) -> bool:
        # A node owes work until it has made its criticality decision; the
        # site flood afterwards is purely message-driven.
        return self.is_critical is None


@dataclass
class DistributedExtraction:
    """Outcome of the distributed identification + Voronoi stages."""

    network: SensorNetwork
    params: SkeletonParams
    khop_sizes: List[int]
    centrality: List[float]
    index: List[float]
    critical_nodes: List[int]
    site_records: List[Dict[int, Tuple[int, Optional[int]]]]
    stats: RunStats

    @property
    def segment_nodes(self) -> Set[int]:
        return {v for v in self.network.nodes() if len(self.site_records[v]) >= 2}

    @property
    def voronoi_nodes(self) -> Set[int]:
        return {v for v in self.network.nodes() if len(self.site_records[v]) >= 3}

    def cell_of(self, node: int) -> Optional[int]:
        records = self.site_records[node]
        if not records:
            return None
        return min(records, key=lambda s: (records[s][0], s))


def run_distributed_stages(network: SensorNetwork,
                           params: Optional[SkeletonParams] = None,
                           max_rounds: int = 100_000,
                           fault_plan: Optional[FaultPlan] = None,
                           retry_policy: Optional[RetryPolicy] = None,
                           scheduler: str = "sync",
                           latency: Optional[LatencyModel] = None,
                           async_profile: Optional[AsyncProfile] = None,
                           deadline: Optional[float] = None,
                           deadline_action: str = "raise",
                           tracer: Optional["Tracer"] = None,
                           ) -> DistributedExtraction:
    """Run identification + Voronoi construction as real protocols.

    Returns per-node outcomes plus the runtime's message accounting (the
    Theorem 5 measurements).  *fault_plan* injects deterministic message
    drops, link flaps and node crashes; *retry_policy* enables link-layer
    ack/retry recovery (see :mod:`repro.runtime.faults`).

    ``scheduler`` picks the runtime: ``"sync"`` (lockstep rounds) or
    ``"async"`` (event-driven; *latency* supplies the per-frame delay
    distribution and *async_profile* the timeout/correction tuning).  On
    the event-driven runtime termination comes from the deficit-counting
    convergence detector, with *deadline* as a virtual-time safety bound;
    ``deadline_action="return_partial"`` turns a blown deadline (or
    exhausted ``max_rounds``) into a partial outcome with
    ``stats.quiesced == False`` instead of an error.

    *latency*, *async_profile* and *deadline* tune the event-driven runtime
    only; passing any of them with ``scheduler="sync"`` raises
    ``ValueError`` rather than being silently ignored.

    A *tracer* (see :mod:`repro.observability`) records every protocol
    event — sends, deliveries, drops, retries, corrections, timers, crash
    transitions — with virtual-time stamps; it never changes the outcome.
    """
    params = params if params is not None else SkeletonParams()
    if scheduler not in _SCHEDULERS:
        raise ValueError(f"scheduler must be one of {_SCHEDULERS}")
    if scheduler == "sync":
        async_only = [name for name, value in (
            ("latency", latency), ("async_profile", async_profile),
            ("deadline", deadline),
        ) if value is not None]
        if async_only:
            raise ValueError(f"{', '.join(async_only)} only apply to "
                             f"scheduler='async'")
    with stage_span(tracer, "stages1-2:distributed"):
        if scheduler == "async":
            engine = AsyncScheduler(
                network,
                lambda node: SkeletonNodeProtocol(node, params,
                                                  async_profile=async_profile),
                latency=latency, fault_plan=fault_plan,
                retry_policy=retry_policy, tracer=tracer,
            )
            stats = engine.run(deadline=deadline,
                               deadline_action=deadline_action)
        else:
            engine = SynchronousScheduler(
                network, lambda node: SkeletonNodeProtocol(node, params),
                fault_plan=fault_plan, retry_policy=retry_policy,
                tracer=tracer,
            )
            stats = engine.run(max_rounds=max_rounds,
                               deadline_action=deadline_action)
    protocols: List[SkeletonNodeProtocol] = engine.protocols  # type: ignore[assignment]
    return DistributedExtraction(
        network=network,
        params=params,
        khop_sizes=[p.khop_size or 0 for p in protocols],
        centrality=[p.centrality or 0.0 for p in protocols],
        index=[p.index or 0.0 for p in protocols],
        critical_nodes=[p.node_id for p in protocols if p.is_critical],
        site_records=[p.site_records for p in protocols],
        stats=stats,
    )


def voronoi_from_distributed(
    outcome: DistributedExtraction,
) -> Optional[VoronoiDecomposition]:
    """Lift a distributed outcome's site records into the centralized
    :class:`VoronoiDecomposition` data model.

    Distances and parents come from what each node actually recorded during
    the (possibly faulty) flood: the table keeps every recorded entry of an
    elected site, even one a later, better wave left beyond ``alpha`` — so
    downstream stages 3 and 4 consume exactly the information the real
    network gathered.  Reverse paths stay followable because a node only
    records a parent that itself forwarded (i.e. joined) that site's tree,
    and stored distances strictly decrease along the chain.  Returns
    ``None`` when no site was elected (possible only under faults, e.g.
    every candidate crashed).
    """
    network = outcome.network
    params = outcome.params
    sites = sorted(set(outcome.critical_nodes))
    if not sites:
        return None
    site_row = {site: i for i, site in enumerate(sites)}
    n = network.num_nodes
    entries = np.asarray([
        (site_row[site], node, d, -1 if par is None else par)
        for node in range(n)
        for site, (d, par) in outcome.site_records[node].items()
        # A wave from a node that later lost election state is dropped.
        if site in site_row
    ], dtype=np.int64).reshape(-1, 4)
    entries = entries[np.lexsort((entries[:, 1], entries[:, 0]))]
    table = FloodTable(*entries.T.copy())

    # Records: the entries within alpha of each node's best distance.
    near = within_alpha_of_best(table.node, table.dist, n, params.alpha)
    entries = (table.node[near],
               np.asarray(sites, dtype=np.int64)[table.site_row[near]],
               table.dist[near])
    return voronoi_from_entries(network, sites, entries, table)


def _skeleton_from_outcome(outcome: DistributedExtraction,
                           tracer: Optional["Tracer"] = None):
    """Stages 3–4 (coarse skeleton, loop clean-up) over distributed stage
    artifacts, degrading to an empty skeleton when no site was elected."""
    network = outcome.network
    params = outcome.params
    index_data = IndexData(
        khop_sizes=outcome.khop_sizes,
        centrality=outcome.centrality,
        index=outcome.index,
    )
    voronoi = voronoi_from_distributed(outcome)
    if voronoi is None:
        result = empty_skeleton_result(network, params, index_data=index_data)
    else:
        with stage_span(tracer, "stage3:coarse"):
            coarse = build_coarse_skeleton(voronoi, index_data.index, params,
                                           tracer=tracer)
        result = finish_skeleton(network, params, index_data,
                                 sorted(outcome.critical_nodes), voronoi,
                                 coarse, tracer=tracer)
    result.run_stats = outcome.stats
    return result


def _component_outcome(outcome: DistributedExtraction,
                       component: List[int]) -> DistributedExtraction:
    """Restrict a distributed outcome to one surviving fragment.

    Node ids compact to 0..len-1 (matching
    :meth:`SensorNetwork.induced_subgraph`); site records referencing
    sites outside the fragment are dropped — their waves originated across
    the cut and cannot be part of the fragment's self-contained result —
    and parents that died keep the record but lose the pointer.
    """
    members = sorted(set(component))
    remap = {old: new for new, old in enumerate(members)}
    sub_network = outcome.network.induced_subgraph(members)
    critical = set(outcome.critical_nodes)
    sub_records: List[Dict[int, Tuple[int, Optional[int]]]] = []
    for old in members:
        records: Dict[int, Tuple[int, Optional[int]]] = {}
        for site, (d, par) in outcome.site_records[old].items():
            if site not in remap or site not in critical:
                continue
            records[remap[site]] = (d, remap.get(par) if par is not None else None)
        sub_records.append(records)
    return DistributedExtraction(
        network=sub_network,
        params=outcome.params,
        khop_sizes=[outcome.khop_sizes[old] for old in members],
        centrality=[outcome.centrality[old] for old in members],
        index=[outcome.index[old] for old in members],
        critical_nodes=sorted(
            remap[v] for v in outcome.critical_nodes if v in remap
        ),
        site_records=sub_records,
        stats=outcome.stats,
    )


def extract_skeleton_distributed(network: SensorNetwork,
                                 params: Optional[SkeletonParams] = None,
                                 fault_plan: Optional[FaultPlan] = None,
                                 retry_policy: Optional[RetryPolicy] = None,
                                 max_rounds: int = 100_000,
                                 scheduler: str = "sync",
                                 latency: Optional[LatencyModel] = None,
                                 async_profile: Optional[AsyncProfile] = None,
                                 deadline: Optional[float] = None,
                                 deadline_action: str = "raise",
                                 tracer: Optional["Tracer"] = None):
    """Full pipeline with stages 1–2 executed as message-passing protocols.

    Stages 3 and 4 (coarse skeleton, loop clean-up) run centrally over the
    *distributed* stage artifacts — under faults these may be degraded, and
    the returned :class:`~repro.core.result.SkeletonResult` reflects exactly
    that degradation.  With no faults (or a zero-probability plan) the
    result matches the fault-free distributed run bit-for-bit.  When no site
    was elected the result degenerates gracefully to an empty skeleton.

    ``scheduler="async"`` runs stages 1–2 on the event-driven runtime (see
    :func:`run_distributed_stages`); with a degenerate (zero-jitter)
    *latency* the result is identical to the synchronous run.

    When permanent crashes partition the surviving network the run still
    terminates — each fragment quiesces independently — and the result is
    flagged ``partitioned=True`` with one partial per-fragment extraction in
    ``component_results`` (each on its compacted induced subgraph, largest
    fragment first), alongside the whole-network artifacts.

    A *tracer* (see :mod:`repro.observability`) records protocol events for
    stages 1–2 and wall-clock spans for stages 3–4; results are
    bit-identical with and without one.
    """
    params = params if params is not None else SkeletonParams()
    outcome = run_distributed_stages(
        network, params, max_rounds=max_rounds,
        fault_plan=fault_plan, retry_policy=retry_policy,
        scheduler=scheduler, latency=latency, async_profile=async_profile,
        deadline=deadline, deadline_action=deadline_action, tracer=tracer,
    )
    result = _skeleton_from_outcome(outcome, tracer=tracer)
    components = live_components(network, fault_plan)
    if len(components) > 1:
        result.partitioned = True
        result.component_results = [
            ComponentResult(
                nodes=component,
                result=_skeleton_from_outcome(
                    _component_outcome(outcome, component)
                ),
            )
            for component in components
        ]
    return result
