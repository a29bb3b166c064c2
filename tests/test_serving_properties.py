"""Property-based serving tests: the service is a cache, not an oracle.

Two families, both on a paused service stepped by the test, so
interleavings are exact:

* **stateful serial-equivalence** — a hypothesis rule machine drives an
  arbitrary sequence of submit / pump / evict / resubmit operations
  against one long-lived :class:`SkeletonService`; every response that
  is not shed must be bit-identical to a fresh monolithic run of the
  same network, no matter how the cache and queue were interleaved,
  evicted or repopulated in between;
* **fuzzed interleavings** — random request schedules (network, kind,
  partial pumps) must preserve the counter arithmetic (every submission
  resolves exactly once) and the only non-``ok`` outcome they can
  produce is an explicit admission ``shed``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core import SkeletonParams, extract_skeleton
from repro.network import get_scenario
from repro.serving import ServiceConfig, SkeletonService

_PARAMS = SkeletonParams()
_KINDS = ("skeleton", "segmentation", "boundary")
_SCENARIOS = (("window", 6), ("one_hole", 7), ("flower", 8))

_catalog = None
_reference = None


def _fixtures():
    """Catalog networks and their direct-pipeline references, built once —
    the ground truth every served response is compared against."""
    global _catalog, _reference
    if _catalog is None:
        _catalog = [get_scenario(name).build(seed=seed, num_nodes=110)
                    for name, seed in _SCENARIOS]
        _reference = [extract_skeleton(net, _PARAMS) for net in _catalog]
    return _catalog, _reference


def _assert_matches_direct(response, direct):
    if response.kind == "skeleton":
        assert response.artifact.nodes == direct.skeleton.nodes
        assert response.artifact.edges == direct.skeleton.edges
    elif response.kind == "segmentation":
        assert response.artifact.segments == direct.segmentation.segments
    else:
        assert response.artifact == direct.boundary_nodes


class ServingMachine(RuleBasedStateMachine):
    """submit / evict / resubmit in any order ⇒ always the direct answer."""

    def __init__(self):
        super().__init__()
        self.catalog, self.reference = _fixtures()
        self.service = SkeletonService(ServiceConfig(max_queue=8))
        self.service.pause()
        self.pending = []

    @rule(index=st.integers(min_value=0, max_value=len(_SCENARIOS) - 1),
          kind=st.sampled_from(_KINDS))
    def submit(self, index, kind):
        ticket = self.service.submit(self.catalog[index], kind)
        self.pending.append((ticket, index))

    @rule()
    def pump_one(self):
        self.service.pump()
        self.check_resolved()

    @rule()
    def evict_cache(self):
        # Eviction between requests must only cost recomputation, never
        # change an answer.
        assert self.service.cache is not None
        self.service.cache.clear()

    @rule()
    def drain(self):
        self.service.drain()
        self.check_resolved()

    def check_resolved(self):
        still_pending = []
        for ticket, index in self.pending:
            if not ticket.done():
                still_pending.append((ticket, index))
                continue
            response = ticket.result()
            if response.status == "shed":
                continue
            assert response.status == "ok"
            _assert_matches_direct(response, self.reference[index])
        self.pending = still_pending

    def teardown(self):
        self.service.drain()
        self.check_resolved()
        assert not self.pending
        stats = self.service.stats()
        assert stats.completed == stats.submitted
        assert stats.completed == stats.ok + stats.failed + stats.shed
        assert stats.failed == 0


ServingMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestServingMachine = ServingMachine.TestCase


# -- fuzzed request interleavings ------------------------------------------


_op = st.one_of(
    st.tuples(st.just("submit"),
              st.integers(min_value=0, max_value=len(_SCENARIOS) - 1),
              st.sampled_from(_KINDS)),
    st.tuples(st.just("pump")),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, min_size=1, max_size=30))
def test_fuzzed_interleavings_resolve_exactly_once(ops):
    catalog, reference = _fixtures()
    service = SkeletonService(ServiceConfig(max_queue=4))
    service.pause()
    submitted = []
    for op in ops:
        if op[0] == "submit":
            _, index, kind = op
            submitted.append((service.submit(catalog[index], kind), index))
        else:
            service.pump()
    service.drain()

    for ticket, index in submitted:
        assert ticket.done()
        response = ticket.result()
        # a schedule admits exactly two outcomes
        assert response.status in ("ok", "shed")
        if response.status == "ok":
            _assert_matches_direct(response, reference[index])
        else:
            assert response.artifact is None
    stats = service.stats()
    assert stats.submitted == len(submitted)
    assert stats.completed == stats.submitted
    assert stats.completed == stats.ok + stats.failed + stats.shed
    # dedup arithmetic: every non-shed response came from one computation
    # or the cache; coalesced requests never exceed submissions
    assert stats.computed + stats.cache_hits + stats.dedup_hits >= stats.ok
    assert stats.computed <= stats.ok
