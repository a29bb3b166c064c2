"""The lazy, incremental ring enumerator against the networkx enumeration
it replaced (hypothesis).

:class:`repro.core.loops.RingEnumerator` must reproduce the networkx
``site_cycle_rings`` exactly — the same rings, in every prefix a call
reads, and the same adjacency order after every call — because stage 4's
tie-breaking, and so every skeleton, depends on that order.  The oracle below is that function,
kept verbatim as a test-only reference.
"""

from functools import partial
from heapq import heappop, heappush
from itertools import count, islice
from typing import List, Set, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PAPER_SCENARIOS
from repro.core import LoopStrategy, SkeletonParams, extract_skeleton
from repro.core import loops as loops_module
from repro.core.loops import RingEnumerator, site_cycle_rings


def oracle_site_cycle_rings(graph: "nx.Graph") -> List[List[int]]:
    """An independent family of ordered tight cycles, cheapest first.

    Horton-style construction: for every edge (u, v), the shortest u–v path
    avoiding that edge closes a candidate ring; candidates are sorted by
    total weight and greedily reduced to a GF(2)-independent set over edge
    incidence vectors.  Unlike ``networkx.minimum_cycle_basis`` this yields
    *ordered* rings, so each element can be realized and classified.
    """
    edges = list(graph.edges())
    if not edges:
        return []
    edge_index = {frozenset(e): i for i, e in enumerate(edges)}
    rank_target = (
        graph.number_of_edges() - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )
    if rank_target <= 0:
        return []

    candidates: List[Tuple[float, List[int]]] = []
    seen_signatures: Set[int] = set()
    for u, v in edges:
        weight = graph[u][v].get("weight", 1)
        graph.remove_edge(u, v)
        try:
            path = nx.shortest_path(graph, u, v, weight="weight")
        except nx.NetworkXNoPath:
            path = None
        graph.add_edge(u, v, weight=weight)
        if path is None or len(path) < 3:
            continue
        ring = list(path)  # u .. v, closed by the (u, v) edge
        mask = 0
        for i in range(len(ring)):
            mask ^= 1 << edge_index[frozenset((ring[i], ring[(i + 1) % len(ring)]))]
        if mask in seen_signatures:
            continue
        seen_signatures.add(mask)
        total = sum(
            graph[ring[i]][ring[(i + 1) % len(ring)]].get("weight", 1)
            for i in range(len(ring))
        )
        candidates.append((total, ring))
    candidates.sort(key=lambda item: (item[0], item[1]))

    basis_masks: List[int] = []
    rings: List[List[int]] = []
    for _, ring in candidates:
        mask = 0
        for i in range(len(ring)):
            mask ^= 1 << edge_index[frozenset((ring[i], ring[(i + 1) % len(ring)]))]
        reduced = mask
        for bm in basis_masks:
            reduced = min(reduced, reduced ^ bm)
        if reduced == 0:
            continue
        basis_masks.append(mask)
        rings.append(ring)
        if len(rings) >= rank_target:
            break
    return rings


class OracleEnumerator:
    """:class:`RingEnumerator`'s interface over a networkx graph and the
    oracle, so ``identify_loops`` can be driven by either.  Every call
    enumerates afresh, so none replays the one before."""

    replayed = 0

    def __init__(self, graph: "nx.Graph"):
        self.graph = graph

    @classmethod
    def from_edges(cls, nodes, edges) -> "OracleEnumerator":
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for u, v, weight in edges:
            graph.add_edge(u, v, weight=weight)
        return cls(graph)

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def edges(self):
        return list(self.graph.edges())

    def remove_edge(self, u, v) -> None:
        self.graph.remove_edge(u, v)

    def rings(self) -> List[List[int]]:
        return oracle_site_cycle_rings(self.graph)

    def iter_rings(self):
        return iter(self.rings())


def nx_order(graph: "nx.Graph"):
    return [(u, [(v, data["weight"]) for v, data in nbrs.items()])
            for u, nbrs in graph.adjacency()]


def dict_order(adjacency):
    return [(u, list(nbrs.items())) for u, nbrs in adjacency.items()]


def both(nodes, edges):
    """The same graph as a networkx oracle and a :class:`RingEnumerator`."""
    oracle = OracleEnumerator.from_edges(nodes, edges)
    return oracle, RingEnumerator.from_edges(nodes, edges)


def assert_same_call(oracle: OracleEnumerator, enumerator: RingEnumerator):
    assert enumerator.rings() == oracle.rings()
    assert_same_graph(oracle, enumerator)


def assert_same_graph(oracle: OracleEnumerator, enumerator: RingEnumerator):
    assert dict_order(enumerator.adjacency) == nx_order(oracle.graph)
    assert enumerator.num_edges == oracle.num_edges
    assert enumerator.edges() == oracle.edges()


def edge_id(enumerator: RingEnumerator, u: int, v: int) -> int:
    return enumerator._ids[u][v]


def cached_path(enumerator: RingEnumerator, u: int, v: int):
    """The path edge (u, v)'s cached search found."""
    return enumerator._found[edge_id(enumerator, u, v)][0]


def ring_edges(ring: List[int]) -> List[Tuple[int, int]]:
    return [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]


@st.composite
def site_graphs(draw):
    """Small weighted graphs rich in ties (weights 1–3): several
    components, bridges, pendant trees, self-loops and isolated nodes,
    with nodes and edges inserted in a drawn order."""
    n = draw(st.integers(2, 14))
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), 3 * n)))
    edges = [(a, b) if draw(st.booleans()) else (b, a) for a, b in chosen]
    weighted = [(a, b, draw(st.integers(1, 3))) for a, b in edges]
    listed = draw(st.lists(st.integers(0, n - 1), unique=True))
    nodes = listed + [v for v in range(n) if v not in listed
                      and draw(st.booleans())]
    return nodes, weighted


class TestSiteCycleRingsOracle:
    @given(site_graphs())
    @settings(deadline=None)
    def test_one_shot_equals_oracle(self, graph_spec):
        nodes, edges = graph_spec
        graph = OracleEnumerator.from_edges(nodes, edges).graph
        # A fresh build, not graph.copy(): copying re-adds the edges and
        # so reorders the neighbour dicts.
        twin = OracleEnumerator.from_edges(nodes, edges).graph
        assert site_cycle_rings(graph) == oracle_site_cycle_rings(twin)

    @given(site_graphs())
    @settings(deadline=None)
    def test_argument_order_unchanged(self, graph_spec):
        nodes, edges = graph_spec
        graph = OracleEnumerator.from_edges(nodes, edges).graph
        before = nx_order(graph)
        site_cycle_rings(graph)
        assert nx_order(graph) == before

    def test_argument_order_unchanged_on_a_square(self):
        graph = nx.Graph()
        graph.add_weighted_edges_from(
            [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 2)])
        before = nx_order(graph)
        rings = site_cycle_rings(graph)
        assert len(rings) == 2
        assert nx_order(graph) == before


class TestIncrementalEnumeration:
    @given(site_graphs(), st.data())
    @settings(deadline=None)
    def test_removal_sequences_match_oracle(self, graph_spec, data):
        nodes, edges = graph_spec
        oracle, enumerator = both(nodes, edges)
        # Two calls first: the second starts in the order the first left,
        # which usually differs from insertion order, so nothing carries.
        assert_same_call(oracle, enumerator)
        assert_same_call(oracle, enumerator)
        while enumerator.edges():
            current = enumerator.edges()
            # Bias towards the two removals that matter: edges bearing on
            # some cached search (it must rerun), and edges at nodes a
            # cached search expanded that bear on none (it must be reused
            # intact).
            users = enumerator._users
            bearing = [(u, v) for u, v in current
                       if users.get(edge_id(enumerator, u, v))]
            expanded = {node for along in enumerator._bearing.values()
                        for eid in along for node in enumerator._ends[eid]}
            read_only = [(u, v) for u, v in current
                         if (u in expanded or v in expanded)
                         and (u, v) not in bearing]
            pools = [pool for pool in (current, bearing, read_only) if pool]
            pool = pools[data.draw(st.integers(0, len(pools) - 1))]
            u, v = data.draw(st.sampled_from(pool))
            if data.draw(st.booleans()):
                u, v = v, u
            oracle.remove_edge(u, v)
            enumerator.remove_edge(u, v)
            assert_same_call(oracle, enumerator)

    @given(site_graphs(), st.data())
    @settings(deadline=None)
    def test_batched_removals_match_oracle(self, graph_spec, data):
        """Zero to three removals between calls, and calls that return
        early."""
        nodes, edges = graph_spec
        oracle, enumerator = both(nodes, edges)
        assert_same_call(oracle, enumerator)
        repeats = 0
        while enumerator.edges():
            current = enumerator.edges()
            batch = data.draw(st.lists(st.sampled_from(current), unique=True,
                                       min_size=0 if repeats < 2 else 1,
                                       max_size=3))
            repeats = 0 if batch else repeats + 1
            for u, v in batch:
                oracle.remove_edge(u, v)
                enumerator.remove_edge(u, v)
            assert_same_call(oracle, enumerator)

    def test_searches_are_reused(self):
        # A 4x4 grid of unit squares, inserted row by row: its neighbour
        # dicts already follow the edge ranks, so repeat calls search
        # nothing, and dropping a corner edge reruns only the searches
        # it bears on (six pushed along it).
        nodes = list(range(16))
        edges = []
        for r in range(4):
            for c in range(4):
                v = 4 * r + c
                if c < 3:
                    edges.append((v, v + 1, 1))
                if r < 3:
                    edges.append((v, v + 4, 1))
        oracle, enumerator = both(nodes, edges)
        for _ in range(3):
            assert_same_call(oracle, enumerator)
        assert enumerator.searches == len(edges)
        oracle.remove_edge(14, 15)
        enumerator.remove_edge(14, 15)
        assert_same_call(oracle, enumerator)
        assert enumerator.searches - len(edges) == 4
        # Reading only the first ring reruns only the parked searches whose
        # old weight does not exceed that ring's: dropping (10, 11) breaks
        # weight-6 rings left by the earlier drops, and their searches stay
        # parked while a unit square remains.
        lazy = RingEnumerator.from_edges(nodes, edges)
        for drop in ((14, 15), (9, 13)):
            lazy.remove_edge(*drop)
            lazy.rings()
        oracle.remove_edge(9, 13)
        enumerator.remove_edge(9, 13)
        assert_same_call(oracle, enumerator)
        eager_before, lazy_before = enumerator.searches, lazy.searches
        for target in (oracle, enumerator, lazy):
            target.remove_edge(10, 11)
        expected = oracle.rings()
        assert enumerator.rings() == expected
        assert next(lazy.iter_rings()) == expected[0]
        assert lazy.searches - lazy_before == 5
        assert enumerator.searches - eager_before == 6
        assert lazy.rings() == oracle.rings()

    def test_first_searches_wait_for_their_bounds(self):
        """An edge is first searched once the greedy reaches its lower
        bound: its weight plus the lightest other edge at each end.  The
        unit triangle's ring weighs 3; the square's edges weigh 2, so
        their bounds are 6 and reading the triangle runs no search for
        them.  The pendant edge (2, 7) closes no ring and is never
        searched.  The edges go in in rank order, so no first-call order
        reruns a search."""
        nodes = list(range(8))
        edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 7, 1),
                 (3, 4, 2), (3, 6, 2), (4, 5, 2), (5, 6, 2)]
        oracle, enumerator = both(nodes, edges)
        expected = oracle.rings()
        assert next(enumerator.iter_rings()) == expected[0] == [0, 2, 1]
        assert enumerator.searches == 3
        assert_same_call(oracle, enumerator)
        assert enumerator.searches == 7

    def test_stale_reuse_would_pick_another_tied_path(self):
        """Dropping the pendant edge (0, 4) changes no cycle and lies on
        no cached path, but the search for edge (2, 4) relaxed along it.
        Without (0, 4) that search pushes one entry fewer, meets on the
        other weight-9 path, 2-5-6-3-4 instead of 2-1-3-4, and the ring
        family changes.  Reusing it because its path survived would be
        wrong."""
        nodes = [2, 6, 0, 1, 5, 3, 4]
        edges = [(5, 6, 2), (2, 4, 1), (2, 1, 3), (4, 3, 3), (6, 3, 3),
                 (2, 5, 1), (1, 3, 3), (0, 4, 3)]
        oracle, enumerator = both(nodes, edges)
        stale = _PathOnlyInvalidation.from_edges(nodes, edges)
        for _ in range(2):
            assert_same_call(oracle, enumerator)
            stale.rings()
        assert cached_path(enumerator, 2, 4) == [2, 1, 3, 4]
        assert edge_id(enumerator, 4, 0) in \
            enumerator._bearing[edge_id(enumerator, 2, 4)]
        for target in (oracle, enumerator, stale):
            target.remove_edge(0, 4)
        expected = oracle.rings()
        assert stale.rings() != expected
        assert enumerator.rings() == expected
        assert cached_path(enumerator, 2, 4) == [2, 5, 6, 3, 4]


class TestLazyEnumeration:
    @given(site_graphs(), st.data())
    @settings(deadline=None)
    def test_prefix_reads_match_oracle(self, graph_spec, data):
        """Each call reads a drawn prefix, or all, of the ring family;
        then an edge of the last ring read is dropped, as ``identify_loops``
        opens a fake ring (any edge when nothing was read)."""
        nodes, edges = graph_spec
        oracle, enumerator = both(nodes, edges)
        while enumerator.edges():
            expected = oracle.rings()
            rings = enumerator.iter_rings()
            if data.draw(st.booleans()):
                read = list(rings)
                assert read == expected
            else:
                read = list(islice(rings, data.draw(
                    st.integers(0, len(expected)))))
                assert read == expected[:len(read)]
            assert_same_graph(oracle, enumerator)
            pool = ring_edges(read[-1]) if read else enumerator.edges()
            u, v = data.draw(st.sampled_from(pool))
            oracle.remove_edge(u, v)
            enumerator.remove_edge(u, v)
        assert_same_call(oracle, enumerator)

    @given(site_graphs(), st.data())
    @settings(deadline=None)
    def test_kept_rank_matches_networkx(self, graph_spec, data):
        """After every removal the kept cycle rank is E - V + C, or
        unknown until the next call recounts it; after every call it is
        known.  The drawn graphs carry bridges, pendant edges and
        self-loops, whose removal the cached rings cannot place on a
        cycle."""
        nodes, edges = graph_spec
        oracle, enumerator = both(nodes, edges)

        def rank():
            graph = oracle.graph
            return (graph.number_of_edges() - graph.number_of_nodes()
                    + nx.number_connected_components(graph))

        while True:
            expected = oracle.rings()
            read = list(islice(enumerator.iter_rings(), data.draw(
                st.integers(0, len(expected)))))
            assert read == expected[:len(read)]
            assert enumerator._rank == rank()
            if not enumerator.edges():
                break
            pool = ring_edges(read[-1]) if read and data.draw(
                st.booleans()) else enumerator.edges()
            u, v = data.draw(st.sampled_from(pool))
            oracle.remove_edge(u, v)
            enumerator.remove_edge(u, v)
            assert enumerator._rank in (None, rank())

    @given(site_graphs(), st.data())
    @settings(deadline=None)
    def test_replay_is_a_prefix_of_the_last_reads(self, graph_spec, data):
        """``replayed`` counts rings the call yields first that the call
        before read in the same places, and never the ring an edge was
        dropped from, as ``identify_loops`` opens a fake ring."""
        nodes, edges = graph_spec
        oracle, enumerator = both(nodes, edges)
        read: List[List[int]] = []
        while enumerator.edges():
            expected = oracle.rings()
            rings = enumerator.iter_rings()
            replayed = enumerator.replayed
            assert replayed < len(read) or replayed == len(read) == 0
            now = list(islice(rings, data.draw(
                st.integers(replayed, len(expected)))))
            assert now == expected[:len(now)]
            assert now[:replayed] == read[:replayed]
            read = now
            pool = ring_edges(read[-1]) if read else enumerator.edges()
            u, v = data.draw(st.sampled_from(pool))
            oracle.remove_edge(u, v)
            enumerator.remove_edge(u, v)

    def test_iterator_from_before_a_removal_raises(self):
        oracle, enumerator = both(range(4), [(0, 1, 1), (1, 2, 1), (2, 0, 1),
                                             (2, 3, 1), (3, 0, 1)])
        rings = enumerator.iter_rings()
        assert next(rings) == oracle.rings()[0] == [0, 2, 1]
        oracle.remove_edge(0, 2)
        enumerator.remove_edge(0, 2)
        with pytest.raises(RuntimeError):
            next(rings)
        assert_same_call(oracle, enumerator)


class _PathOnlyInvalidation(RingEnumerator):
    """A wrong variant that parks a search only when the dropped edge
    lies on its path."""

    def remove_edge(self, u, v):
        users = self._users.get(self._ids[u][v], set())
        users -= {key for key in users
                  if not _has_edge(self._found[key][0], u, v)}
        super().remove_edge(u, v)


def _has_edge(path, u, v) -> bool:
    return any({path[i], path[(i + 1) % len(path)]} == {u, v}
               for i in range(len(path)))


def clause_search(view, source, target, omit=frozenset(), every_push=False,
                  blocked=False):
    """The enumerator's bidirectional search again, with each reason a
    push bears on the result named: ``pop`` (its entry was popped and
    settled a node), ``stale`` (its entry was popped stale), ``pred`` (it
    set the final pred of a path node other than the meet), ``meet`` (it
    made the final meet, or is the far-side entry that push met) and
    ``fringe`` (its entry was the only one left in the other fringe).
    The result leaves out the reasons in *omit*; *every_push* counts
    every push, the rule before bearing, and *blocked* also counts a
    push that blocked a later relaxation, a clause the rule once had."""
    if source == target:
        return [source], set()
    dists = ({}, {})
    preds = ({source: None}, {target: None})
    seen = ({source: 0}, {target: 0})
    pushed = ({source: -1}, {target: -1})
    fringe = ([(0, 0, source, -1)], [(0, 1, target, -1)])
    counter = count(2)
    bearing = set()

    def bear(clause, eid):
        if clause not in omit:
            bearing.add(eid)

    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v, along = heappop(fringe[direction])
        final = dists[direction]
        if v in final:
            bear("stale", along)
            continue
        bear("pop", along)
        final[v] = dist
        if v in dists[1 - direction]:
            path = []
            node = meetnode
            while node is not None:
                path.append(node)
                bear("meet" if node == meetnode else "pred", pushed[0][node])
                node = preds[0][node]
            path.reverse()
            bear("meet", pushed[1][meetnode])
            node = preds[1][meetnode]
            while node is not None:
                path.append(node)
                bear("pred", pushed[1][node])
                node = preds[1][node]
            other = fringe[1 - direction]
            if len(other) == 1:
                bear("fringe", other[0][3])
            bearing.discard(-1)
            return path, bearing
        near, far = seen[direction], seen[1 - direction]
        for eid, w, cost in view(v):
            length = dist + cost
            if w in final:
                continue
            if w not in near or length < near[w]:
                near[w] = length
                heappush(fringe[direction], (length, next(counter), w, eid))
                preds[direction][w] = v
                pushed[direction][w] = eid
                if every_push:
                    bearing.add(eid)
                if w in far:
                    total = length + far[w]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
            elif blocked:
                bearing.add(pushed[direction][w])
    bearing.discard(-1)
    return None, bearing


class _ClauseVariant(RingEnumerator):
    """An enumerator whose searches run :func:`clause_search`, leaving
    the clauses in ``omit`` out (a wrong variant unless ``omit`` is
    empty); ``every_push`` parks every search that pushed along a dropped
    edge, and ``blocked`` also parks every search in which a push along
    it blocked a later relaxation."""

    omit = frozenset()
    every_push = False
    blocked = False

    def _search(self, eid):
        real = loops_module._bidirectional_search
        loops_module._bidirectional_search = partial(
            clause_search, omit=self.omit, every_push=self.every_push,
            blocked=self.blocked)
        try:
            super()._search(eid)
        finally:
            loops_module._bidirectional_search = real


def omitting(*clauses):
    """The :class:`_ClauseVariant` that leaves *clauses* out."""
    return type("Omitting", (_ClauseVariant,), {"omit": frozenset(clauses)})


class _ParkEveryPusher(_ClauseVariant):
    """The rule before bearing: park every search that pushed along a
    dropped edge."""

    every_push = True


class _ParkBlockers(_ClauseVariant):
    """The bearing rule as it was first written: a push that blocked a
    later relaxation bears on the result too."""

    blocked = True


class TestBearingRule:
    """The parking rule: a removal parks only the searches its edge bears
    on, and leaving out a clause of "bears on" gives wrong rings."""

    @given(site_graphs(), st.data())
    @settings(deadline=None)
    def test_clause_search_is_the_enumerators_search(self, graph_spec, data):
        """With no clause left out, the test's tagged search caches what
        the enumerator's own search does, across removals."""
        nodes, edges = graph_spec
        enumerator = RingEnumerator.from_edges(nodes, edges)
        tagged = _ClauseVariant.from_edges(nodes, edges)
        while True:
            assert enumerator.rings() == tagged.rings()
            assert enumerator._found == tagged._found
            assert enumerator._bearing == tagged._bearing
            if not enumerator.edges():
                break
            u, v = data.draw(st.sampled_from(enumerator.edges()))
            enumerator.remove_edge(u, v)
            tagged.remove_edge(u, v)

    @pytest.mark.parametrize("clause, nodes, edges, drop, search", [
        # The search for (4, 0) popped the entry pushed along (4, 2) on
        # its way to 4-5-1-0, a path without that edge; rerun without
        # it, it returns 4-3-1-0.
        ("pop", [4, 5, 1, 0, 2, 3],
         [(0, 4, 2), (4, 2, 2), (2, 5, 3), (1, 0, 3), (1, 5, 2), (4, 3, 2),
          (3, 1, 3), (4, 5, 3)], (4, 2), (4, 0)),
        # The search for (0, 2) met at 3: its path 0-3-2 ends on the
        # backward push along (3, 2), whose entry was never popped.
        ("meet", [0, 1, 3, 2],
         [(3, 0, 1), (2, 3, 3), (2, 1, 2), (0, 2, 2), (0, 1, 3)],
         (3, 2), (0, 2)),
    ])
    def test_leaving_a_clause_out_gives_other_rings(self, clause, nodes,
                                                    edges, drop, search):
        oracle, enumerator = both(nodes, edges)
        wrong = omitting(clause).from_edges(nodes, edges)
        for _ in range(2):
            assert_same_call(oracle, enumerator)
            wrong.rings()
        dropped, searched = edge_id(enumerator, *drop), edge_id(
            enumerator, *search)
        assert dropped in enumerator._bearing[searched]
        assert dropped not in wrong._bearing[searched]
        for target in (oracle, enumerator, wrong):
            target.remove_edge(*drop)
        expected = oracle.rings()
        assert enumerator.rings() == expected
        assert wrong.rings() != expected

    def test_push_that_only_blocked_bears_on_nothing(self):
        """The search for (1, 3) pushes 2 along (1, 2) at distance 3 and
        never pops it; that entry only blocks the relaxation 1-0-2 at 5.
        Without (1, 2) that relaxation pushes instead, is never popped
        either, and the search returns 1-0-3 again, so it is reused."""
        nodes = [0, 1, 2, 3]
        edges = [(0, 2, 2), (1, 2, 3), (1, 3, 3), (0, 3, 3), (0, 1, 3)]
        oracle, enumerator = both(nodes, edges)
        blockers = _ParkBlockers.from_edges(nodes, edges)
        for _ in range(2):
            assert_same_call(oracle, enumerator)
            blockers.rings()
        searched, dropped = edge_id(enumerator, 1, 3), edge_id(
            enumerator, 1, 2)
        path = cached_path(enumerator, 1, 3)
        assert path == [1, 0, 3]
        assert dropped in blockers._bearing[searched]
        assert dropped not in enumerator._bearing[searched]
        before = enumerator.searches
        for target in (oracle, enumerator, blockers):
            target.remove_edge(1, 2)
        assert_same_call(oracle, enumerator)
        assert cached_path(enumerator, 1, 3) is path
        assert enumerator.searches - before == 2
        assert_same_call(oracle, enumerator)
        assert blockers.rings() == oracle.rings()

    def test_bearing_rule_runs_fewer_searches(self, monkeypatch):
        """``identify_loops`` runs no more searches than under the rule
        that also parks on blocked relaxations or the park-every-pusher
        rule (fewer on two_holes), with the same loop analysis; the
        cycle rank is counted once, then kept."""
        rules = (RingEnumerator, _ParkBlockers, _ParkEveryPusher)
        counts = {}
        for scenario in ("window", "two_holes", "spiral"):
            network = PAPER_SCENARIOS[scenario].build(seed=1, num_nodes=500)
            runs = {}
            for rule in rules:
                made = []

                class Recording(rule):
                    def __init__(self, adjacency):
                        super().__init__(adjacency)
                        self.recounts = 0
                        made.append(self)

                    def _components(self):
                        self.recounts += 1
                        return super()._components()

                monkeypatch.setattr(loops_module, "RingEnumerator", Recording)
                analysis = extract_skeleton(network).loop_analysis
                (enumerator,) = made
                runs[rule] = (loop_fields(analysis), enumerator.searches,
                              enumerator.recounts)
            for rule in rules[1:]:
                assert runs[rule][0] == runs[RingEnumerator][0]
            assert runs[RingEnumerator][2] == 1
            counts[scenario] = tuple(runs[rule][1] for rule in rules)
        # (bearing rule, with the blocked clause, park every pusher)
        assert counts == {"window": (9, 9, 9), "two_holes": (35, 36, 59),
                          "spiral": (8, 8, 8)}

class TestSearchBudget:
    def test_paper_networks_stay_within_budget(self, monkeypatch):
        """Bidirectional searches over the 11 paper networks at seed 1,
        full scale, default parameters: 2,661 with the bearing rule and
        the lower-bound first searches (3,724 before)."""
        made = []

        class Recording(RingEnumerator):
            def __init__(self, adjacency):
                super().__init__(adjacency)
                made.append(self)

        monkeypatch.setattr(loops_module, "RingEnumerator", Recording)
        for name in sorted(PAPER_SCENARIOS):
            extract_skeleton(PAPER_SCENARIOS[name].build(seed=1))
        assert len(made) == len(PAPER_SCENARIOS)
        assert sum(enumerator.searches for enumerator in made) <= 2661


class TestIdentifyLoopsOracle:
    """Stage 4 driven by the enumerator equals stage 4 driven by the
    networkx oracle: every loop field, kept and removed pairs."""

    @pytest.mark.parametrize("strategy", list(LoopStrategy))
    @pytest.mark.parametrize("scenario", ["window", "two_holes", "spiral"])
    def test_loop_analysis_equals_oracle(self, scenario, strategy,
                                         monkeypatch):
        network = PAPER_SCENARIOS[scenario].build(seed=1, num_nodes=500)
        params = SkeletonParams(loop_strategy=strategy)
        fresh = extract_skeleton(network, params)
        monkeypatch.setattr(loops_module, "RingEnumerator", OracleEnumerator)
        reference = extract_skeleton(network, params)
        assert loop_fields(fresh.loop_analysis) == \
            loop_fields(reference.loop_analysis)
        assert fresh.skeleton.nodes == reference.skeleton.nodes
        assert fresh.skeleton.edges == reference.skeleton.edges


def loop_fields(analysis):
    return (
        [(loop.sites, loop.ordered, loop.is_fake, loop.witnesses,
          loop.iso_ratio, loop.removed_pair) for loop in analysis.loops],
        analysis.kept_pairs,
        analysis.removed_pairs,
    )

