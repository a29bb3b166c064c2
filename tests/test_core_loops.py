"""Tests for loop identification and fake-loop removal (§III-D)."""

import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import SkeletonExtractor, SkeletonParams, identify_loops
from repro.core.loops import (
    hop_clearance,
    isoperimetric_ratio,
    opposite_width,
    simplify_closed_walk,
    site_cycle_rings,
)
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.reference import use_reference_engine


def oracle_opposite_width(net, ordered, samples=6):
    """The minimum BFS distance over the sampled opposite pairs, capped at
    the cycle length — the definition the batched sweep must meet."""
    length = len(ordered)
    if length < 4:
        return 0
    count = min(samples, length)
    best = length
    for i in range(count):
        start = (i * length) // count
        target = ordered[(start + length // 2) % length]
        d = net.bfs_distances(ordered[start]).get(target)
        if d is not None:
            best = min(best, d)
    return best


class TestSimplifyClosedWalk:
    def test_simple_cycle_unchanged(self):
        assert simplify_closed_walk([1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_lens_detour_removed(self):
        assert simplify_closed_walk([1, 2, 5, 6, 2, 3]) == [1, 2, 3]

    def test_nested_detours(self):
        assert simplify_closed_walk([1, 2, 3, 2, 4, 1, 5]) == [1, 5]

    def test_empty(self):
        assert simplify_closed_walk([]) == []

    def test_result_has_no_duplicates(self):
        out = simplify_closed_walk([1, 2, 3, 4, 2, 5, 3, 6])
        assert len(out) == len(set(out))


class TestHopClearance:
    def test_multisource_distances(self):
        positions = [Point(float(i), 0.0) for i in range(6)]
        net = build_network(positions, radio=UnitDiskRadio(1.1))
        clearance = hop_clearance(net, {0, 5})
        assert clearance == [0, 1, 2, 2, 1, 0]

    def test_no_boundary_gives_unreached(self):
        positions = [Point(0, 0), Point(1, 0)]
        net = build_network(positions, radio=UnitDiskRadio(1.5))
        clearance = hop_clearance(net, set())
        assert clearance == [2, 2]


class TestSiteCycleRings:
    def test_square_cycle_found(self):
        g = nx.Graph()
        g.add_weighted_edges_from(
            [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)]
        )
        rings = site_cycle_rings(g)
        assert len(rings) == 1
        assert set(rings[0]) == {1, 2, 3, 4}

    def test_square_with_chord_gives_two_triangles(self):
        g = nx.Graph()
        g.add_weighted_edges_from(
            [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 1)]
        )
        rings = site_cycle_rings(g)
        assert len(rings) == 2
        assert all(len(r) == 3 for r in rings)

    def test_tree_has_no_rings(self):
        g = nx.Graph()
        g.add_weighted_edges_from([(1, 2, 1), (2, 3, 1), (2, 4, 1)])
        assert site_cycle_rings(g) == []

    def test_rings_are_independent(self):
        g = nx.Graph()
        # Two squares sharing an edge: rank 2.
        g.add_weighted_edges_from(
            [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1),
             (2, 5, 1), (5, 6, 1), (6, 3, 1)]
        )
        rings = site_cycle_rings(g)
        assert len(rings) == 2

    def test_empty_graph(self):
        assert site_cycle_rings(nx.Graph()) == []


class TestOppositeWidth:
    def test_thin_braid_has_small_width(self):
        # Two parallel strands of a 2 x 6 grid form a thin cycle.
        positions = [Point(float(i), float(j)) for j in range(2) for i in range(6)]
        net = build_network(positions, radio=UnitDiskRadio(1.05))
        cycle = [0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 6]
        assert opposite_width(net, cycle) <= 2

    def test_unreachable_opposites_read_the_length_cap(self):
        # Two far-apart edges: no opposite pair connects, so the width is
        # the walk's length, lowered only by a smaller cap.
        positions = [Point(0, 0), Point(1, 0), Point(50, 0), Point(51, 0)]
        net = build_network(positions, radio=UnitDiskRadio(1.5))
        assert opposite_width(net, [0, 1, 2, 3]) == 4
        assert opposite_width(net, [0, 1, 2, 3], cap=7) == 4
        assert opposite_width(net, [0, 1, 2, 3], cap=3) == 3

    def test_too_short_cycle(self):
        positions = [Point(0, 0), Point(1, 0), Point(0.5, 1)]
        net = build_network(positions, radio=UnitDiskRadio(1.5))
        assert opposite_width(net, [0, 1, 2]) == 0


class TestEndToEndLoops:
    def test_annulus_keeps_one_genuine_loop(self, annulus_result):
        genuine = annulus_result.loop_analysis.genuine
        assert len(genuine) == 1
        assert genuine[0].length >= 20

    def test_rectangle_keeps_no_loops(self, rectangle_result):
        assert rectangle_result.loop_analysis.genuine == []

    def test_fake_records_carry_removed_pair(self, rectangle_result):
        for fake in rectangle_result.loop_analysis.fake:
            assert fake.removed_pair is not None

    def test_kept_and_removed_pairs_disjoint(self, annulus_result):
        analysis = annulus_result.loop_analysis
        assert not (analysis.kept_pairs & analysis.removed_pairs)

    def test_genuine_iso_ratio_above_threshold(self, annulus_result):
        params = SkeletonParams()
        for loop in annulus_result.loop_analysis.genuine:
            assert loop.iso_ratio >= params.isoperimetric_threshold

    def test_witness_strategy_runs(self, annulus_network):
        from repro.core import LoopStrategy

        result = SkeletonExtractor(
            SkeletonParams(loop_strategy=LoopStrategy.VORONOI_WITNESS)
        ).extract(annulus_network)
        assert result.skeleton.is_connected()

    def test_interior_strategy_runs(self, annulus_network):
        from repro.core import LoopStrategy

        result = SkeletonExtractor(
            SkeletonParams(loop_strategy=LoopStrategy.INTERIOR)
        ).extract(annulus_network)
        assert result.skeleton.is_connected()


class TestReferenceEngineBitIdentity:
    """The loop scans on the CSR kernels must equal the same scans on the
    pure-Python reference engine."""

    def test_hop_clearance_engine_matches_reference(self, annulus_network):
        net = annulus_network
        boundary = set(list(net.nodes())[::7])
        with use_reference_engine():
            expected = hop_clearance(net, boundary)
        assert hop_clearance(net, boundary) == expected

    def test_hop_clearance_engine_empty_boundary(self, annulus_network):
        with use_reference_engine():
            expected = hop_clearance(annulus_network, set())
        assert expected == [annulus_network.num_nodes] * \
            annulus_network.num_nodes
        assert hop_clearance(annulus_network, set()) == expected

    def test_opposite_width_engine_matches_reference(self, annulus_result):
        net = annulus_result.network
        for loop in annulus_result.loop_analysis.loops:
            ordered = loop.ordered
            if len(ordered) < 4:
                continue
            for samples in (4, 6, 9):
                expected = oracle_opposite_width(net, ordered, samples)
                assert opposite_width(net, ordered, samples=samples) == \
                    expected
                with use_reference_engine():
                    assert opposite_width(net, ordered,
                                          samples=samples) == expected

    def test_capped_opposite_width_keeps_every_decision(self, annulus_result):
        # The classifier asks only ``width < c``; the capped sweep must
        # answer it exactly for every threshold c.
        net = annulus_result.network
        rings = [l.ordered for l in annulus_result.loop_analysis.loops
                 if len(l.ordered) >= 4]
        assert rings
        for ordered in rings:
            width = opposite_width(net, ordered)
            for c in range(len(ordered) + 3):
                assert (opposite_width(net, ordered, cap=c) < c) == (width < c)

    def test_identify_loops_matches_reference_engine(self, annulus_network):
        with use_reference_engine():
            ref = SkeletonExtractor().extract(annulus_network).loop_analysis
        vec = SkeletonExtractor().extract(annulus_network).loop_analysis
        assert vec.kept_pairs == ref.kept_pairs
        assert vec.removed_pairs == ref.removed_pairs
        assert [(l.ordered, l.is_fake, l.iso_ratio) for l in vec.loops] == \
            [(l.ordered, l.is_fake, l.iso_ratio) for l in ref.loops]


@st.composite
def udg_cycles(draw):
    """A random UDG network and a random simple cycle in it: the
    fundamental cycle of a non-tree edge against a BFS tree, rotated and
    possibly reversed.  Half the draws take one of the three longest
    cycles, since those with fewer than 4 hops never reach the sweep."""
    n = draw(st.integers(6, 70))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.sampled_from([3.0, 4.0, 6.0]))
    net = build_network([Point(rng.uniform(0, 24), rng.uniform(0, 24))
                         for _ in range(n)], radio=UnitDiskRadio(radius))
    root = draw(st.integers(0, n - 1))
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in net.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)

    def to_root(x):
        chain = []
        while x is not None:
            chain.append(x)
            x = parent[x]
        return chain

    cycles = []
    for u in parent:
        for v in net.neighbors(u):
            if u < v and parent[u] != v and parent[v] != u:
                up_u, up_v = to_root(u), to_root(v)
                on_v = set(up_v)
                i = next(i for i, x in enumerate(up_u) if x in on_v)
                j = up_v.index(up_u[i])
                cycles.append(up_u[:i + 1] + up_v[:j][::-1])
    assume(cycles)
    cycles.sort(key=len, reverse=True)
    top = 2 if draw(st.booleans()) else len(cycles) - 1
    cycle = cycles[draw(st.integers(0, min(top, len(cycles) - 1)))]
    shift = draw(st.integers(0, len(cycle) - 1))
    cycle = cycle[shift:] + cycle[:shift]
    if draw(st.booleans()):
        cycle.reverse()
    return net, cycle


class TestOppositeWidthFuzz:
    @given(udg_cycles(), st.data())
    @settings(deadline=None)
    def test_engine_equals_reference(self, drawn, data):
        net, cycle = drawn
        samples = data.draw(st.one_of(
            st.sampled_from([1, 4, 6, 9]),
            st.integers(len(cycle) + 1, len(cycle) + 6)))
        cap = data.draw(st.one_of(st.none(), st.integers(0, len(cycle) + 3)))
        oracle = oracle_opposite_width(net, cycle, samples)
        expected = oracle if cap is None else min(cap, oracle)
        assert opposite_width(net, cycle, samples=samples, cap=cap) == expected
        with use_reference_engine():
            assert opposite_width(net, cycle, samples=samples,
                                  cap=cap) == expected
