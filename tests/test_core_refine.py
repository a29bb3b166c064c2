"""Tests for skeleton refinement: rebuild + pruning (§III-D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refine import SkeletonGraph, merge_fake_loops, prune_short_branches
from repro.core.loops import Loop


def make_graph(edges):
    g = SkeletonGraph(nodes=set(), edges={frozenset(e) for e in edges})
    for e in g.edges:
        g.nodes |= e
    return g


def make_loop(nodes, fake=True):
    return Loop(sites=[], ordered=list(nodes), is_fake=fake, witnesses=[])


class TestSkeletonGraph:
    def test_cycle_rank_of_tree_is_zero(self):
        g = make_graph([(1, 2), (2, 3), (2, 4)])
        assert g.cycle_rank() == 0

    def test_cycle_rank_of_cycle_is_one(self):
        g = make_graph([(1, 2), (2, 3), (3, 1)])
        assert g.cycle_rank() == 1

    def test_connected(self):
        assert make_graph([(1, 2), (2, 3)]).is_connected()
        assert not make_graph([(1, 2), (3, 4)]).is_connected()

    def test_remove_nodes_drops_incident_edges(self):
        g = make_graph([(1, 2), (2, 3)])
        g.remove_nodes({2})
        assert g.edges == set()
        assert g.nodes == {1, 3}

    def test_add_path(self):
        g = make_graph([(1, 2)])
        g.add_path([2, 5, 6])
        assert frozenset((2, 5)) in g.edges
        assert frozenset((5, 6)) in g.edges

    def test_drop_isolated_nodes(self):
        g = make_graph([(1, 2)])
        g.nodes.add(99)
        g.drop_isolated_nodes()
        assert 99 not in g.nodes


class TestMergeFakeLoops:
    def test_disjoint_loops_stay_separate(self):
        loops = [make_loop([1, 2, 3]), make_loop([7, 8, 9])]
        groups = merge_fake_loops(loops)
        assert len(groups) == 2

    def test_overlapping_loops_merge(self):
        loops = [make_loop([1, 2, 3]), make_loop([3, 4, 5]), make_loop([5, 6, 7])]
        groups = merge_fake_loops(loops)
        assert len(groups) == 1
        assert len(groups[0]) == 3

    def test_genuine_loops_excluded(self):
        loops = [make_loop([1, 2, 3], fake=False), make_loop([3, 4, 5])]
        groups = merge_fake_loops(loops)
        assert len(groups) == 1
        assert groups[0][0].nodes == {3, 4, 5}


class TestPruning:
    def test_short_branch_removed(self):
        # Junction at 3 with a single-node stub 3-10; the two long arms
        # (length 2) survive a min_length of 1.
        g = make_graph([(1, 2), (2, 3), (3, 4), (4, 5), (3, 10)])
        pruned = prune_short_branches(g, min_length=1)
        assert 10 not in pruned.nodes
        assert {1, 2, 3, 4, 5} <= pruned.nodes

    def test_long_branch_kept(self):
        g = make_graph([(1, 2), (2, 3), (3, 4), (4, 5),
                        (2, 10), (10, 11), (11, 12), (12, 13)])
        pruned = prune_short_branches(g, min_length=2)
        assert 13 in pruned.nodes

    def test_bare_path_never_deleted(self):
        g = make_graph([(1, 2), (2, 3)])
        pruned = prune_short_branches(g, min_length=10)
        assert pruned.nodes == {1, 2, 3}

    def test_zero_length_is_noop(self):
        g = make_graph([(1, 2), (2, 3), (2, 10)])
        pruned = prune_short_branches(g, min_length=0)
        assert 10 in pruned.nodes

    def test_iterative_pruning(self):
        # 20 carries two stubs (21, 30); pruning them leaves 3-20 as a
        # newly short branch, which a later iteration removes too.
        g = make_graph([
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
            (3, 20), (20, 21), (20, 30),
        ])
        pruned = prune_short_branches(g, min_length=2)
        assert not {20, 21, 30} & pruned.nodes
        assert {0, 1, 2, 3, 4, 5, 6, 7} <= pruned.nodes


def oracle_prune_short_branches(graph: SkeletonGraph,
                                min_length: int) -> SkeletonGraph:
    """Trim dangling branches shorter than *min_length* hops.

    A branch runs from a leaf to the first junction (skeleton degree ≥ 3).
    Whole-skeleton paths (no junction at all) are never pruned away — a
    corridor network's skeleton *is* one path.
    """
    if min_length <= 0:
        return graph
    changed = True
    while changed:
        changed = False
        adj = graph.adjacency()
        leaves = sorted(v for v, nbrs in adj.items() if len(nbrs) == 1)
        for leaf in leaves:
            if leaf not in graph.nodes:
                continue
            adj = graph.adjacency()
            if len(adj.get(leaf, ())) != 1:
                continue
            branch = [leaf]
            current = leaf
            prev = None
            reached_junction = False
            while True:
                if current != leaf and len(adj[current]) >= 3:
                    reached_junction = True
                    branch.pop()  # the junction itself stays
                    break
                if len(branch) > min_length + 1:
                    break  # long enough to survive regardless
                nbrs = [v for v in adj[current] if v != prev]
                if not nbrs:
                    break  # other end of a bare path
                prev, current = current, nbrs[0]
                branch.append(current)
            if reached_junction and 0 < len(branch) <= min_length:
                graph.remove_nodes(set(branch))
                changed = True
    return graph


@st.composite
def pruning_cases(draw):
    """Cycles and bare paths (some joined by chords), with pendant paths
    of 0 to ``min_length + 2`` hops hung on any node, pendants included;
    node ids are a drawn permutation so the leaf order varies."""
    min_length = draw(st.integers(0, 4))
    paths = []
    size = 0
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            k = draw(st.integers(3, 8))
            paths.append(list(range(size, size + k)) + [size])
        else:
            k = draw(st.integers(1, 8))
            paths.append(list(range(size, size + k)))
        size += k
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if a != b:
            paths.append([a, b])
    for _ in range(draw(st.integers(0, 8))):
        anchor = draw(st.integers(0, size - 1))
        k = draw(st.integers(0, min_length + 2))
        paths.append([anchor] + list(range(size, size + k)))
        size += k
    label = draw(st.permutations(range(size)))
    return [[label[v] for v in path] for path in paths], min_length


def graph_of(paths) -> SkeletonGraph:
    graph = SkeletonGraph(nodes=set(), edges=set())
    for path in paths:
        graph.add_path(path)
    return graph


class TestPruningOracle:
    @given(pruning_cases())
    @settings(deadline=None)
    def test_matches_rebuild_per_leaf_oracle(self, case):
        paths, min_length = case
        pruned = prune_short_branches(graph_of(paths), min_length)
        expected = oracle_prune_short_branches(graph_of(paths), min_length)
        assert pruned.nodes == expected.nodes
        assert pruned.edges == expected.edges


class TestEndToEndRefinement:
    def test_final_skeleton_connected(self, rectangle_result, annulus_result):
        assert rectangle_result.skeleton.is_connected()
        assert annulus_result.skeleton.is_connected()

    def test_rectangle_is_tree(self, rectangle_result):
        assert rectangle_result.skeleton.cycle_rank() == 0

    def test_annulus_keeps_exactly_one_cycle(self, annulus_result):
        assert annulus_result.skeleton.cycle_rank() == 1

    def test_final_skeleton_subset_of_coarse(self, rectangle_result):
        assert rectangle_result.skeleton.nodes <= rectangle_result.coarse.nodes
        assert rectangle_result.skeleton.edges <= rectangle_result.coarse.edges

    def test_genuine_loop_edges_survive(self, annulus_result):
        skeleton_edges = annulus_result.skeleton.edges
        for loop in annulus_result.loop_analysis.genuine:
            missing = [e for e in loop.edges if e not in skeleton_edges]
            assert not missing
