"""Equivalence of the vectorized CSR traversal engine and the BFS oracle.

Property-style checks on random UDG/QUDG networks across seeds: every
kernel of :class:`repro.network.TraversalEngine` must reproduce the pure
Python :class:`repro.reference.ReferenceEngine` exactly — k-hop sizes,
l-centrality, multi-source distances *and* parents (the engine is
bit-identical by design), parent-path validity, and the elected critical
nodes.  Whole-pipeline checks run the unchanged pipeline with the oracle
substituted for every network's engine.  Disconnected graphs, isolated
nodes and ``k`` beyond the diameter are covered explicitly, and
hypothesis fuzzes the k-hop census and the level-capped
``hop_distances`` sweep over random graphs, and the census's one-pass
ball product against scipy's ``@`` over random boolean operands.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from repro.core import SkeletonExtractor
from repro.core.equivalence import diff_results
from repro.core.identification import find_critical_nodes
from repro.core.neighborhood import (
    compute_indices,
    compute_khop_sizes,
    compute_l_centrality,
)
from repro.core.voronoi import build_voronoi
from repro.geometry import make_field
from repro.network import (
    QuasiUnitDiskRadio,
    SensorNetwork,
    UnitDiskRadio,
    build_network,
)
from repro.network.deployment import uniform_deployment
from repro.network.traversal import (
    UNREACHED,
    FloodTable,
    TraversalEngine,
    _bool_product,
    _ProductBuffer,
)
from repro.reference import (
    ReferenceEngine,
    is_locally_maximal,
    path_to_source,
    use_reference_engine,
)


def random_network(seed, n=180, radio=None, shape="rectangle", radio_range=5.0):
    """A random deployment; deliberately *not* reduced to the largest
    component, so low-density seeds exercise disconnected graphs."""
    field = make_field(shape)
    rng = random.Random(seed)
    positions = uniform_deployment(field, n, rng=rng)
    radio = radio if radio is not None else UnitDiskRadio(radio_range)
    return build_network(positions, radio=radio, field=field, rng=rng)


def network_grid(seed):
    """UDG and QUDG variants for one seed (QUDG drops links at random,
    which fragments the graph at this density)."""
    return [
        random_network(seed),
        random_network(seed, radio=QuasiUnitDiskRadio(5.0, alpha=0.4, p=0.3)),
    ]


SEEDS = [1, 2, 5, 11]


@pytest.mark.parametrize("seed", SEEDS)
def test_khop_sizes_match_reference(seed):
    for net in network_grid(seed):
        engine = net.traversal(batch_width=48)
        # k = 64 far exceeds the diameter of these 180-node deployments.
        for k in (1, 2, 3, 4, 64):
            for include_self in (True, False):
                ref = ReferenceEngine(net).all_khop_sizes(
                    k, include_self=include_self)
                vec = engine.all_khop_sizes(k, include_self=include_self)
                assert vec.tolist() == ref.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_khop_stats_match_reference(seed):
    for net in network_grid(seed):
        engine = net.traversal(batch_width=48)
        oracle = ReferenceEngine(net)
        for k, l in ((4, 4), (3, 3), (2, 4), (4, 2), (1, 1)):
            for include_self in (True, False):
                sizes_ref, cent_ref = oracle.khop_stats(
                    k, l, include_self=include_self
                )
                sizes_vec, cent_vec = engine.khop_stats(
                    k, l, include_self=include_self
                )
                assert sizes_vec.tolist() == sizes_ref.tolist()
                # Sums are integral in both engines, so the division
                # results are bit-identical, not merely close.
                assert cent_vec.tolist() == cent_ref.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_l_centrality_kernel_matches_reference(seed):
    net = random_network(seed)
    engine = net.traversal()
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 50, size=net.num_nodes).tolist()
    oracle = ReferenceEngine(net)
    for l in (1, 3):
        ref = oracle.l_centrality(l, sizes).tolist()
        assert engine.l_centrality(l, sizes).tolist() == ref
    assert compute_l_centrality(net, 2, sizes) == \
        oracle.l_centrality(2, sizes).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_source_distances_bit_identical(seed):
    for net in network_grid(seed):
        engine = net.traversal()
        rng = random.Random(seed)
        sites = sorted(rng.sample(range(net.num_nodes), 9))
        blocked = set(rng.sample(range(net.num_nodes), 15)) - set(sites)
        for blk in (None, blocked):
            dist_ref, parent_ref = ReferenceEngine(net).multi_source_distances(
                sites, blocked=blk)
            dist_vec, parent_vec = engine.multi_source_distances(sites, blocked=blk)
            assert np.array_equal(dist_ref, dist_vec)
            assert np.array_equal(parent_ref, parent_vec)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_multi_source_parent_paths_valid(seed):
    net = random_network(seed)
    engine = net.traversal()
    rng = random.Random(seed)
    sites = sorted(rng.sample(range(net.num_nodes), 6))
    dist, parent = engine.multi_source_distances(sites)
    for si, site in enumerate(sites):
        for node in net.nodes():
            d = dist[si, node]
            if d == UNREACHED:
                assert parent[si, node] == -1
                continue
            path = path_to_source(parent[si], node)
            assert len(path) == d + 1
            assert path[0] == node and path[-1] == site
            for a, b in zip(path, path[1:]):
                assert net.has_edge(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_local_maxima_match_reference(seed):
    for net in network_grid(seed):
        engine = net.traversal()
        rng = np.random.default_rng(seed)
        # Quantized values force plateaus, exercising the id tie-break.
        values = np.round(rng.random(net.num_nodes) * 4, 1).tolist()
        oracle = ReferenceEngine(net)
        for hops in (1, 2, 3):
            ref = oracle.all_local_maxima(values, hops=hops).tolist()
            assert engine.all_local_maxima(values, hops=hops).tolist() == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_critical_node_election_identical(seed):
    for net in network_grid(seed):
        with use_reference_engine():
            idx_ref = compute_indices(net)
            crit_ref = find_critical_nodes(net, idx_ref)
        idx_vec = compute_indices(net)
        assert idx_vec.khop_sizes == idx_ref.khop_sizes
        assert idx_vec.centrality == idx_ref.centrality
        assert idx_vec.index == idx_ref.index
        assert find_critical_nodes(net, idx_vec) == crit_ref


def test_use_reference_engine_substitutes_every_network():
    net = random_network(1, n=40)
    with use_reference_engine():
        assert isinstance(net.traversal(), ReferenceEngine)
        assert isinstance(net.traversal(batch_width=7), ReferenceEngine)
    assert isinstance(net.traversal(), TraversalEngine)


def test_full_extraction_identical_to_reference_engine():
    net = random_network(3, n=260)
    if not net.is_connected():
        net = net.largest_component_subgraph()
    with use_reference_engine():
        res_ref = SkeletonExtractor().extract(net)
    res_vec = SkeletonExtractor().extract(net)
    assert res_vec.critical_nodes == res_ref.critical_nodes
    for vec, ref in zip(res_vec.voronoi.table, res_ref.voronoi.table):
        assert np.array_equal(vec, ref)
    assert not diff_results(res_ref, res_vec)


def test_voronoi_matches_reference_engine():
    net = random_network(7, n=200)
    with use_reference_engine():
        sites = find_critical_nodes(net)
        vor_ref = build_voronoi(net, sites)
    vor_vec = build_voronoi(net, sites)
    assert vor_vec.cell_of == vor_ref.cell_of
    assert vor_vec.segment_nodes == vor_ref.segment_nodes
    assert vor_vec.voronoi_nodes == vor_ref.voronoi_nodes
    assert vor_vec.records == vor_ref.records


def test_disconnected_and_isolated_nodes():
    # Two explicit triangles plus an isolated node.
    adjacency = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4], []]
    from repro.geometry.primitives import Point

    positions = [Point(float(i), 0.0) for i in range(7)]
    net = SensorNetwork(positions, adjacency)
    engine = net.traversal()
    oracle = ReferenceEngine(net)
    for k in (1, 2, 5):
        assert engine.all_khop_sizes(k).tolist() == \
            oracle.all_khop_sizes(k).tolist()
    dist_ref, parent_ref = oracle.multi_source_distances([0, 6])
    dist_vec, parent_vec = engine.multi_source_distances([0, 6])
    assert np.array_equal(dist_ref, dist_vec)
    assert np.array_equal(parent_ref, parent_vec)
    assert dist_vec[0, 3] == UNREACHED  # other component
    assert dist_vec[1].tolist() == [UNREACHED] * 6 + [0]  # isolated source
    values = [1.0] * 7
    assert engine.all_local_maxima(values, hops=1).tolist() == [
        is_locally_maximal(net, v, values, hops=1) for v in net.nodes()
    ]


def test_has_edge_bisect_matches_membership():
    net = random_network(9)
    for u in net.nodes():
        nbrs = set(net.adjacency[u])
        for v in list(nbrs)[:5]:
            assert net.has_edge(u, v)
        for v in (0, net.num_nodes - 1, u):
            assert net.has_edge(u, v) == (v in nbrs)


def test_compute_khop_sizes_under_reference_engine():
    """Substituting the oracle engine leaves ``compute_khop_sizes`` exact."""
    net = random_network(4)
    with use_reference_engine():
        ref = compute_khop_sizes(net, 3)
    assert compute_khop_sizes(net, 3) == ref


def test_engine_batch_width_boundaries():
    net = random_network(2, n=50)
    ref = ReferenceEngine(net).all_khop_sizes(4).tolist()
    for width in (1, 7, 50, 4096):
        engine = net.traversal(batch_width=width)
        assert engine.all_khop_sizes(4).tolist() == ref
    with pytest.raises(ValueError):
        net.traversal(batch_width=0)


# -- PR 5 kernels: hop_distances / min_hop_distance / reconstruct_paths --


@pytest.mark.parametrize("seed", SEEDS)
def test_hop_distances_match_bfs_oracle(seed):
    for net in network_grid(seed):
        engine = net.traversal()
        rng = random.Random(seed + 17)
        sources = rng.sample(range(net.num_nodes), 7)  # deliberately unsorted
        dist = engine.hop_distances(sources)
        assert dist.shape == (7, net.num_nodes)
        for i, src in enumerate(sources):
            ref = net.bfs_distances(src)
            for node in net.nodes():
                expect = ref.get(node, UNREACHED) if isinstance(ref, dict) \
                    else ref[node]
                assert dist[i, node] == expect


@pytest.mark.parametrize("seed", SEEDS)
def test_min_hop_distance_matches_merged_wave(seed):
    for net in network_grid(seed):
        engine = net.traversal()
        rng = random.Random(seed + 3)
        sources = sorted(rng.sample(range(net.num_nodes), 9))
        merged = engine.min_hop_distance(sources)
        per_source = engine.hop_distances(sources)
        for node in net.nodes():
            cols = [int(per_source[i, node]) for i in range(len(sources))
                    if per_source[i, node] != UNREACHED]
            expect = min(cols) if cols else UNREACHED
            assert merged[node] == expect
        for src in sources:
            assert merged[src] == 0
        oracle = ReferenceEngine(net).min_hop_distance(sources)
        assert merged.tolist() == oracle.tolist()


def test_min_hop_distance_no_sources():
    net = random_network(1, n=40)
    merged = net.traversal().min_hop_distance([])
    assert np.all(merged == UNREACHED)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_reconstruct_paths_match_path_to_source(seed):
    net = random_network(seed)
    engine = net.traversal()
    rng = random.Random(seed)
    sites = sorted(rng.sample(range(net.num_nodes), 5))
    dist, parent = engine.multi_source_distances(sites)
    # Every reached pair, as the unpruned flood records them.
    rows, nodes = np.nonzero(dist != UNREACHED)
    table = FloodTable(rows, nodes, dist[rows, nodes].astype(np.int64),
                       parent[rows, nodes].astype(np.int64))
    requests = []
    for si in range(len(sites)):
        reached = [v for v in net.nodes() if dist[si, v] != UNREACHED]
        requests += [(si, v) for v in
                     rng.sample(reached, min(40, len(reached)))]
    rng.shuffle(requests)
    rows, nodes = [r for r, _ in requests], [v for _, v in requests]
    paths = engine.reconstruct_paths(table, rows, nodes)
    assert paths == [path_to_source(parent[r], v) for r, v in requests]
    assert paths == ReferenceEngine(net).reconstruct_paths(table, rows, nodes)


# -- k-hop census and level-capped hop_distances against the BFS oracle -


def graph_from_edges(n, edges):
    """A :class:`SensorNetwork` with the given undirected edges (positions
    are irrelevant to every kernel here)."""
    from repro.geometry.primitives import Point

    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    positions = [Point(float(i), 0.0) for i in range(n)]
    return SensorNetwork(positions, [sorted(a) for a in adjacency])


def census_graphs():
    """A random UDG deployment (fragmented at this density), and a hand-made
    graph of a 6-node path, a triangle and an isolated node — diameter 5,
    so k = 8 runs past it."""
    path = [(i, i + 1) for i in range(5)]
    triangle = [(6, 7), (7, 8), (6, 8)]
    return [random_network(5, n=70), graph_from_edges(10, path + triangle)]


def assert_census_exact(net, engine, k, l, include_self):
    """Sizes and centralities equal the pure-Python oracle exactly."""
    oracle = ReferenceEngine(net)
    sizes_ref = oracle.all_khop_sizes(k, include_self=include_self).tolist()
    assert engine.all_khop_sizes(k, include_self=include_self).tolist() == \
        sizes_ref
    cent_ref = oracle.l_centrality(l, sizes_ref,
                                   include_self=include_self).tolist()
    sizes, cent = engine.khop_stats(k, l, include_self=include_self)
    assert sizes.tolist() == sizes_ref
    assert cent.tolist() == cent_ref
    assert engine.l_centrality(l, sizes_ref,
                               include_self=include_self).tolist() == cent_ref


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_khop_census_exact_across_batch_widths(k):
    for net in census_graphs():
        n = net.num_nodes
        for width in (1, 7, n, n + 5):
            engine = net.traversal(batch_width=width)
            for l in (k, k % 3 + 1):
                for include_self in (True, False):
                    assert_census_exact(net, engine, k, l, include_self)


def test_khop_census_saturated_dense_graph():
    # K_16 next to a 12-node path: at k = 20 the reach block chains 10
    # ball operators.  Were the operators int32 path counts rather than
    # boolean patterns, the clique rows would count 16^t paths after t
    # products, and at 16^8 = 2^32 int32 wraps to 0, which drops the
    # entries.
    clique = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    path = [(i, i + 1) for i in range(16, 27)]
    net = graph_from_edges(28, clique + path)
    for width in (1, 7, 28):
        engine = net.traversal(batch_width=width)
        for l in (20, 3):
            assert_census_exact(net, engine, 20, l, include_self=True)


@st.composite
def edge_graphs(draw):
    """Random simple graphs: isolated nodes, several components, density
    from trees to near-cliques."""
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    return graph_from_edges(n, edges)


@given(edge_graphs(), st.integers(1, 9), st.integers(1, 9),
       st.booleans(), st.integers(1, 30))
@settings(deadline=None)
def test_khop_census_fuzz(net, k, l, include_self, width):
    assert_census_exact(net, net.traversal(batch_width=width), k, l,
                        include_self)


@st.composite
def bool_operands(draw, rows, cols):
    """A boolean CSR matrix of the given shape: any pattern (empty rows
    included), each row's columns in a drawn order, and int32 or int64
    index arrays."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    chosen = set(draw(st.lists(st.sampled_from(cells), unique=True,
                               max_size=len(cells)))) if cells else set()
    row_cols = [[j for j in range(cols) if (i, j) in chosen]
                for i in range(rows)]
    if draw(st.booleans()):
        row_cols = [draw(st.permutations(c)) for c in row_cols]
    idx = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.cumsum([0] + [len(c) for c in row_cols]).astype(idx)
    indices = np.array([j for c in row_cols for j in c], dtype=idx)
    matrix = csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                        shape=(rows, cols))
    # The constructor narrows int64 indices that fit; keep the drawn type.
    matrix.indices, matrix.indptr = indices, indptr
    return matrix


@st.composite
def operand_pairs(draw):
    """``(left, right)`` of shapes ``m × k`` and ``k × n``, any of them 0."""
    m, k, n = (draw(st.integers(0, 9)) for _ in range(3))
    return draw(bool_operands(m, k)), draw(bool_operands(k, n))


def assert_same_pattern(got, want):
    """Same shape, row sizes and per-row column sets; no column twice."""
    assert got.shape == want.shape
    assert np.diff(got.indptr).tolist() == np.diff(want.indptr).tolist()
    for row in range(got.shape[0]):
        cols = got.indices[got.indptr[row]:got.indptr[row + 1]].tolist()
        assert len(cols) == len(set(cols))
        assert set(cols) == set(
            want.indices[want.indptr[row]:want.indptr[row + 1]].tolist())
    assert got.data.all()


@given(operand_pairs())
@settings(deadline=None)
def test_bool_product_has_the_pattern_of_matmul(pair):
    left, right = pair
    got = _bool_product(left, right)
    assert_same_pattern(got, left @ right)
    assert got.indices.dtype == np.int32  # every size here fits
    # Its own output (unsorted columns) as either operand.
    assert_same_pattern(_bool_product(got, right.T.tocsr() @ right),
                        got @ (right.T.tocsr() @ right))
    assert_same_pattern(_bool_product(left.T.tocsr(), got),
                        left.T.tocsr() @ got)


@given(st.lists(operand_pairs(), min_size=1, max_size=4))
@settings(deadline=None)
def test_product_buffer_serves_successive_products(pairs):
    # One buffer, products of growing and shrinking capacity: each result
    # is exact as long as it is read before the buffer's next product.
    buffer = _ProductBuffer()
    for left, right in pairs:
        assert_same_pattern(_bool_product(left, right, buffer), left @ right)


def test_product_buffer_grows_for_either_index_width():
    # 100 int64 indices fill more bytes than 150 int32 ones, but the data
    # array still has to grow.
    buffer = _ProductBuffer()
    assert [a.size for a in buffer.arrays(100, np.int64)] == [100, 100]
    indices, data = buffer.arrays(150, np.int32)
    assert (indices.size, indices.dtype, data.size) == (150, np.int32, 150)


def test_bool_product_rejects_what_the_kernel_cannot_take():
    # Mismatched inner dimensions (the flop-count SpMV checks them) and
    # non-boolean data (scipy's dispatch checks it) raise before the
    # kernel writes anything.
    square = csr_matrix(np.eye(3, dtype=bool))
    with pytest.raises(ValueError):
        _bool_product(square, csr_matrix((4, 2), dtype=bool))
    with pytest.raises(ValueError):
        _bool_product(square.astype(np.int32), square.astype(np.int32))


def oracle_distances(net, source, max_hops):
    ref = net.bfs_distances(source, max_hops=max_hops)
    return [ref.get(v, UNREACHED) for v in net.nodes()]


def assert_capped_contract(net, sources, max_hops):
    """``hop_distances(max_hops=)`` equals the reference engine and the
    per-source ``bfs_distances(max_hops=)`` oracle: exact up to the cap,
    :data:`UNREACHED` beyond it."""
    dist = net.traversal().hop_distances(sources, max_hops=max_hops)
    assert np.array_equal(
        ReferenceEngine(net).hop_distances(sources, max_hops=max_hops), dist)
    for i, src in enumerate(sources):
        assert dist[i].tolist() == oracle_distances(net, src, max_hops)


@given(edge_graphs(), st.data())
@settings(deadline=None)
def test_hop_distances_max_hops_fuzz(net, data):
    nodes = st.integers(0, net.num_nodes - 1)
    sources = data.draw(st.lists(nodes, min_size=1, max_size=12))
    max_hops = data.draw(st.one_of(st.none(), st.integers(0, 26)))
    assert_capped_contract(net, sources, max_hops)


@pytest.mark.parametrize("seed", SEEDS)
def test_hop_distances_max_hops_on_udg(seed):
    for net in network_grid(seed):
        rng = random.Random(seed + 29)
        sources = rng.sample(range(net.num_nodes), 12)
        for max_hops in (None, 0, 1, 3, 8):
            assert_capped_contract(net, sources, max_hops)


def test_hop_distances_max_hops_zero_leaves_only_sources():
    net = random_network(2, n=60)
    for engine in (net.traversal(), ReferenceEngine(net)):
        dist = engine.hop_distances([3, 10, 3], max_hops=0)
        expect = np.full((3, net.num_nodes), UNREACHED)
        expect[0, 3] = expect[1, 10] = expect[2, 3] = 0
        assert np.array_equal(dist, expect)


def test_hop_distances_rejects_negative_max_hops():
    net = random_network(1, n=40)
    for engine in (net.traversal(), ReferenceEngine(net)):
        with pytest.raises(ValueError):
            engine.hop_distances([0, 1], max_hops=-1)
