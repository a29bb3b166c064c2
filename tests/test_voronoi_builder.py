"""The array-native stage-2 builder against the per-node oracle.

:func:`repro.core.voronoi.voronoi_from_entries` derives records, cells,
segment and Voronoi nodes and pair segments from one lexsort of the
record entries.  :func:`repro.reference.per_node_records` and
:func:`repro.reference.per_node_structures` derive the same structures
one node at a time; every structure must match, down to the key order of
``pair_segments`` and the node order of each of its lists.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PAPER_SCENARIOS
from repro.core import SkeletonParams
from repro.core.identification import find_critical_nodes
from repro.core.neighborhood import compute_indices
from repro.core.voronoi import build_voronoi, voronoi_from_entries
from repro.geometry.primitives import Point
from repro.network import SensorNetwork
from repro.network.traversal import FloodTable
from repro.reference import per_node_records, per_node_structures


def path_network(n):
    return SensorNetwork([Point(float(i), 0.0) for i in range(n)],
                         [[v for v in (u - 1, u + 1) if 0 <= v < n]
                          for u in range(n)])


def assert_matches_oracle(voronoi, entries):
    n = voronoi.network.num_nodes
    records = per_node_records(n, *entries)
    cell_of, segment_nodes, voronoi_nodes, pair_segments = \
        per_node_structures(records)
    assert voronoi.records == records
    assert voronoi.cell_of == cell_of
    assert voronoi.segment_nodes == segment_nodes
    assert voronoi.voronoi_nodes == voronoi_nodes
    # Item lists: same keys in the same first-seen order, same node lists.
    assert list(voronoi.pair_segments.items()) == list(pair_segments.items())


@st.composite
def record_entries(draw):
    """``(n, sites, (node, site, dist))``: each node records 0–6 distinct
    sites (0 = unreached) at distances 0–3, so equal distances abound;
    the entries come in shuffled order."""
    n = draw(st.integers(min_value=0, max_value=24))
    if n == 0:
        return n, [], tuple(np.empty((3, 0), dtype=np.int64))
    sites = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                                min_size=1, max_size=8)))
    entries = []
    for node in range(n):
        count = draw(st.integers(min_value=0, max_value=min(6, len(sites))))
        recorded = draw(st.permutations(sites))[:count]
        entries.extend((node, site, draw(st.integers(min_value=0, max_value=3)))
                       for site in recorded)
    entries = draw(st.permutations(entries))
    return n, sites, tuple(np.array(entries, dtype=np.int64).reshape(-1, 3).T)


class TestBuilderMatchesOracle:
    @given(record_entries())
    @settings(deadline=None)
    def test_fuzzed_entries(self, drawn):
        n, sites, entries = drawn
        voronoi = voronoi_from_entries(path_network(n), sites, entries,
                                       FloodTable.empty())
        assert_matches_oracle(voronoi, entries)
        assert voronoi.sites == sites
        for node in range(n):
            assert voronoi.sites_recorded_by(node) == \
                [site for site, _ in voronoi.records[node]]
        for site in sites:
            assert voronoi.cell_members(site) == \
                [v for v in range(n) if voronoi.cell_of[v] == site]

    @pytest.mark.parametrize("name", sorted(PAPER_SCENARIOS))
    def test_paper_networks(self, name):
        network = PAPER_SCENARIOS[name].build(seed=1, num_nodes=500)
        params = SkeletonParams()
        index_data = compute_indices(network, params)
        sites = find_critical_nodes(network, index_data, params)
        voronoi = build_voronoi(network, sites, params)
        table = voronoi.table
        entries = (table.node,
                   np.asarray(voronoi.sites, dtype=np.int64)[table.site_row],
                   table.dist)
        assert_matches_oracle(voronoi, entries)


class TestListViews:
    def test_views_are_cached_and_left_out_of_pickles(self, rectangle_network):
        voronoi = build_voronoi(rectangle_network, [0, 50, 200])
        assert voronoi.records is voronoi.records
        assert voronoi.cell_of is voronoi.cell_of
        clone = pickle.loads(pickle.dumps(voronoi))
        assert not {"records", "cell_of"} & set(vars(clone))
        assert clone.records == voronoi.records
        assert clone.cell_of == voronoi.cell_of
        assert list(clone.pair_segments.items()) == \
            list(voronoi.pair_segments.items())
