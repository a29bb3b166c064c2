"""`diff_results` names the divergent artifact (repro.core.equivalence)."""

from dataclasses import replace

import pytest

from repro import get_scenario
from repro.core import SkeletonParams, extract_skeleton
from repro.core.equivalence import diff_results


@pytest.fixture(scope="module")
def result():
    network = get_scenario("window").build(seed=1, num_nodes=200)
    return extract_skeleton(network, SkeletonParams())


def test_identical_runs_have_no_diff(result):
    assert diff_results(result, result) == []


@pytest.mark.parametrize("field", ["site_row", "node", "dist", "parent"])
def test_flood_table_mismatch_is_reported(result, field):
    table = result.voronoi.table
    bumped = getattr(table, field).copy()
    bumped[-1] += 1
    candidate = replace(result, voronoi=replace(
        result.voronoi, table=table._replace(**{field: bumped})))
    diffs = diff_results(result, candidate)
    assert len(diffs) == 1 and diffs[0].startswith(f"stage2.table.{field}:")
