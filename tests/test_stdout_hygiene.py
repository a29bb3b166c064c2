"""Library extraction writes nothing to stdout.

Command-line entry points (``python -m repro``, the benchmark runner)
print a result as their last stdout line; a library call that printed, or
a pool worker that did, would break that contract.  ``capfd`` captures at the
file-descriptor level, so output from forked workers is caught too.
"""

import pytest

from repro import get_scenario
from repro.core import SkeletonParams, extract_skeleton
from repro.shard import run_sharded


@pytest.fixture(scope="module")
def window():
    return get_scenario("window").build(seed=1, num_nodes=400)


def test_monolithic_extraction_is_silent(window, capfd):
    extract_skeleton(window, SkeletonParams())
    assert capfd.readouterr().out == ""


def test_sharded_extraction_on_two_workers_is_silent(window, capfd):
    run_sharded(window, SkeletonParams(), grid=(2, 2), jobs=2)
    assert capfd.readouterr().out == ""
