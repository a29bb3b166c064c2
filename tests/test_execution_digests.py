"""Every execution of the pipeline ends in the same stage-4 output.

Monolithic, sharded and distributed extraction build stages 1–2 their
own way and share stage 3, stage 4, the by-products and the result
assembly (``repro.core.pipeline.finish_skeleton``).  These literals pin
:func:`tests.test_stage4_golden.stage4_digest` of each execution on the
Window scenario (400 nodes, seed 1) — plus a partitioned distributed
run and each of its fragments — so moving code between the executions
cannot move their output.  The values were recorded before the tails
were merged; regenerate only on an intended output change.
"""

import pytest

from repro import get_scenario
from repro.core import extract_skeleton, extract_skeleton_distributed
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.runtime import CrashWindow, FaultPlan, LatencyModel, RetryPolicy
from repro.shard import run_sharded
from tests.test_stage4_golden import stage4_digest

WINDOW = "63a551e7bb7192710f4442b68509e138dce20491dc4f3260b762ffb6f578470a"
DISTRIBUTED = {
    "sync": "1b695487127d49a3222636c0073c4809a418465a41474cae86ae9c5b9e3d2d91",
    "async": "b9b0f337f187642db6fc9b7b3d7e089ec9025902b2a482da759dadb391ee88ef",
    "faulty": "4fca71cfb65fe14ec474d269dea7465304f1896cf90e70153cbda5967ad40514",
}
SPLIT = "1bf60771b5b886cdad3bf6cef87842469ebf10e7ac12e10e1c81a3e09ad745df"
SPLIT_COMPONENT = \
    "efcc9a91d4470d53ee81e69f805f72bbb842fe94a1dd1fd1ac2f77c1e81cb0c5"


@pytest.fixture(scope="module")
def window():
    return get_scenario("window").build(seed=1, num_nodes=400)


def test_monolithic(window):
    assert stage4_digest(extract_skeleton(window)) == WINDOW


@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 2)])
def test_sharded(window, grid):
    assert stage4_digest(run_sharded(window, grid=grid).result) == WINDOW


@pytest.mark.parametrize("run", sorted(DISTRIBUTED))
def test_distributed(window, run):
    kwargs = {
        "sync": {},
        "async": {"scheduler": "async",
                  "latency": LatencyModel.uniform_jitter(0.5, seed=3)},
        "faulty": {"fault_plan": FaultPlan(seed=7, drop_probability=0.1),
                   "retry_policy": RetryPolicy(max_retries=3)},
    }[run]
    result = extract_skeleton_distributed(window, **kwargs)
    assert stage4_digest(result) == DISTRIBUTED[run]
    assert result.run_stats is not None


def test_partitioned_distributed():
    # Two clusters joined by a single bridge node, which crashes at once.
    positions = (
        [Point(float(i % 4), float(i // 4)) for i in range(16)]
        + [Point(5.0, 1.5)]
        + [Point(7.0 + i % 4, float(i // 4)) for i in range(16)]
    )
    network = build_network(positions, radio=UnitDiskRadio(2.3))
    result = extract_skeleton_distributed(
        network, fault_plan=FaultPlan(crashes={16: CrashWindow(start=0)}),
        deadline_action="return_partial",
    )
    assert result.partitioned
    assert stage4_digest(result) == SPLIT
    assert [stage4_digest(c.result) for c in result.component_results] \
        == [SPLIT_COMPONENT, SPLIT_COMPONENT]
