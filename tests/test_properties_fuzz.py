"""Property-based correctness harness over random deployments (hypothesis).

Four invariant families, each fuzzed across random UDG/QUDG/log-normal
deployments rather than a handful of fixed seeds:

* **Theorem 4** — every Voronoi cell induces a connected subgraph, for any
  site set, on any connected deployment;
* **oracle equivalence** — a whole extraction on the CSR traversal
  kernels is bit-identical, artifact for artifact, to the same pipeline
  run on the pure-Python reference engine, across all three radio models;
* **distributed equivalence** — the message-passing protocols over a
  zero-drop fault fabric elect exactly the centralized critical nodes;
* **tracing purity** — attaching a tracer never changes a run: results
  and ``RunStats`` are bit-identical with and without one, on the
  synchronous, lossy and asynchronous fabrics alike.

Networks are kept small (≤ ~140 nodes) so each example stays fast; the
fixed-seed equivalence suite (``test_traversal_engine``) covers the large
dense regime.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkeletonParams, extract_skeleton, run_distributed_stages
from repro.core.equivalence import diff_results
from repro.core.identification import find_critical_nodes
from repro.core.neighborhood import compute_indices
from repro.core.voronoi import build_voronoi
from repro.geometry import make_field
from repro.network import (
    LogNormalRadio,
    QuasiUnitDiskRadio,
    UnitDiskRadio,
    build_network,
)
from repro.network.deployment import uniform_deployment
from repro.observability import Tracer
from repro.reference import use_reference_engine
from repro.runtime import FaultPlan, LatencyModel, RetryPolicy

SHAPES = ("rectangle", "annulus", "cross")
RADIO_KINDS = ("udg", "qudg", "lognormal")

deployment_seeds = st.integers(min_value=0, max_value=10_000)
shapes = st.sampled_from(SHAPES)
qudg = st.booleans()
radio_kinds = st.sampled_from(RADIO_KINDS)


def _radio(kind, radio_range):
    if kind == "qudg":
        return QuasiUnitDiskRadio(radio_range, alpha=0.4, p=0.3)
    if kind == "lognormal":
        return LogNormalRadio(radio_range, epsilon=1.0)
    return UnitDiskRadio(radio_range)


def fuzz_network(shape, seed, use_qudg, n=120, radio_range=5.0,
                 radio_kind=None):
    """A random connected deployment (largest component of a random drop)."""
    field = make_field(shape)
    rng = random.Random(seed)
    positions = uniform_deployment(field, n, rng=rng)
    if radio_kind is None:
        radio_kind = "qudg" if use_qudg else "udg"
    radio = _radio(radio_kind, radio_range)
    network = build_network(positions, radio=radio, field=field, rng=rng)
    return network.largest_component_subgraph()


class TestTheorem4:
    @given(shapes, deployment_seeds, qudg)
    @settings(max_examples=15, deadline=None)
    def test_cells_are_connected(self, shape, seed, use_qudg):
        network = fuzz_network(shape, seed, use_qudg)
        params = SkeletonParams()
        data = compute_indices(network, params)
        sites = find_critical_nodes(network, data, params)
        if not sites:
            # Degenerate deployments may elect nobody; Theorem 4 holds for
            # *any* site set, so exercise it with an arbitrary spread.
            sites = sorted(set(range(0, network.num_nodes, 17)))
        voronoi = build_voronoi(network, sites, params)
        assert voronoi.cells_are_connected()

    @given(deployment_seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_cells_connected_for_arbitrary_sites(self, seed, stride):
        # Sites need not be critical nodes for the theorem to hold.
        network = fuzz_network("rectangle", seed, use_qudg=False, n=90)
        sites = sorted(set(range(0, network.num_nodes, stride * 7)))
        voronoi = build_voronoi(network, sites, SkeletonParams())
        assert voronoi.cells_are_connected()


class TestOracleEquivalence:
    # max_examples is left to the hypothesis profile, so the thorough
    # profile of the stage4-oracle CI job runs it deeper.
    @given(shapes, deployment_seeds, radio_kinds)
    @settings(deadline=None)
    def test_stage_artifacts_bit_identical(self, shape, seed, radio_kind):
        network = fuzz_network(shape, seed, False, radio_kind=radio_kind)
        with use_reference_engine():
            oracle = extract_skeleton(network)
        kernel = extract_skeleton(network)
        for ref, vec in zip(oracle.voronoi.table, kernel.voronoi.table):
            assert (ref == vec).all()
        assert diff_results(oracle, kernel) == []


class TestDistributedEquivalence:
    @given(shapes, deployment_seeds, st.integers(min_value=0, max_value=999))
    @settings(max_examples=10, deadline=None)
    def test_zero_drop_matches_centralized(self, shape, seed, fault_seed):
        network = fuzz_network(shape, seed, use_qudg=False)
        params = SkeletonParams()
        data = compute_indices(network, params)
        centralized = find_critical_nodes(network, data, params)
        outcome = run_distributed_stages(
            network, params,
            fault_plan=FaultPlan(seed=fault_seed, drop_probability=0.0),
            retry_policy=RetryPolicy(max_retries=3),
        )
        assert outcome.khop_sizes == data.khop_sizes
        assert outcome.index == data.index
        assert outcome.critical_nodes == centralized
        assert outcome.stats.retries == 0
        assert outcome.stats.drops == 0


class TestTracingPurity:
    """Observational purity: a tracer records and never perturbs.

    Each example runs the distributed stages twice — tracer attached and
    not — on the same deployment and fabric, and requires bit-identical
    per-node outcomes and run statistics.  The tracer additionally must
    agree with the stats it shadowed.
    """

    FABRICS = ("sync", "lossy", "async")

    @staticmethod
    def _fabric_kwargs(fabric, fault_seed):
        if fabric == "lossy":
            return dict(
                fault_plan=FaultPlan(seed=fault_seed, drop_probability=0.2),
                retry_policy=RetryPolicy(max_retries=3),
                deadline_action="return_partial",
            )
        if fabric == "async":
            return dict(
                scheduler="async",
                latency=LatencyModel.uniform_jitter(0.5, seed=fault_seed),
            )
        return {}

    @given(shapes, deployment_seeds, st.sampled_from(FABRICS),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=12, deadline=None)
    def test_tracer_never_changes_the_run(self, shape, seed, fabric,
                                          fault_seed):
        network = fuzz_network(shape, seed, use_qudg=False, n=90)
        kwargs = self._fabric_kwargs(fabric, fault_seed)
        tracer = Tracer()
        plain = run_distributed_stages(network, **kwargs)
        traced = run_distributed_stages(network, tracer=tracer, **kwargs)
        assert traced.khop_sizes == plain.khop_sizes
        assert traced.index == plain.index
        assert traced.critical_nodes == plain.critical_nodes
        assert traced.site_records == plain.site_records
        assert traced.stats == plain.stats
        sends = sum(tracer.query().messages_by_phase().values())
        assert sends == traced.stats.broadcasts
