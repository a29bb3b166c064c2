"""Experiment runners — one per paper figure plus the discussion items.

Each function reproduces one evaluation artifact as a quantitative table
(see DESIGN.md §4 for the index).  The paper's figures are qualitative
skeleton pictures; the tables report the properties those pictures are
meant to demonstrate: connectivity, homotopy (cycles vs preserved holes),
medial placement, stability, and complexity scaling.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from ..analysis import (
    boundary_detection_quality,
    compare_extractors,
    evaluate_skeleton,
    fit_power_law,
    messages_per_node,
    preserved_holes,
    skeleton_stability,
)
from ..core import SkeletonExtractor, SkeletonParams, run_distributed_stages
from ..observability import Tracer
from ..geometry.medial_axis import approximate_medial_axis
from ..network import (
    FIG5_DEGREES,
    FIG7_DEGREES,
    FIG7_EPSILONS,
    FIG8_SCENARIOS,
    PAPER_SCENARIOS,
    LogNormalRadio,
    QuasiUnitDiskRadio,
    UnitDiskRadio,
    estimate_range_for_degree,
    get_scenario,
)
from ..perf import ParallelRunner, set_task_context, task_context
from .harness import ExperimentReport, scaled_nodes

__all__ = [
    "run_fig1_pipeline",
    "run_fig3_byproducts",
    "run_fig4_scenarios",
    "run_fig5_density",
    "run_fig6_qudg",
    "run_fig7_lognormal",
    "run_fig8_skewed",
    "run_thm5_complexity",
    "run_sec5b_parameters",
    "run_baseline_comparison",
    "run_ablations",
]

FIG4_NAMES = [
    "one_hole", "flower", "smile", "music", "airplane",
    "cactus", "star_hole", "spiral", "two_holes", "star",
]


def _extract(network, params: Optional[SkeletonParams] = None,
             cache=None, tracer=None):
    return SkeletonExtractor(params, cache=cache).extract(network, tracer=tracer)


def _build(scenario, seed: int, num_nodes: int, radio=None,
           cache=None, tracer=None):
    """Build (or fetch) a scenario network, memoized under the full build
    recipe — the scenario record, seed, node count and radio model."""
    if cache is None:
        return scenario.build(seed=seed, radio=radio, num_nodes=num_nodes)
    return cache.get_or_build(
        "scenario",
        (scenario, seed, num_nodes, radio if radio is not None else "default"),
        lambda: scenario.build(seed=seed, radio=radio, num_nodes=num_nodes),
        tracer=tracer,
    )


def _medial(scenario, cache=None, tracer=None):
    """The field's medial-axis approximation, memoized per shape — it is a
    pure function of the (deterministic) field geometry."""
    if cache is None:
        return approximate_medial_axis(scenario.field())
    return cache.get_or_build(
        "medial", (scenario.shape,),
        lambda: approximate_medial_axis(scenario.field()),
        tracer=tracer,
    )


def _holes(network, cache=None, tracer=None):
    """Ground-truth hole count, memoized under the graph's content hash."""
    if cache is None:
        return preserved_holes(network)
    return cache.get_or_build(
        "holes", (network.content_hash(),),
        lambda: preserved_holes(network),
        tracer=tracer,
    )


def _cache_dir(cache) -> Optional[str]:
    """The disk tier's path, for reconstruction inside spawned workers."""
    if cache is not None and cache.disk_dir is not None:
        return str(cache.disk_dir)
    return None


def _run_tasks(fn, configs, jobs, cache, tracer):
    """Fan *configs* over the executor with the runner's cache/tracer
    installed as the task context; rows return in config order, so the
    parallel sweep is bit-identical to the serial one."""
    runner = ParallelRunner(jobs)
    previous = set_task_context(cache, tracer)
    try:
        return runner.map(fn, configs)
    finally:
        set_task_context(*previous)


def _grade(network, result, medial_axis=None, holes=None) -> Dict:
    quality = evaluate_skeleton(
        network, result.skeleton.nodes, result.skeleton.edges,
        medial_axis=medial_axis, preserved_hole_count=holes,
    )
    return {
        "connected": quality.connected,
        "cycles": quality.cycle_count,
        "preserved_holes": quality.preserved_hole_count,
        "homotopy_ok": quality.homotopy_ok,
        "medialness": quality.mean_medialness,
        "coverage": quality.coverage,
    }


def run_fig1_pipeline(scale: float = 1.0, seed: int = 1,
                      cache=None, tracer=None) -> ExperimentReport:
    """Fig. 1 (a)–(h): pipeline stage accounting on the Window network."""
    scenario = get_scenario("window")
    network = _build(scenario, seed, scaled_nodes(scenario.num_nodes, scale),
                     cache=cache, tracer=tracer)
    result = _extract(network, cache=cache, tracer=tracer)
    report = ExperimentReport(
        "E-FIG1", "pipeline stages on the Window-shaped network (paper: "
        "2592 nodes, avg.deg 5.96)",
    )
    summary = result.stage_summary()
    for key, value in summary.items():
        report.add_row(stage_metric=key, value=value)
    report.add_note(
        f"final skeleton connected={result.skeleton.is_connected()}, "
        f"cycles={result.final_cycle_rank()}, "
        f"preserved holes={_holes(network, cache, tracer)}"
    )
    return report


def run_fig3_byproducts(scale: float = 1.0, seed: int = 1,
                        cache=None, tracer=None) -> ExperimentReport:
    """Fig. 3: segmentation and boundary by-products on the Window network."""
    scenario = get_scenario("window")
    network = _build(scenario, seed, scaled_nodes(scenario.num_nodes, scale),
                     cache=cache, tracer=tracer)
    result = _extract(network, cache=cache, tracer=tracer)
    report = ExperimentReport("E-FIG3", "by-products: segmentation + boundaries")
    segmentation = result.segmentation
    sizes = sorted(segmentation.sizes().values(), reverse=True)
    precision, recall = boundary_detection_quality(network, result.boundary_nodes)
    report.add_row(metric="segments", value=segmentation.num_segments)
    report.add_row(metric="segmented_nodes",
                   value=sum(sizes))
    report.add_row(metric="largest_segment", value=sizes[0] if sizes else 0)
    report.add_row(metric="smallest_segment", value=sizes[-1] if sizes else 0)
    report.add_row(metric="boundary_nodes", value=len(result.boundary_nodes))
    report.add_row(metric="boundary_precision", value=precision)
    report.add_row(metric="boundary_recall", value=recall)
    return report


def _fig4_task(config: Dict) -> Dict:
    """One Fig. 4 scenario, pure in its config — the unit of parallelism."""
    cache, tracer = task_context(config.get("cache_dir"))
    scenario = get_scenario(config["name"])
    network = _build(scenario, config["seed"],
                     scaled_nodes(scenario.num_nodes, config["scale"]),
                     cache=cache, tracer=tracer)
    result = _extract(network, cache=cache, tracer=tracer)
    medial = _medial(scenario, cache, tracer)
    grade = _grade(network, result, medial_axis=medial)
    return dict(
        scenario=config["name"],
        paper_ref=scenario.paper_ref,
        nodes=network.num_nodes,
        avg_degree=round(network.average_degree, 2),
        paper_degree=scenario.target_avg_degree,
        skeleton_nodes=len(result.skeleton.nodes),
        **grade,
    )


def run_fig4_scenarios(scale: float = 1.0, seed: int = 1,
                       names: Optional[List[str]] = None,
                       jobs: Optional[int] = None,
                       cache=None, tracer=None) -> ExperimentReport:
    """Fig. 4 (a)–(j): the ten evaluation scenarios.

    Scenarios are independent, so with ``jobs > 1`` (or ``REPRO_JOBS``)
    they fan out over the process pool; rows are merged in scenario-list
    order either way.
    """
    report = ExperimentReport(
        "E-FIG4", "skeleton extraction across the paper's ten scenarios",
    )
    configs = [
        {"name": name, "scale": scale, "seed": seed,
         "cache_dir": _cache_dir(cache)}
        for name in (names if names is not None else FIG4_NAMES)
    ]
    for row in _run_tasks(_fig4_task, configs, jobs, cache, tracer):
        report.add_row(**row)
    return report


def run_fig5_density(scale: float = 1.0, seed: int = 1,
                     cache=None, tracer=None) -> ExperimentReport:
    """Fig. 5: density sweep on the Window network.

    The paper varies the radio range to reach average degrees ≈ 9.95,
    14.24, 19.23 and 22.72 and reports stable skeletons; stability is
    measured against the lowest-density run.
    """
    scenario = get_scenario("window")
    n = scaled_nodes(scenario.num_nodes, scale)
    field = scenario.field()
    report = ExperimentReport("E-FIG5", "effect of node density (Window network)")
    medial = _medial(scenario, cache, tracer)
    reference = None
    for target in FIG5_DEGREES:
        radio = UnitDiskRadio(estimate_range_for_degree(field, n, target))
        network = _build(scenario, seed, n, radio=radio,
                         cache=cache, tracer=tracer)
        result = _extract(network, cache=cache, tracer=tracer)
        grade = _grade(network, result, medial_axis=medial)
        if reference is None:
            reference = (network, set(result.skeleton.nodes))
            stability = 0.0
        else:
            stability = skeleton_stability(
                reference[0], reference[1], network, result.skeleton.nodes
            ).mean_distance
        report.add_row(
            paper_degree=target,
            measured_degree=round(network.average_degree, 2),
            nodes=network.num_nodes,
            skeleton_nodes=len(result.skeleton.nodes),
            stability_vs_first=stability,
            **grade,
        )
    report.add_note("stability_vs_first: mean point-set distance to the "
                    "lowest-density skeleton (field units)")
    return report


def run_fig6_qudg(scale: float = 1.0, seed: int = 1,
                  names: Optional[List[str]] = None,
                  cache=None, tracer=None) -> ExperimentReport:
    """Fig. 6: robustness under the QUDG radio model (α=0.4, p=0.3)."""
    report = ExperimentReport("E-FIG6", "quasi-unit-disk radio (alpha=0.4, p=0.3)")
    for name in (names if names is not None else ("window", "star")):
        scenario = get_scenario(name)
        n = scaled_nodes(scenario.num_nodes, scale)
        field = scenario.field()
        medial = _medial(scenario, cache, tracer)
        for model in ("udg", "qudg"):
            if model == "udg":
                radio = UnitDiskRadio(
                    estimate_range_for_degree(field, n, scenario.target_avg_degree)
                )
            else:
                # Enlarge the range so the network stays connected overall,
                # as the paper does.
                base = estimate_range_for_degree(
                    field, n, scenario.target_avg_degree
                )
                radio = QuasiUnitDiskRadio(base * 1.5, alpha=0.4, p=0.3)
            network = _build(scenario, seed, n, radio=radio,
                             cache=cache, tracer=tracer)
            result = _extract(network, cache=cache, tracer=tracer)
            grade = _grade(network, result, medial_axis=medial)
            report.add_row(
                scenario=name, radio=model,
                nodes=network.num_nodes,
                avg_degree=round(network.average_degree, 2),
                skeleton_nodes=len(result.skeleton.nodes),
                **grade,
            )
    return report


def run_fig7_lognormal(scale: float = 1.0, seed: int = 1,
                       epsilons: Optional[List[float]] = None,
                       cache=None, tracer=None) -> ExperimentReport:
    """Fig. 7: log-normal shadowing radio, ε = σ/η ∈ {0, 1, 2, 3}."""
    scenario = get_scenario("window")
    n = scaled_nodes(scenario.num_nodes, scale)
    field = scenario.field()
    medial = _medial(scenario, cache, tracer)
    base_range = estimate_range_for_degree(field, n, FIG7_DEGREES[0])
    report = ExperimentReport(
        "E-FIG7", "log-normal radio on the Window network "
        "(paper degrees 5.19 / 6.92 / 11.54 / 20.69)",
    )
    degree_of = dict(zip(FIG7_EPSILONS, FIG7_DEGREES))
    for epsilon in (epsilons if epsilons is not None else FIG7_EPSILONS):
        paper_degree = degree_of.get(epsilon, 0.0)
        radio = LogNormalRadio(base_range, epsilon=epsilon)
        network = _build(scenario, seed, n, radio=radio,
                         cache=cache, tracer=tracer)
        result = _extract(network, cache=cache, tracer=tracer)
        grade = _grade(network, result, medial_axis=medial)
        report.add_row(
            epsilon=epsilon,
            paper_degree=paper_degree,
            measured_degree=round(network.average_degree, 2),
            skeleton_nodes=len(result.skeleton.nodes),
            **grade,
        )
    return report


def run_fig8_skewed(scale: float = 1.0, seed: int = 1,
                    names: Optional[List[str]] = None,
                    cache=None, tracer=None) -> ExperimentReport:
    """Fig. 8: skewed node distributions (Window and Star networks)."""
    report = ExperimentReport("E-FIG8", "skewed node distribution")
    for name, scenario in FIG8_SCENARIOS.items():
        if names is not None and name not in names:
            continue
        n = scaled_nodes(scenario.num_nodes, scale)
        network = _build(scenario, seed, n, cache=cache, tracer=tracer)
        result = _extract(network, cache=cache, tracer=tracer)
        medial = _medial(scenario, cache, tracer)
        grade = _grade(network, result, medial_axis=medial)
        report.add_row(
            scenario=name,
            paper_ref=scenario.paper_ref,
            nodes=network.num_nodes,
            avg_degree=round(network.average_degree, 2),
            skeleton_nodes=len(result.skeleton.nodes),
            **grade,
        )
    return report


def run_thm5_complexity(scale: float = 1.0, seed: int = 1,
                        sizes: Optional[List[int]] = None,
                        cache=None, tracer=None) -> ExperimentReport:
    """Theorem 5: message and round scaling of the distributed engine."""
    scenario = get_scenario("window")
    params = SkeletonParams()
    if sizes is None:
        base = scaled_nodes(scenario.num_nodes, scale)
        sizes = [max(200, base // 4), max(300, base // 2), base]
    report = ExperimentReport(
        "E-THM5", "Theorem 5: O((k+l+1)n) messages, O(sqrt(n)) rounds",
    )
    ns: List[float] = []
    broadcasts: List[float] = []
    rounds: List[float] = []
    for n in sizes:
        network = _build(scenario, seed, n, cache=cache, tracer=tracer)
        # Aggregate-only tracer: per-phase broadcast columns at counter cost.
        run_tracer = Tracer(record_events=False)
        outcome = run_distributed_stages(network, params, tracer=run_tracer)
        per_node = messages_per_node(outcome.stats.broadcasts, network.num_nodes)
        per_phase = run_tracer.metrics().phase_broadcasts()
        ns.append(network.num_nodes)
        broadcasts.append(outcome.stats.broadcasts)
        rounds.append(outcome.stats.rounds)
        report.add_row(
            nodes=network.num_nodes,
            broadcasts=outcome.stats.broadcasts,
            broadcasts_per_node=per_node,
            bound_k_plus_l_plus_1=params.k + params.l + 1,
            rounds=outcome.stats.rounds,
            critical_nodes=len(outcome.critical_nodes),
            bcast_nbr=per_phase.get("nbr", 0),
            bcast_size=per_phase.get("size", 0),
            bcast_index=per_phase.get("index", 0),
            bcast_site=per_phase.get("site", 0),
        )
    if len(ns) >= 2:
        msg_fit = fit_power_law(ns, broadcasts)
        round_fit = fit_power_law(ns, rounds)
        report.add_note(
            f"broadcasts ~ n^{msg_fit.exponent:.2f} (R²={msg_fit.r_squared:.3f}); "
            f"Theorem 5 predicts exponent 1"
        )
        report.add_note(
            f"rounds ~ n^{round_fit.exponent:.2f} (R²={round_fit.r_squared:.3f}); "
            f"Theorem 5 predicts exponent 0.5"
        )
    return report


def run_sec5b_parameters(scale: float = 1.0, seed: int = 1,
                         values: Optional[List[int]] = None,
                         cache=None, tracer=None) -> ExperimentReport:
    """Section V-B: sensitivity to the k and l parameters."""
    scenario = get_scenario("window")
    n = scaled_nodes(scenario.num_nodes, scale)
    network = _build(scenario, seed, n, cache=cache, tracer=tracer)
    medial = _medial(scenario, cache, tracer)
    holes = _holes(network, cache, tracer)
    report = ExperimentReport(
        "E-SEC5B", "parameter sensitivity: k = l in {2..6} (paper default 4)",
    )
    for value in (values if values is not None else [2, 3, 4, 5, 6]):
        params = SkeletonParams(k=value, l=value)
        result = _extract(network, params, cache=cache, tracer=tracer)
        grade = _grade(network, result, medial_axis=medial, holes=holes)
        report.add_row(
            k=value, l=value,
            critical_nodes=result.num_critical,
            fake_loops=len(result.loop_analysis.fake),
            skeleton_nodes=len(result.skeleton.nodes),
            **grade,
        )
    report.add_note("smaller k, l -> more critical nodes and more fake "
                    "loops, absorbed by the clean-up (paper §V-B)")
    return report


def run_baseline_comparison(scale: float = 1.0, seed: int = 1,
                            names: Optional[List[str]] = None,
                            cache=None, tracer=None) -> ExperimentReport:
    """E-BASE: proposed vs MAP and CASE, with true and detected boundaries."""
    report = ExperimentReport(
        "E-BASE", "proposed (boundary-free) vs MAP / CASE (boundary-fed)",
    )
    for name in (names if names is not None else ["window", "one_hole"]):
        scenario = get_scenario(name)
        network = _build(scenario, seed,
                         scaled_nodes(scenario.num_nodes, scale),
                         cache=cache, tracer=tracer)
        for row in compare_extractors(network):
            report.add_row(
                scenario=name,
                method=row.method,
                needs_boundaries=row.needs_boundary_input,
                skeleton_nodes=row.quality.num_nodes,
                connected=row.quality.connected,
                cycles=row.quality.cycle_count,
                homotopy_ok=row.quality.homotopy_ok,
                medialness=row.quality.mean_medialness,
                coverage=row.quality.coverage,
            )
    return report


def run_ablations(scale: float = 1.0, seed: int = 1,
                  cache=None, tracer=None) -> ExperimentReport:
    """E-ABL: design ablations called out in DESIGN.md.

    (a) index = (k-hop size + l-centrality)/2 vs raw k-hop size only
        (§II-C's claim that the combination suppresses noise);
    (b) loop strategies: BOUNDARY (default) vs VORONOI_WITNESS vs INTERIOR.
    """
    from ..core import LoopStrategy, compute_indices, find_critical_nodes
    from ..core.neighborhood import IndexData

    scenario = get_scenario("window")
    network = _build(scenario, seed, scaled_nodes(scenario.num_nodes, scale),
                     cache=cache, tracer=tracer)
    holes = _holes(network, cache, tracer)
    report = ExperimentReport("E-ABL", "design ablations (Window network)")

    # (a) identification signal.
    params = SkeletonParams()
    full_index = compute_indices(network, params, cache=cache, tracer=tracer)
    raw_only = IndexData(
        khop_sizes=full_index.khop_sizes,
        centrality=full_index.centrality,
        index=[float(s) for s in full_index.khop_sizes],
    )
    for label, data in (("index=(size+centrality)/2", full_index),
                        ("index=khop size only", raw_only)):
        critical = find_critical_nodes(network, data, params)
        report.add_row(ablation="identification", variant=label,
                       critical_nodes=len(critical))

    # (b) loop strategy.
    for strategy in (LoopStrategy.BOUNDARY, LoopStrategy.VORONOI_WITNESS,
                     LoopStrategy.INTERIOR):
        result = _extract(network, SkeletonParams(loop_strategy=strategy),
                          cache=cache, tracer=tracer)
        report.add_row(
            ablation="loop_strategy", variant=strategy.value,
            cycles=result.final_cycle_rank(),
            preserved_holes=holes,
            homotopy_ok=result.final_cycle_rank() == holes,
            connected=result.skeleton.is_connected(),
        )
    return report
