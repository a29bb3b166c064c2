"""The observability layer: tracer hooks, metrics, queries, export, purity.

Covers the subsystem's own contracts — event recording across all three
fabrics, causal chains, per-phase metrics in both recording modes, Chrome
trace-event export shape, the CLI — plus the two properties the rest of
the repo depends on: tracing is observationally pure (bit-identical
results and stats with and without a tracer), and the shutdown invariant
checks actually catch corrupted accounting.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core import (
    SkeletonParams,
    extract_skeleton,
    extract_skeleton_distributed,
    run_distributed_stages,
)
from repro.observability import (
    MetricsReport,
    TraceQuery,
    Tracer,
    build_metrics,
    chrome_trace,
    percentile,
    write_chrome_trace,
)
from repro.runtime import (
    AsyncScheduler,
    ConvergenceReport,
    FaultPlan,
    LatencyModel,
    RetryPolicy,
    RunStats,
    SynchronousScheduler,
)
from repro.viz import render_trace_summary
from tests.conftest import PingOnce, build_test_network


@pytest.fixture(scope="module")
def small_network():
    return build_test_network("rectangle", 150, 6.0, seed=5)


@pytest.fixture(scope="module")
def traced_run(small_network):
    tracer = Tracer()
    outcome = run_distributed_stages(small_network, tracer=tracer)
    return tracer, outcome


class TestTracerEvents:
    def test_sends_match_stats_broadcasts(self, traced_run):
        tracer, outcome = traced_run
        sends = [e for e in tracer.events if e.kind == "send"]
        assert len(sends) == outcome.stats.broadcasts

    def test_deliveries_match_stats_receptions(self, traced_run):
        tracer, outcome = traced_run
        delivers = [e for e in tracer.events if e.kind == "deliver"]
        assert len(delivers) == outcome.stats.receptions

    def test_event_seq_strictly_increasing(self, traced_run):
        tracer, _ = traced_run
        seqs = [e.seq for e in tracer.events]
        assert seqs == sorted(set(seqs))

    def test_times_monotone_nondecreasing(self, traced_run):
        tracer, _ = traced_run
        times = [e.time for e in tracer.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_phases_are_the_protocol_kinds(self, traced_run):
        tracer, _ = traced_run
        assert tracer.phase_names() == ["nbr", "size", "index", "site"]

    def test_site_windows_cover_elected_sites(self, traced_run):
        tracer, outcome = traced_run
        assert set(tracer.site_windows) == set(outcome.critical_nodes)
        for first, last in tracer.site_windows.values():
            assert first <= last

    def test_single_protocol_run(self, small_network):
        tracer = Tracer()
        stats = SynchronousScheduler(small_network, PingOnce,
                                     tracer=tracer).run()
        assert [e for e in tracer.events if e.kind == "send"]
        assert tracer.phase_names() == ["ping"]
        assert stats.broadcasts == sum(
            1 for e in tracer.events if e.kind == "send"
        )


class TestCausality:
    def test_round_zero_sends_have_no_parent(self, traced_run):
        tracer, _ = traced_run
        first_round = [e for e in tracer.events
                       if e.kind == "send" and e.time == 1.0]
        assert first_round
        assert all(e.parent is None for e in first_round)

    def test_site_waves_chain_back_to_a_site(self, traced_run):
        tracer, outcome = traced_run
        query = tracer.query()
        sites = set(outcome.critical_nodes)
        chained = [e for e in query.of_kind("send")
                   if e.phase == "site" and e.parent is not None]
        assert chained
        for event in chained[-5:]:
            chain = query.causal_chain(event)
            assert chain[-1] is event
            assert chain[0].parent is None
            assert chain[0].node in sites
            # Each hop of the chain was queued while handling the previous
            # broadcast's delivery, so times never decrease.
            times = [e.time for e in chain]
            assert times == sorted(times)

    def test_causal_chain_accepts_msg_id(self, traced_run):
        tracer, _ = traced_run
        query = tracer.query()
        event = next(e for e in query.of_kind("send") if e.parent is not None)
        assert query.causal_chain(event.msg_id) == query.causal_chain(event)


class TestTraceQuery:
    def test_events_between_bounds(self, traced_run):
        tracer, _ = traced_run
        query = tracer.query()
        window = query.events_between(2.0, 4.0)
        assert window
        assert all(2.0 <= e.time <= 4.0 for e in window)

    def test_messages_by_phase_matches_stats(self, traced_run):
        tracer, outcome = traced_run
        by_phase = tracer.query().messages_by_phase()
        assert sum(by_phase.values()) == outcome.stats.broadcasts

    def test_sends_by_node_respects_budgets(self, traced_run):
        tracer, _ = traced_run
        params = SkeletonParams()
        per_node = tracer.query().sends_by_node(phase="nbr")
        assert per_node
        assert max(per_node.values()) <= params.k

    def test_deliveries_of_tracks_one_message(self, traced_run):
        tracer, _ = traced_run
        query = tracer.query()
        send = next(iter(query.of_kind("send")))
        delivers = query.deliveries_of(send.msg_id)
        assert delivers
        assert all(e.msg_id == send.msg_id for e in delivers)
        assert query.send_of(send.msg_id) is send

    def test_metrics_only_tracer_refuses_queries(self, small_network):
        tracer = Tracer(record_events=False)
        run_distributed_stages(small_network, tracer=tracer)
        assert tracer.events == []
        with pytest.raises(ValueError, match="record_events=False"):
            tracer.query()


class TestMetrics:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.9) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_report_totals_match_stats(self, traced_run):
        tracer, outcome = traced_run
        report = tracer.metrics()
        assert isinstance(report, MetricsReport)
        assert report.total_broadcasts == outcome.stats.broadcasts
        assert report.total_corrections == outcome.stats.corrections
        assert report.total_retries == outcome.stats.retries
        assert report.total_drops == outcome.stats.drops

    def test_per_phase_budgets(self, traced_run):
        tracer, outcome = traced_run
        params = SkeletonParams()
        by_phase = tracer.metrics().by_phase()
        n = outcome.network.num_nodes
        assert by_phase["nbr"].broadcasts <= params.k * n
        assert by_phase["size"].broadcasts <= params.l * n
        assert by_phase["site"].broadcasts <= n
        assert by_phase["site"].max_node_sends <= 1

    def test_phase_windows_ordered(self, traced_run):
        tracer, _ = traced_run
        report = tracer.metrics()
        by_phase = report.by_phase()
        assert by_phase["nbr"].first_time < by_phase["site"].first_time
        for phase in report.phases:
            assert phase.first_time <= phase.last_time
            assert phase.latency_p50 <= phase.latency_p90 <= phase.latency_max

    def test_both_recording_modes_agree(self, small_network):
        full = Tracer()
        lean = Tracer(record_events=False)
        run_distributed_stages(small_network, tracer=full)
        run_distributed_stages(small_network, tracer=lean)
        assert build_metrics(full) == build_metrics(lean)

    def test_amplification_is_one_without_faults(self, traced_run):
        tracer, _ = traced_run
        report = tracer.metrics()
        assert report.retry_amplification == pytest.approx(1.0)


class TestFaultyFabricEvents:
    def test_drop_retry_and_ack_events(self, small_network):
        tracer = Tracer()
        outcome = run_distributed_stages(
            small_network, tracer=tracer,
            fault_plan=FaultPlan(seed=23, drop_probability=0.15),
            retry_policy=RetryPolicy(max_retries=3),
        )
        kinds = {e.kind for e in tracer.events}
        assert {"send", "deliver", "drop", "retry"} <= kinds
        stats = outcome.stats
        query = tracer.query()
        assert len(query.of_kind("retry")) == stats.retries
        assert sum(
            (e.extra or {}).get("count", 1) for e in query.of_kind("drop")
        ) == stats.drops
        assert len(query.of_kind("ack_drop")) == stats.acks_dropped
        assert len(query.of_kind("redundant")) == stats.redundant_deliveries

    def test_crash_and_recover_transitions(self, small_network):
        from repro.runtime import CrashWindow

        plan = FaultPlan(seed=3, crashes={4: CrashWindow(start=2, end=6)})
        tracer = Tracer()
        run_distributed_stages(small_network, tracer=tracer, fault_plan=plan,
                               deadline_action="return_partial")
        crash = [e for e in tracer.events if e.kind == "crash"]
        recover = [e for e in tracer.events if e.kind == "recover"]
        assert len(crash) == 1 and crash[0].node == 4
        assert len(recover) == 1 and recover[0].node == 4
        assert crash[0].time < recover[0].time
        assert tracer.crashes == 1 and tracer.recoveries == 1


class TestAsyncFabricEvents:
    def test_timer_events_and_deliveries(self, small_network):
        tracer = Tracer()
        outcome = run_distributed_stages(
            small_network, scheduler="async",
            latency=LatencyModel.uniform_jitter(0.4, seed=7), tracer=tracer,
        )
        assert tracer.timer_fires == outcome.stats.convergence.timer_fires
        assert [e for e in tracer.events if e.kind == "timer"]
        sends = [e for e in tracer.events
                 if e.kind in ("send", "correction")]
        assert len(sends) == (outcome.stats.broadcasts
                              + outcome.stats.corrections)

    def test_zero_jitter_matches_sync_phase_counts(self, small_network):
        sync_tracer = Tracer(record_events=False)
        async_tracer = Tracer(record_events=False)
        run_distributed_stages(small_network, tracer=sync_tracer)
        run_distributed_stages(small_network, scheduler="async",
                               tracer=async_tracer)
        assert (sync_tracer.metrics().phase_broadcasts()
                == async_tracer.metrics().phase_broadcasts())


class TestSpans:
    def test_pipeline_spans_cover_all_stages(self, small_network):
        tracer = Tracer()
        extract_skeleton(small_network, tracer=tracer)
        stage_names = [s.name for s in tracer.spans
                       if s.category == "pipeline"]
        assert stage_names == ["stage1:identification", "stage2:voronoi",
                               "stage3:coarse", "stage4:refine"]
        # The traversal engine reports its kernel timings too.
        kernel_names = {s.name for s in tracer.spans
                        if s.category == "traversal"}
        assert "traversal:khop_stats" in kernel_names
        assert all(s.clock == "wall" and s.duration >= 0
                   for s in tracer.spans)

    def test_distributed_spans(self, small_network):
        tracer = Tracer()
        extract_skeleton_distributed(small_network, tracer=tracer)
        stages = [s.name for s in tracer.spans if s.category == "pipeline"]
        assert stages == ["stages1-2:distributed", "stage3:coarse",
                          "stage4:refine"]
        # Stages 3-4 are the monolithic tail, traced the same way.
        names = {s.name for s in tracer.spans}
        assert {"loops:rings", "traversal:reconstruct_paths"} <= names

    def test_derived_spans_one_per_phase_and_site(self, traced_run):
        tracer, outcome = traced_run
        derived = tracer.derived_spans()
        phase_spans = [s for s in derived if s.category == "phase"]
        flood_spans = [s for s in derived if s.category == "flood"]
        assert len(phase_spans) == 4
        assert len(flood_spans) == len(outcome.critical_nodes)
        assert all(s.clock == "virtual" for s in derived)


class TestChromeExport:
    def test_export_shape(self, traced_run, tmp_path):
        tracer, _ = traced_run
        doc = chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phs
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(tracer.events)
        assert all(e["pid"] == 1 for e in instants)
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        assert json.loads(path.read_text()) == doc

    def test_virtual_times_scaled_to_microseconds(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer, virtual_time_scale=1000.0)
        first_send = next(e for e in doc["traceEvents"]
                          if e["ph"] == "i" and e["name"].startswith("send:"))
        assert first_send["ts"] == 1000.0  # round 1 in milliseconds-as-us


class TestPurity:
    @pytest.mark.parametrize("fabric", ["sync", "lossy", "async"])
    def test_results_bit_identical_with_and_without_tracer(
        self, small_network, fabric
    ):
        kwargs = {}
        if fabric == "lossy":
            kwargs = dict(fault_plan=FaultPlan(seed=23, drop_probability=0.2),
                          retry_policy=RetryPolicy(max_retries=3))
        elif fabric == "async":
            kwargs = dict(scheduler="async",
                          latency=LatencyModel.uniform_jitter(0.5, seed=11))
        plain = extract_skeleton_distributed(small_network, **kwargs)
        traced = extract_skeleton_distributed(
            small_network, tracer=Tracer(), **kwargs
        )
        assert traced.skeleton.nodes == plain.skeleton.nodes
        assert traced.skeleton.edges == plain.skeleton.edges
        assert traced.critical_nodes == plain.critical_nodes
        assert traced.run_stats == plain.run_stats


class TestInvariantChecks:
    def test_clean_stats_pass(self, traced_run):
        _, outcome = traced_run
        outcome.stats.check_invariants()

    def test_negative_counter_raises(self):
        stats = RunStats()
        stats.broadcasts = -1
        with pytest.raises(RuntimeError, match="negative"):
            stats.check_invariants()

    def test_per_round_drift_raises(self):
        stats = RunStats()
        stats.start_round()
        stats.record_broadcast(0, 3)
        stats.broadcasts_per_round[-1] += 1
        with pytest.raises(RuntimeError, match="per-round"):
            stats.check_invariants()

    def test_per_node_drift_raises(self):
        stats = RunStats()
        stats.start_round()
        stats.record_broadcast(0, 3)
        stats.broadcasts_per_node[0] += 1
        with pytest.raises(RuntimeError, match="per-node"):
            stats.check_invariants()

    def test_convergence_overcount_raises(self):
        report = ConvergenceReport(events=1, deliveries=2)
        with pytest.raises(RuntimeError, match="deliveries"):
            report.check_invariants()

    def test_schedulers_run_the_checks(self, small_network):
        scheduler = SynchronousScheduler(small_network, PingOnce)
        scheduler.stats.broadcasts_per_round.append(7)
        with pytest.raises(RuntimeError):
            scheduler.run()
        async_scheduler = AsyncScheduler(small_network, PingOnce)
        async_scheduler.stats.broadcasts_per_round.append(7)
        with pytest.raises(RuntimeError):
            async_scheduler.run()


class TestCliAndRendering:
    def test_summary_renders_every_phase(self, traced_run):
        tracer, _ = traced_run
        text = render_trace_summary(tracer.metrics())
        for phase in ("nbr", "size", "index", "site"):
            assert phase in text
        assert "total:" in text

    def test_cli_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = cli_main([
            "trace", "--scenario", "window", "--nodes", "150", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "phase" in printed and "skeleton:" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_cli_rejects_out_without_events(self, capsys):
        assert cli_main(["trace", "--no-events", "--out", "x.json"]) == 2
        assert "nothing to write" in capsys.readouterr().err

    def test_query_standalone(self):
        query = TraceQuery([])
        assert query.events_between(0, 10) == []
        assert query.messages_by_phase() == {}


class TestCacheCounters:
    """Artifact-cache traffic and stage timings surface in MetricsReport."""

    def test_on_cache_counts_in_both_recording_modes(self):
        for record_events in (True, False):
            tracer = Tracer(record_events=record_events)
            tracer.on_cache("indices", hit=False)
            tracer.on_cache("indices", hit=True)
            tracer.on_cache("voronoi", hit=True)
            report = build_metrics(tracer)
            assert report.cache_misses == {"indices": 1}
            assert report.cache_hits == {"indices": 1, "voronoi": 1}
            assert report.cache_hit_rate == pytest.approx(2 / 3)

    def test_cached_extraction_reports_hits(self, small_network):
        from repro.perf import ArtifactCache

        cache = ArtifactCache()
        extract_skeleton(small_network, cache=cache)  # cold: populate
        tracer = Tracer(record_events=False)
        extract_skeleton(small_network, cache=cache, tracer=tracer)
        report = build_metrics(tracer)
        assert report.cache_hits.get("indices") == 1
        assert report.cache_hits.get("voronoi") == 1
        assert report.total_cache_misses == 0
        assert report.cache_hit_rate == 1.0

    def test_stage_timings_cover_pipeline_and_kernels(self, small_network):
        tracer = Tracer(record_events=False)
        extract_skeleton(small_network, tracer=tracer)
        timings = build_metrics(tracer).stage_timings
        for stage in ("stage1:identification", "stage2:voronoi",
                      "stage3:coarse", "stage4:refine"):
            assert timings[stage] >= 0.0
        assert "traversal:khop_stats" in timings

    def test_stage_timings_split_stage4_ring_enumeration(self, small_network):
        tracer = Tracer(record_events=False)
        extract_skeleton(small_network, tracer=tracer)
        spans = [s for s in tracer.spans if s.name == "loops:rings"]
        assert spans and all(s.category == "loops" for s in spans)
        timings = build_metrics(tracer).stage_timings
        assert 0.0 <= timings["loops:rings"] <= timings["stage4:refine"]

    def test_stage_timings_excluded_from_report_equality(self, small_network):
        reports = []
        for _ in range(2):
            tracer = Tracer(record_events=False)
            extract_skeleton(small_network, tracer=tracer)
            reports.append(build_metrics(tracer))
        # Wall times differ run to run; the reports must still compare
        # equal — report equality is the determinism contract.
        assert reports[0] == reports[1]
