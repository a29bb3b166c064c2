"""Chaos drills for supervised serving batches.

Two self-checking modes over
:meth:`~repro.serving.SkeletonService.submit_batch`::

    python -m repro.resilience --mode recover   # corrupt + kill, recover
    python -m repro.resilience --mode exhaust   # exhaust one task's budget

``recover`` warms an on-disk artifact cache with one batch, corrupts one
cached result, and serves the batch again with the batch task that
recomputes that result killed on its first attempt.  Every response must
be bit-identical to a direct extraction, with the retry and quarantine
counters proving both faults fired.  ``exhaust`` kills one batch task on
every attempt: exactly that network's requests must come back
``"failed"`` with :class:`~repro.resilience.InjectedWorkerCrash`, the
rest ``"ok"`` and bit-identical, and the batch call must not raise.

Exit status 0 when the drill's assertions hold, 1 when they do not —
wired into CI as the ``chaos-smoke`` job.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from ..core import SkeletonParams, extract_skeleton
from ..core.equivalence import diff_results
from ..network import get_scenario
from ..observability import Tracer, build_metrics
from ..perf import ArtifactCache, effective_jobs
from ..serving import RESULT_STAGE, ServiceConfig, SkeletonService
from . import ExecutorFaultPlan, SupervisorPolicy, corrupt_cache_entries

#: Supervision stage name of :meth:`SkeletonService.submit_batch` tasks.
BATCH_STAGE = "serve:batch"

#: Distinct networks per drill batch; the first is requested twice, so
#: batch dedup is exercised and the victim key carries two requests.
BATCH_NETWORKS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Deterministic chaos drills for supervised serving "
                    "batches.",
    )
    parser.add_argument("--mode", choices=("recover", "exhaust"),
                        default="recover",
                        help="recover: corrupt+kill then assert bit-identity; "
                             "exhaust: kill one task on every attempt and "
                             "assert only its requests fail (default: "
                             "recover)")
    parser.add_argument("--scenario", default="window")
    parser.add_argument("--nodes", type=int, default=None,
                        help="node-count override")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or serial)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="supervision attempt budget (default: 3)")
    return parser


def _check_served(responses, direct: Dict[str, object],
                  skip_key: Optional[str] = None) -> List[str]:
    """Problems with the ``ok`` responses: every key but *skip_key* must
    be served, bit-identical to its direct extraction."""
    problems = []
    for response in responses:
        if response.content_key == skip_key:
            continue
        if not response.ok:
            problems.append(f"request {response.request_id} came back "
                            f"{response.status}: {response.error}")
            continue
        diverged = diff_results(direct[response.content_key],
                                response.artifact)
        if diverged:
            problems.append(f"request {response.request_id} diverged "
                            f"from direct extraction: {diverged[0]}")
    return problems


def _report(problems: List[str], success: str) -> int:
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(success)
    return 0


def _drill_recover(service_for, items, direct) -> int:
    chaos_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        service_for(None, ArtifactCache(disk_dir=chaos_dir)).submit_batch(
            items, kind="result")
        victims = corrupt_cache_entries(chaos_dir, RESULT_STAGE, limit=1)
        print(f"corrupted {len(victims)} cached result(s): {victims}")

        # The rotten result is the batch's only cache miss, so the one
        # task that recomputes it is task 0.
        plan = ExecutorFaultPlan(kill_tasks={(BATCH_STAGE, 0): 1})
        tracer = Tracer(record_events=False)
        service = service_for(plan, ArtifactCache(disk_dir=chaos_dir),
                              tracer)
        responses = service.submit_batch(items, kind="result")
        stats = service.stats()
        retries = stats.supervision.get(BATCH_STAGE, {}).get("retries", 0)
        quarantined = build_metrics(tracer).total_quarantined
        print(f"supervision: {stats.supervision}")
        print(f"retries={retries} quarantined={quarantined} "
              f"computed={stats.computed}")

        problems = _check_served(responses, direct)
        if retries != 1:
            problems.append(f"expected exactly 1 {BATCH_STAGE} retry, "
                            f"got {retries}")
        if quarantined < 1:
            problems.append("the corrupted result was never quarantined")
        if stats.computed != 1:
            problems.append(f"expected only the corrupted result to be "
                            f"recomputed, computed={stats.computed}")
        return _report(problems,
                       "recover drill: corrupt result quarantined, its "
                       "killed batch task retried, every response "
                       "bit-identical")
    finally:
        shutil.rmtree(chaos_dir, ignore_errors=True)


def _drill_exhaust(service_for, items, direct, policy) -> int:
    # A cold service computes every key; task 0 is the batch's first key.
    plan = ExecutorFaultPlan(
        kill_tasks={(BATCH_STAGE, 0): policy.max_attempts})
    service = service_for(plan, None)
    try:
        responses = service.submit_batch(items, kind="result")
    except Exception as exc:  # noqa: BLE001 - the drill's own assertion
        print(f"FAIL: submit_batch raised {type(exc).__name__}: {exc}")
        return 1
    stats = service.stats()
    counters = stats.supervision.get(BATCH_STAGE, {})
    print(f"supervision: {stats.supervision}")
    print(f"statuses: {[r.status for r in responses]}")

    victim = service.content_key(items[0])
    problems = _check_served(responses, direct, skip_key=victim)
    lost = [r for r in responses if r.content_key == victim]
    expected = sum(1 for item in items if item is items[0])
    if len(lost) != expected:
        problems.append(f"expected {expected} requests on the killed key, "
                        f"got {len(lost)}")
    for response in lost:
        if response.status != "failed" \
                or "InjectedWorkerCrash" not in (response.error or ""):
            problems.append(f"request {response.request_id} on the killed "
                            f"key came back {response.status}: "
                            f"{response.error}")
    if counters.get("failures") != 1:
        problems.append(f"expected exactly 1 {BATCH_STAGE} failure, "
                        f"got {counters.get('failures')}")
    if counters.get("retries") != policy.max_attempts - 1:
        problems.append(f"expected {policy.max_attempts - 1} retries, "
                        f"got {counters.get('retries')}")
    return _report(problems,
                   f"exhaust drill: {len(lost)} request(s) on the killed "
                   f"key failed after {policy.max_attempts} attempts, "
                   f"{len(responses) - len(lost)} served bit-identical")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        effective_jobs(args.jobs)
        policy = SupervisorPolicy(max_attempts=args.max_attempts,
                                  backoff_base=0.001)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario = get_scenario(args.scenario)
    networks = [scenario.build(seed=args.seed + i, num_nodes=args.nodes)
                for i in range(BATCH_NETWORKS)]
    items = networks + networks[:1]
    params = SkeletonParams()

    def service_for(plan, cache, tracer=None) -> SkeletonService:
        config = ServiceConfig(jobs=args.jobs, supervisor=policy,
                               fault_plan=plan)
        return SkeletonService(config, cache=cache, tracer=tracer)

    direct = {SkeletonService().content_key(net, params):
              extract_skeleton(net, params) for net in networks}
    print(f"chaos drill mode={args.mode} scenario={args.scenario} "
          f"networks={len(networks)} requests={len(items)} "
          f"n={[net.num_nodes for net in networks]} "
          f"max_attempts={args.max_attempts}")
    if args.mode == "recover":
        return _drill_recover(service_for, items, direct)
    return _drill_exhaust(service_for, items, direct, policy)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
