"""E13 — the persistent fleet scheduler against the in-process loop.

The scheduler (:mod:`repro.orchestrator.scheduler`) is sold on five
claims, and this bench checks each one:

* **differential** — the scheduled run's verdicts and Step-1 work are
  identical to the in-process (``workers=1``) loop's on the full
  catalog; the scheduler reorders work, it never changes it.  Checked
  unconditionally.
* **placement by cost** — on this catalog no pipeline has a suspect
  segment, so every Step-2 task runs in the parent and the pool runs the
  six Step-1 jobs only (``tasks_dispatched == 6``,
  ``tasks_inline == N``).
* **one pool, no churn** — exactly one pool is forked per run
  (``pools_forked == 1``) and workers stay busy: parent-measured idle
  time stays under 20% of the pool's worker-lifetime.  A pool that runs
  six tiny Step-1 jobs mostly idles by design, so both are measured on
  the same catalog with every Step-2 task placed in the pool (the
  scheduler's ``has_suspect`` seam answering yes), where every task is
  dispatched exactly once.  The idle bound is
  asserted on hosts with >= 4 CPUs (elsewhere the workers time-slice one
  core and "idle" measures the kernel scheduler, not ours).
* **overlap** — on the straggler catalog (one deliberately heavy Step-1
  element in front of quick pipelines) some Step-2 verification *starts*
  before the last Step-1 summary *ends*; asserted on hosts with >= 2
  CPUs.
* **risk first** — with a seeded high-churn/violation history, a
  risk-ranked run reaches the risky pipeline's verdict before >= 90% of
  the unchanged catalog.  Single-worker dispatch is deterministic, so
  this is asserted everywhere and pinned exactly in the baseline.

Wall-clock times are reported but not pinned in the committed baseline:
they measure the host, not the code.

Set ``REPRO_BENCH_QUICK=1`` for a CI-smoke-sized run.
"""

import os
import tempfile

from repro.obs.trace import Tracer, active, clock
from repro.orchestrator import scheduler as scheduler_module
from repro.orchestrator import (
    RiskHistory,
    RiskStore,
    SummaryStore,
    certify_fleet,
    run_scheduled,
)
from repro.orchestrator.scheduler import SUMMARY, VERIFY
from repro.symbex.engine import SymbexOptions
from repro.verify import CrashFreedom
from repro.workloads import store_scale_catalog, straggler_catalog

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
CPUS = os.cpu_count() or 1

CATALOG_SIZE = 150 if QUICK else 1000
INPUT_LENGTHS = (24,)
#: The catalog is chains over six shared element configurations, so a
#: cold run at any catalog size performs exactly six symbolic executions.
DISTINCT_JOBS = 6
WORKERS = max(2, min(4, CPUS))
RISK_CATALOG_SIZE = 30 if QUICK else 100
STRAGGLER_PIPELINES = 6
#: 2^branches Step-1 paths for the heavy element — sized to dominate the
#: quick pipelines without brushing the default 4096-path budget.
STRAGGLER_BRANCHES = 9 if QUICK else 11
#: Ceiling on parent-measured worker idle time per worker-lifetime.
IDLE_FRACTION_CEILING = 0.20
#: The risky pipeline must land before this share of the bulk catalog.
RISK_PREEMPTION_FLOOR = 0.90


def _statistics_row(report):
    return {
        "certified": len(report.certified),
        "rejected": len(report.rejected),
        "distinct_summary_jobs": report.statistics.distinct_summary_jobs,
        "summaries_computed": report.statistics.summaries_computed,
        "solver_checks": report.statistics.solver_checks,
    }


def run_serial():
    started = clock()
    report = certify_fleet(
        store_scale_catalog(CATALOG_SIZE), [CrashFreedom()], input_lengths=INPUT_LENGTHS
    )
    return {"seconds": clock() - started, "report": report}


def run_scheduler():
    """The scheduler, driven directly so the fleet CPU clamp cannot shrink it.

    Run it under a patched ``scheduler.has_suspect`` to place every task
    in the pool.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-sched-") as root:
        catalog = store_scale_catalog(CATALOG_SIZE)
        started = clock()
        run = run_scheduled(
            catalog,
            [CrashFreedom()],
            INPUT_LENGTHS,
            SymbexOptions(),
            workers=WORKERS,
            store=SummaryStore(root),
        )
        seconds = clock() - started
    verdicts = [
        (catalog[index].name, result.property_name, result.verdict)
        for index in sorted(run.step2)
        for result in run.step2[index][0].results
    ]
    stats = run.statistics
    lifetime = max(stats.pool_lifetime_seconds * stats.workers, 1e-9)
    return {
        "seconds": seconds,
        "verdicts": verdicts,
        "pipelines": len(run.step2),
        "distinct_summary_jobs": len(run.summaries),
        "summaries_computed": run.computed,
        "tasks_dispatched": stats.tasks_dispatched,
        "tasks_inline": stats.tasks_inline,
        "pools_forked": stats.pools_forked,
        "workers_spawned": stats.workers_spawned,
        "workers_crashed": stats.workers_crashed,
        "max_queue_depth": stats.max_queue_depth,
        "worker_idle_seconds": stats.worker_idle_seconds,
        "worker_busy_seconds": stats.worker_busy_seconds,
        "idle_fraction": stats.worker_idle_seconds / lifetime,
    }


def run_straggler_overlap():
    """Step-2 spans must start while the heavy Step-1 summary still runs."""
    catalog = straggler_catalog(
        STRAGGLER_PIPELINES, straggler_branches=STRAGGLER_BRANCHES
    )
    options = SymbexOptions(trace=True)
    with tempfile.TemporaryDirectory(prefix="repro-bench-straggle-") as root:
        with active(Tracer()) as t:
            run = run_scheduled(
                catalog,
                [CrashFreedom()],
                (64,),
                options,
                workers=2,
                store=SummaryStore(root),
            )
            spans = [s for s in t.spans() if s.name == "scheduler.task"]
    assert len(run.step2) == len(catalog)
    summaries = [s for s in spans if s.args.get("kind") == SUMMARY]
    verifies = [s for s in spans if s.args.get("kind") == VERIFY]
    last_summary_end = max(s.end for s in summaries)
    first_verify_start = min(s.start for s in verifies)
    return {
        "summary_tasks": len(summaries),
        "verify_tasks": len(verifies),
        "overlap_seconds": last_summary_end - first_verify_start,
        "overlapped": first_verify_start < last_summary_end,
    }


def run_risk_priority():
    """A seeded risky pipeline's verdict must preempt the bulk catalog."""
    catalog = store_scale_catalog(RISK_CATALOG_SIZE)
    risky_index = RISK_CATALOG_SIZE - 1  # worst case: last in catalog order
    with tempfile.TemporaryDirectory(prefix="repro-bench-risk-") as root:
        history = RiskHistory(RiskStore(os.path.join(root, "risk")))
        history.seed(catalog[risky_index].name, churn=5, violations=1)
        # One worker: dispatch follows the priority heap deterministically.
        run = run_scheduled(
            catalog,
            [CrashFreedom()],
            INPUT_LENGTHS,
            SymbexOptions(),
            workers=1,
            store=SummaryStore(os.path.join(root, "store")),
            risk_history=history,
        )
    position = run.verify_order.index(risky_index)
    others = len(catalog) - 1
    return {
        "risky_position": position,
        "preempted_fraction": (others - position) / others,
    }


def test_scheduler(benchmark, bench_json, monkeypatch):
    serial = benchmark.pedantic(run_serial, rounds=1, iterations=1)
    scheduled = run_scheduler()
    with monkeypatch.context() as patch:
        patch.setattr(scheduler_module, "has_suspect", lambda *args: True)
        pooled = run_scheduler()
    overlap = run_straggler_overlap()
    risk = run_risk_priority()

    # Differential: verdicts and Step-1 work identical across both engines
    # and both placements.
    for run in (scheduled, pooled):
        assert run["verdicts"] == serial["report"].verdicts()
        assert run["distinct_summary_jobs"] == DISTINCT_JOBS
        assert run["summaries_computed"] == serial["report"].statistics.summaries_computed
        assert run["pools_forked"] == 1
        assert run["workers_crashed"] == 0
    # Placement: the pool runs the Step-1 jobs, the parent every Step 2.
    assert scheduled["tasks_dispatched"] == DISTINCT_JOBS
    assert scheduled["tasks_inline"] == CATALOG_SIZE
    # One pool, exact task accounting: with every task placed in the pool,
    # every Step-1 job and every pipeline dispatched exactly once on a
    # crash-free cold run.
    assert pooled["tasks_dispatched"] == DISTINCT_JOBS + CATALOG_SIZE
    assert pooled["tasks_inline"] == 0
    # Risk preemption is deterministic (single worker) — assert everywhere.
    assert risk["preempted_fraction"] >= RISK_PREEMPTION_FLOOR

    if CPUS >= 2:
        assert overlap["overlapped"], (
            "no Step-2 task started before the last Step-1 summary ended"
        )
    if CPUS >= 4:
        assert pooled["idle_fraction"] < IDLE_FRACTION_CEILING, (
            f"workers idled {pooled['idle_fraction']:.1%} of the pool lifetime"
        )

    print(f"\n--- E13: fleet scheduler ({CATALOG_SIZE} pipelines, "
          f"{WORKERS} workers, {CPUS} cpus) ---")
    print(f"{'path':>10} | {'wall (s)':>9}")
    for label, row in (("serial", serial), ("scheduler", scheduled), ("pooled", pooled)):
        print(f"{label:>10} | {row['seconds']:>9.2f}")
    print(f"idle fraction (pooled): {pooled['idle_fraction']:.1%}  "
          f"overlap: {overlap['overlapped']} "
          f"({overlap['overlap_seconds']:.3f}s)  "
          f"risk preemption: {risk['preempted_fraction']:.1%}")

    bench_json(
        "scheduler",
        {
            "catalog_size": CATALOG_SIZE,
            "workers": WORKERS,
            "cpus": CPUS,
            "serial": {"seconds": serial["seconds"],
                       **_statistics_row(serial["report"])},
            "scheduler": {
                key: value for key, value in scheduled.items() if key != "verdicts"
            },
            "pooled": {key: value for key, value in pooled.items() if key != "verdicts"},
            "overlap": overlap,
            "risk": risk,
        },
    )
