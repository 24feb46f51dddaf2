"""E11 — change-impact re-certification: work proportional to the diff.

The continuous-verification claim: after PR 2's warm summary store made
the *unchanged-catalog* case free, this bench measures the realistic case
— one routing-table change in a warm N-pipeline catalog — and checks the
three claims that matter:

* **only the impacted pipeline re-verifies** — the delta run performs
  exactly one Step-1 symbolic execution (the changed lookup element) and
  exactly the solver checks of the impacted pipeline alone: zero symbex
  and zero solver checks for the N-1 unimpacted pipelines;
* **delta verdicts == cold full pass** — reusing verdict records never
  changes an answer;
* **the delta run is proportionally faster** than re-certifying the
  whole catalog cold.

Set ``REPRO_BENCH_QUICK=1`` for a CI-smoke-sized run.
"""

import gc
import os
import tempfile

from repro.orchestrator import (
    DELTA_REUSED,
    FRESH,
    SummaryStore,
    VerdictStore,
    certify_fleet,
    recertify,
)
from repro.verify import CrashFreedom, destination_reachability
from repro.workloads import churned_fleet_catalog, fleet_catalog

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

CATALOG_SIZE = 8 if QUICK else 10
INPUT_LENGTHS = (24,)
MUTATION = "routes"  # one router's forwarding-table contents change


def _properties():
    if QUICK:
        return [CrashFreedom()]
    return [
        CrashFreedom(),
        destination_reachability(
            0x0A000001, exempt_elements={"check_ip", "gw_check", "dec_ttl", "lookup"}
        ),
    ]


def run_change_impact():
    with tempfile.TemporaryDirectory(prefix="repro-bench-impact-") as root:
        summary_store = SummaryStore(os.path.join(root, "summaries"))
        verdict_store = VerdictStore(os.path.join(root, "verdicts"))
        # Each timed phase starts from a full collection, so a gen-2 pass
        # over everything the process holds (~30 ms here) is not charged
        # to whichever phase happens to cross the collector's threshold:
        # against a delta run of a few milliseconds it swamped the ratio.
        gc.collect()
        cold = recertify(
            fleet_catalog(CATALOG_SIZE),
            _properties(),
            input_lengths=INPUT_LENGTHS,
            store=summary_store,
            verdict_store=verdict_store,
        )
        mutated = churned_fleet_catalog(CATALOG_SIZE, MUTATION)
        gc.collect()
        delta = recertify(
            mutated,
            _properties(),
            baseline=cold.manifest,
            input_lengths=INPUT_LENGTHS,
            store=summary_store,
            verdict_store=verdict_store,
        )
        # The impacted pipeline alone, against the same warm summary store:
        # the work floor a perfect delta run cannot go below.
        impacted_name = delta.impact.impacted[0].name
        solo = certify_fleet(
            [p for p in churned_fleet_catalog(CATALOG_SIZE, MUTATION) if p.name == impacted_name],
            _properties(),
            input_lengths=INPUT_LENGTHS,
            store=summary_store,
        )
    # A cold full pass over the mutated catalog (fresh everything): the
    # answer key the delta run must reproduce.
    full = certify_fleet(
        churned_fleet_catalog(CATALOG_SIZE, MUTATION), _properties(), input_lengths=INPUT_LENGTHS
    )
    return cold, delta, solo, full


def test_change_impact(benchmark, bench_json):
    cold, delta, solo, full = benchmark.pedantic(run_change_impact, rounds=1, iterations=1)

    reused = sum(1 for c in delta.report.certifications if c.provenance == DELTA_REUSED)
    fresh = sum(1 for c in delta.report.certifications if c.provenance == FRESH)
    unimpacted_solver_checks = (
        delta.report.statistics.solver_checks - solo.statistics.solver_checks
    )
    speedup = cold.report.statistics.elapsed_seconds / max(
        delta.report.statistics.elapsed_seconds, 1e-9
    )

    print(f"\n--- E11: change impact ({CATALOG_SIZE} pipelines, {MUTATION} mutation, "
          f"{len(_properties())} properties) ---")
    print(f"{'mode':>12} | {'time (s)':>9} | {'symbex':>6} | {'solver':>6} | {'reused':>6}")
    for label, report in (("cold", cold.report), ("delta", delta.report)):
        stats = report.statistics
        print(f"{label:>12} | {stats.elapsed_seconds:>9.3f} | {stats.summaries_computed:>6} | "
              f"{stats.solver_checks:>6} | {stats.verdicts_reused:>6}")
    print(f"{'speedup':>12} | {speedup:>8.2f}x")

    bench_json(
        "change_impact",
        {
            "catalog_size": CATALOG_SIZE,
            "mutation": MUTATION,
            "cold_seconds": cold.report.statistics.elapsed_seconds,
            "delta_seconds": delta.report.statistics.elapsed_seconds,
            "speedup_delta_vs_cold": speedup,
            "reused_pipelines": reused,
            "fresh_pipelines": fresh,
            "delta_summaries_computed": delta.report.statistics.summaries_computed,
            "delta_solver_checks": delta.report.statistics.solver_checks,
            "unimpacted_solver_checks": unimpacted_solver_checks,
            "verdicts_match_full_pass": int(delta.report.verdicts() == full.verdicts()),
        },
    )

    # (a) Exactly one pipeline is impacted; everything else reuses its record.
    assert fresh == 1 and reused == CATALOG_SIZE - 1

    # The unimpacted pipelines cost zero symbolic executions and zero
    # solver checks: the delta run's only Step-1 computation is the changed
    # lookup element, and its solver work equals the impacted pipeline's own.
    assert delta.report.statistics.summaries_computed == 1
    assert unimpacted_solver_checks == 0

    # (b) Delta-mode verdicts are identical to a cold full pass.
    assert delta.report.verdicts() == full.verdicts()

    # (c) Re-certification is proportional to the diff, not the fleet.
    assert speedup > 1.5, f"delta run only {speedup:.2f}x faster than cold"
