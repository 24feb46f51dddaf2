"""E12 — the query-optimization layer: slicing + tiered query caching.

Certifies the 8-pipeline fleet catalog cold and then warm, and checks
the claims the layer is built on:

* **few SAT calls** — independence slicing plus the three-tier
  verdict/model cache keep the cold run's CDCL searches at the count the
  baseline pins (44 in quick mode, within 15%).  The layer is the only
  solve path, so the pin, not a ratio against a disabled mode, is what
  guards it;
* **warm L3** — re-certifying the unchanged catalog against a warm
  summary store *and* query store performs zero symbolic executions and
  **zero SAT-core calls**: every solver question is answered from the
  persistent tier, the solver-level analogue of the zero-symbex warm
  path;
* **verdict stability** — both runs certify the same pipelines.

The counters are deterministic for the fixed catalog (serial runs, no
randomness in the solver), so the baseline pins them tightly.  Set
``REPRO_BENCH_QUICK=1`` for the CI-smoke-sized run (same catalog, single
property — the quick numbers are the pinned ones).
"""

import os
import tempfile

from repro.orchestrator import QueryStore, SummaryStore, certify_fleet
from repro.verify import CrashFreedom, destination_reachability
from repro.workloads import fleet_catalog

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The tentpole claim is stated for the 8-pipeline fleet catalog.
CATALOG_SIZE = 8
INPUT_LENGTHS = (24,)


def _properties():
    if QUICK:
        return [CrashFreedom()]
    return [
        CrashFreedom(),
        destination_reachability(
            0x0A000001, exempt_elements={"check_ip", "gw_check", "dec_ttl", "lookup"}
        ),
    ]


def run_query_cache_comparison():
    with tempfile.TemporaryDirectory(prefix="repro-bench-qcache-") as root:
        optimized = certify_fleet(
            fleet_catalog(CATALOG_SIZE),
            _properties(),
            input_lengths=INPUT_LENGTHS,
            store=SummaryStore(os.path.join(root, "summaries")),
            query_store=QueryStore(os.path.join(root, "queries")),
        )
        warm = certify_fleet(
            fleet_catalog(CATALOG_SIZE),
            _properties(),
            input_lengths=INPUT_LENGTHS,
            store=SummaryStore(os.path.join(root, "summaries")),
            query_store=QueryStore(os.path.join(root, "queries")),
        )
    return optimized, warm


def test_query_cache(benchmark, bench_json):
    optimized, warm = benchmark.pedantic(run_query_cache_comparison, rounds=1, iterations=1)

    print(f"\n--- E12: query-optimization layer ({CATALOG_SIZE} pipelines, "
          f"{len(_properties())} properties) ---")
    print(f"{'mode':>16} | {'SAT-core calls':>14} | {'qcache hits':>11} | {'time (s)':>8}")
    for label, report in (("cold", optimized), ("warm L3", warm)):
        stats = report.statistics
        print(f"{label:>16} | {stats.sat_core_calls:>14} | "
              f"{stats.qcache_hits:>11} | {stats.elapsed_seconds:>8.2f}")

    bench_json(
        "query_cache",
        {
            "catalog_size": CATALOG_SIZE,
            "properties": len(_properties()),
            "optimized_sat_core_calls": optimized.statistics.sat_core_calls,
            "optimized_qcache_hits": optimized.statistics.qcache_hits,
            "warm_sat_core_calls": warm.statistics.sat_core_calls,
            "warm_summaries_computed": warm.statistics.summaries_computed,
            "verdicts_match": int(optimized.verdicts() == warm.verdicts()),
            "optimized_seconds": optimized.statistics.elapsed_seconds,
            "warm_seconds": warm.statistics.elapsed_seconds,
        },
    )

    # Answering from the persistent tier may never change what is proved.
    assert warm.verdicts() == optimized.verdicts()

    # Warm L3: zero symbolic execution and zero SAT-core calls, matching
    # the summary store's 0-symbex warm path one layer down.
    assert warm.statistics.summaries_computed == 0
    assert warm.statistics.sat_core_calls == 0
