"""E12 — fleet-scale store tier: 1,000 pipelines on the SQLite store.

The store tier exists for exactly one scale: a catalog large enough that
per-pipeline store traffic — verdict records, fingerprint probes, L3
query entries — could dominate the run.  This bench certifies a
1,000-pipeline catalog (:func:`repro.workloads.store_scale_catalog`:
every pipeline a distinct fingerprint, all of them built from six shared
element configurations, so Step 1 stays six jobs) twice — cold, then a
warm delta re-certification over freshly opened stores — and checks the
claims the store tier is sold on:

* **store I/O costs what its entries cost** — on the cold run and on the
  warm run, each store operation (a hit, miss or put on any tier) costs
  at most twice one raw write plus one raw read, measured by the
  microbenchmark below in the same run.  This bounds the store tier by
  something verification speed does not move;
* **store does not dominate** — on the cold run, store I/O stays under
  the time spent actually verifying;
* **delta mode at scale** — the warm run reuses every one of the 1,000
  verdicts and performs zero symbolic executions.

A raw entry-traffic microbenchmark (N writes + N reads through a
:class:`QueryStore`) rides along in the JSON output so the per-entry
costs are visible separately from the end-to-end run.

Set ``REPRO_BENCH_QUICK=1`` for a CI-smoke-sized run.
"""

import os
import tempfile

from repro.obs.trace import clock
from repro.orchestrator import QueryStore, SummaryStore, VerdictStore, certify_fleet
from repro.verify import CrashFreedom
from repro.workloads import store_scale_catalog

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

CATALOG_SIZE = 150 if QUICK else 1000
INPUT_LENGTHS = (24,)
#: The catalog is chains over six shared element configurations, so a
#: cold run at any catalog size performs exactly six symbolic executions.
DISTINCT_JOBS = 6
#: Raw microbenchmark entry count.
RAW_ENTRIES = 400 if QUICK else 2000
#: Store I/O per store operation may cost at most this many raw
#: per-entry write-plus-read costs, on the cold and on the warm run.
IO_PER_OP_CEILING = 2.0


def _open_stores(root):
    return (
        SummaryStore(os.path.join(root, "summaries")),
        VerdictStore(os.path.join(root, "verdicts")),
        QueryStore(os.path.join(root, "queries")),
    )


def _store_io(*stores):
    return sum(store.statistics.io_seconds for store in stores)


def _store_ops(*stores):
    """Store operations behind a run's I/O: hits, misses and puts over every tier."""
    return sum(
        store.statistics.hits + store.statistics.misses + store.statistics.puts
        for store in stores
    )


def run_catalog():
    """Cold + warm certification of the catalog."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        cold_stores = _open_stores(root)
        started = clock()
        cold = certify_fleet(
            store_scale_catalog(CATALOG_SIZE),
            [CrashFreedom()],
            input_lengths=INPUT_LENGTHS,
            store=cold_stores[0],
            verdict_store=cold_stores[1],
            query_store=cold_stores[2],
        )
        cold_seconds = clock() - started
        cold_io = _store_io(*cold_stores)
        for store in cold_stores:
            store.close()

        # Fresh store objects over the same roots: the warm run pays real
        # (re)open and read costs, exactly like a new CI job or operator
        # invocation would.
        warm_stores = _open_stores(root)
        started = clock()
        warm = certify_fleet(
            store_scale_catalog(CATALOG_SIZE),
            [CrashFreedom()],
            input_lengths=INPUT_LENGTHS,
            store=warm_stores[0],
            verdict_store=warm_stores[1],
            query_store=warm_stores[2],
        )
        warm_seconds = clock() - started

        verify_seconds = sum(
            result.statistics.elapsed_seconds
            for certification in cold.certifications
            for result in certification.results
        )
        return {
            "cold": {
                "seconds": cold_seconds,
                "store_io_seconds": cold_io,
                "store_ops": _store_ops(*cold_stores),
                "store_fraction": cold_io / max(cold_seconds, 1e-9),
                "verify_seconds": verify_seconds,
                "summaries_computed": cold.statistics.summaries_computed,
                "distinct_summary_jobs": cold.statistics.distinct_summary_jobs,
                "certified": len(cold.certified),
                "rejected": len(cold.rejected),
            },
            "warm": {
                "seconds": warm_seconds,
                "store_io_seconds": _store_io(*warm_stores),
                "store_ops": _store_ops(*warm_stores),
                "verdicts_reused": warm.statistics.verdicts_reused,
                "summaries_computed": warm.statistics.summaries_computed,
            },
        }


def run_raw_traffic():
    """Raw per-entry store traffic: N payload writes, then N reads back."""
    payload = {"verdict": "unsat", "core": list(range(24)), "v": 1}
    with tempfile.TemporaryDirectory(prefix="repro-bench-raw-") as root:
        store = QueryStore(root)
        started = clock()
        for index in range(RAW_ENTRIES):
            store.save_payload(f"{index:064x}", payload)
        store.flush()
        write_seconds = clock() - started
        started = clock()
        for index in range(RAW_ENTRIES):
            assert store.load_payload(f"{index:064x}") is not None
        store.flush()
        read_seconds = clock() - started
        store.close()
    return {"write_seconds": write_seconds, "read_seconds": read_seconds}


def test_store_scale(benchmark, bench_json):
    run = benchmark.pedantic(run_catalog, rounds=1, iterations=1)
    raw = run_raw_traffic()

    raw_per_entry = (raw["write_seconds"] + raw["read_seconds"]) / RAW_ENTRIES
    io_per_op_ratio = {
        phase: run[phase]["store_io_seconds"]
        / max(run[phase]["store_ops"], 1)
        / max(raw_per_entry, 1e-12)
        for phase in ("cold", "warm")
    }

    print(f"\n--- E12: store scale ({CATALOG_SIZE} pipelines, "
          f"{DISTINCT_JOBS} distinct Step-1 jobs) ---")
    print(f"{'phase':>6} | {'wall (s)':>9} | {'store io':>8} | {'ops':>6} | {'io/op ratio':>11}")
    for phase in ("cold", "warm"):
        print(f"{phase:>6} | {run[phase]['seconds']:>9.2f} | "
              f"{run[phase]['store_io_seconds']:>8.3f} | {run[phase]['store_ops']:>6} | "
              f"{io_per_op_ratio[phase]:>11.2f}")
    print(f"io per store op / raw write+read per entry: ceiling {IO_PER_OP_CEILING:.1f}; "
          f"cold store fraction {run['cold']['store_fraction']:.1%}")

    bench_json(
        "store_scale",
        {
            "catalog_size": CATALOG_SIZE,
            "cold": run["cold"],
            "warm": run["warm"],
            "io_per_op_ratio": io_per_op_ratio,
            "raw": raw,
        },
    )

    # The catalog shares six element configurations across the whole
    # fleet: a cold run symbolically executes exactly those.
    assert run["cold"]["distinct_summary_jobs"] == DISTINCT_JOBS
    assert run["cold"]["summaries_computed"] == DISTINCT_JOBS
    assert run["cold"]["certified"] == CATALOG_SIZE
    assert run["cold"]["rejected"] == 0
    # Delta mode at scale: the warm run serves every verdict from the
    # store and re-executes nothing.
    assert run["warm"]["verdicts_reused"] == CATALOG_SIZE
    assert run["warm"]["summaries_computed"] == 0
    # Store I/O costs what its entries cost: each store operation stays
    # within a small multiple of one raw write plus one raw read, cold
    # and warm.  Verification speed does not move either side.
    for phase in ("cold", "warm"):
        assert io_per_op_ratio[phase] <= IO_PER_OP_CEILING, (
            f"{phase} store I/O per operation is {io_per_op_ratio[phase]:.2f}x "
            f"the raw per-entry write+read cost (ceiling {IO_PER_OP_CEILING:.1f}x)"
        )

    # The store tier must not dominate the cold run: its I/O stays under
    # the non-store (symbex + composition + solver) time.
    non_store = run["cold"]["seconds"] - run["cold"]["store_io_seconds"]
    assert run["cold"]["store_io_seconds"] < non_store, (
        f"store I/O {run['cold']['store_io_seconds']:.3f}s dominates "
        f"the cold run ({run['cold']['seconds']:.3f}s total)"
    )
