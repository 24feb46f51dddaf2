"""E12 — fleet-scale store tier: the backends race at 1,000 pipelines.

The store-backend seam (:mod:`repro.orchestrator.backends`) exists for
exactly one scale: a catalog large enough that per-pipeline store traffic
— verdict records, fingerprint probes, L3 query entries — would dominate
a JSON one-file-per-entry layout.  This bench certifies a 1,000-pipeline
catalog (:func:`repro.workloads.store_scale_catalog`: every pipeline a
distinct fingerprint, all of them built from six shared element
configurations, so Step 1 stays six jobs) twice per backend — cold, then
a warm delta re-certification — and checks the claims the store tier is
sold on:

* **differential** — both backends produce identical verdicts and
  identical hit/miss/put statistics on every tier; the backend changes
  where bytes live, never what the orchestrator sees;
* **store I/O costs what its entries cost** — on the cold run, each
  store operation (a hit, miss or put on any tier) costs at most twice
  one raw write plus one raw read on the same backend, measured by the
  microbenchmark below in the same run (both backends).  This bounds the
  store tier by something verification speed does not move;
* **store does not dominate** — on the cold run, SQLite store I/O stays
  under the time spent actually verifying;
* **batched beats per-file when warm** — SQLite's warm store I/O beats
  JSON's by >= 3x at full scale (>= 1.5x in quick mode, where the
  catalog is too small to amortize the constant costs);
* **delta mode at scale** — the warm run reuses every one of the 1,000
  verdicts and performs zero symbolic executions, on both backends.

A raw entry-traffic microbenchmark (N writes + N reads through a
:class:`QueryStore` on each backend) rides along in the JSON output so
the per-entry costs are visible separately from the end-to-end run.

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
BACKENDS = ("json", "sqlite")
#: Warm store-I/O advantage the SQLite backend must keep over JSON files.
WARM_IO_FLOOR = 1.5 if QUICK else 3.0
#: Raw microbenchmark entry count.
RAW_ENTRIES = 400 if QUICK else 2000
#: Cold store I/O per store operation may cost at most this many raw
#: per-entry write-plus-read costs on the same backend.
IO_PER_OP_CEILING = 2.0


def _open_stores(root, backend):
    return (
        SummaryStore(os.path.join(root, "summaries"), backend=backend),
        VerdictStore(os.path.join(root, "verdicts"), backend=backend),
        QueryStore(os.path.join(root, "queries"), backend=backend),
    )


def _store_io(*stores):
    return sum(store.statistics.io_seconds for store in stores)


def _tier_counters(*stores):
    """The backend-independent store traffic: hits/misses/puts per tier.

    ``io_seconds`` (the thing the backends differ on), ``bytes_written``
    (layout overhead differs) and ``busy_retries`` (SQLite-only) are
    deliberately excluded — everything left must match across backends.
    """
    return [
        {
            "hits": store.statistics.hits,
            "misses": store.statistics.misses,
            "puts": store.statistics.puts,
            "quarantined": store.statistics.quarantined,
        }
        for store in stores
    ]


def run_backend(backend):
    """Cold + warm certification of the catalog on one backend."""
    with tempfile.TemporaryDirectory(prefix=f"repro-bench-store-{backend}-") as root:
        cold_stores = _open_stores(root, backend)
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
        warm_stores = _open_stores(root, backend)
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
        warm_io = _store_io(*warm_stores)

        verify_seconds = sum(
            result.statistics.elapsed_seconds
            for certification in cold.certifications
            for result in certification.results
        )
        return {
            "backend": backend,
            "verdicts": cold.verdicts(),
            "cold_counters": _tier_counters(*cold_stores),
            "cold": {
                "seconds": cold_seconds,
                "store_io_seconds": cold_io,
                "store_fraction": cold_io / max(cold_seconds, 1e-9),
                "verify_seconds": verify_seconds,
                "summaries_computed": cold.statistics.summaries_computed,
                "distinct_summary_jobs": cold.statistics.distinct_summary_jobs,
                "certified": len(cold.certified),
                "rejected": len(cold.rejected),
            },
            "warm": {
                "seconds": warm_seconds,
                "store_io_seconds": warm_io,
                "verdicts_reused": warm.statistics.verdicts_reused,
                "summaries_computed": warm.statistics.summaries_computed,
            },
        }


def _store_ops(counters):
    """Store operations behind a run's I/O: hits, misses and puts over every tier."""
    return sum(tier["hits"] + tier["misses"] + tier["puts"] for tier in counters)


def run_raw_traffic(backend):
    """Raw per-entry store traffic: N payload writes, then N reads back."""
    payload = {"verdict": "unsat", "core": list(range(24)), "v": 1}
    with tempfile.TemporaryDirectory(prefix=f"repro-bench-raw-{backend}-") as root:
        store = QueryStore(root, backend=backend)
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


def run_comparison():
    return {backend: run_backend(backend) for backend in BACKENDS}


def test_store_scale(benchmark, bench_json):
    runs = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    raw = {backend: run_raw_traffic(backend) for backend in BACKENDS}

    json_run, sqlite_run = runs["json"], runs["sqlite"]
    io_per_op_ratio = {}
    for backend in BACKENDS:
        io_per_op = runs[backend]["cold"]["store_io_seconds"] / max(
            _store_ops(runs[backend]["cold_counters"]), 1
        )
        raw_per_entry = (
            raw[backend]["write_seconds"] + raw[backend]["read_seconds"]
        ) / RAW_ENTRIES
        io_per_op_ratio[backend] = io_per_op / max(raw_per_entry, 1e-12)
    warm_io_ratio = json_run["warm"]["store_io_seconds"] / max(
        sqlite_run["warm"]["store_io_seconds"], 1e-9
    )
    warm_wall_ratio = json_run["warm"]["seconds"] / max(
        sqlite_run["warm"]["seconds"], 1e-9
    )

    print(f"\n--- E12: store scale ({CATALOG_SIZE} pipelines, "
          f"{DISTINCT_JOBS} distinct Step-1 jobs) ---")
    print(f"{'backend':>8} | {'cold (s)':>9} | {'cold io':>8} | {'io frac':>7} | "
          f"{'warm (s)':>9} | {'warm io':>8}")
    for backend in BACKENDS:
        run = runs[backend]
        print(f"{backend:>8} | {run['cold']['seconds']:>9.2f} | "
              f"{run['cold']['store_io_seconds']:>8.3f} | "
              f"{run['cold']['store_fraction']:>7.1%} | "
              f"{run['warm']['seconds']:>9.2f} | "
              f"{run['warm']['store_io_seconds']:>8.3f}")
    print(f"warm store-io ratio json/sqlite: {warm_io_ratio:.2f}x "
          f"(wall {warm_wall_ratio:.2f}x)")
    print("cold io per store op / raw write+read per entry: "
          + ", ".join(f"{backend} {io_per_op_ratio[backend]:.2f}" for backend in BACKENDS)
          + f" (ceiling {IO_PER_OP_CEILING:.1f})")

    bench_json(
        "store_scale",
        {
            "catalog_size": CATALOG_SIZE,
            "json": {key: json_run[key] for key in ("cold", "warm")},
            "sqlite": {key: sqlite_run[key] for key in ("cold", "warm")},
            "warm_store_io_ratio": warm_io_ratio,
            "warm_wall_ratio": warm_wall_ratio,
            "cold_io_per_op_ratio": io_per_op_ratio,
            "raw": raw,
        },
    )

    # Differential: the backend changes where bytes live, never verdicts
    # or tier traffic.  Every pipeline certifies identically, and the
    # hit/miss/put counters agree tier by tier.
    assert sqlite_run["verdicts"] == json_run["verdicts"]
    assert sqlite_run["cold_counters"] == json_run["cold_counters"]

    for backend in BACKENDS:
        run = runs[backend]
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
        # Cold store I/O costs what its entries cost on this backend: each
        # store operation stays within a small multiple of one raw write
        # plus one raw read.  Verification speed does not move either side.
        assert io_per_op_ratio[backend] <= IO_PER_OP_CEILING, (
            f"{backend}: cold store I/O per operation is {io_per_op_ratio[backend]:.2f}x "
            f"the raw per-entry write+read cost (ceiling {IO_PER_OP_CEILING:.1f}x)"
        )

    # The batched backend's store tier must not dominate the cold run: its
    # I/O stays under the non-store (symbex + composition + solver) time.
    non_store = sqlite_run["cold"]["seconds"] - sqlite_run["cold"]["store_io_seconds"]
    assert sqlite_run["cold"]["store_io_seconds"] < non_store, (
        f"sqlite: store I/O {sqlite_run['cold']['store_io_seconds']:.3f}s dominates "
        f"the cold run ({sqlite_run['cold']['seconds']:.3f}s total)"
    )

    # The point of the batched backend: warm fleet re-certification store
    # traffic is >= 3x cheaper than per-file JSON (>= 1.5x in quick mode).
    assert warm_io_ratio >= WARM_IO_FLOOR, (
        f"sqlite warm store I/O only {warm_io_ratio:.2f}x faster than json "
        f"(need >= {WARM_IO_FLOOR}x)"
    )
