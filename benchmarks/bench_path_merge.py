"""Path-merging symbolic execution: ite-lifted joins + batched slice solving.

Three claims, measured on the branch-heavy synthetic catalog and the
standard fleet catalog:

* **explosion rescue** — with ``merge=off`` the branch-heavy pipeline
  blows a 2^k path budget and degrades to ``unknown``; ``conservative``
  merging keeps the frontier at one state per join and certifies the
  same pipeline under the identical budget;
* **path/work ratio** — on the fleet catalog, conservative merging
  explores >= 3x fewer Step-1 paths and issues no more SAT-core calls
  than ``off``, with verdict parity;
* **batched slice solving** — variable-disjoint slices of one query are
  solved in a single arena: strictly fewer encode sweeps than slices
  solved, with shared-subterm blast-cache hits.

A copy-on-write fork-cost microbench rides along: ``SymbolicPacket.copy``
shares pages instead of duplicating the byte list, so forking a large
packet is O(pages-touched), not O(length).

Set ``REPRO_BENCH_QUICK=1`` for the CI-smoke-sized run (fewer branches,
smaller catalog — the quick numbers are the pinned ones).
"""

import os
import time

from repro.orchestrator import certify_fleet
from repro.symbex import SymbexOptions, SymbolicEngine, SymbolicPacket
from repro.verify import CrashFreedom, Verdict
from repro.workloads import fleet_catalog, synthetic_pipeline

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Branch count of the explosion pipeline: merge=off forks 2^k paths,
#: which overflows a 2^(k-1) budget at the final branch; conservative
#: merging keeps the frontier at one state and certifies under the same
#: budget (4096 paths in full mode).
EXPLOSION_BRANCHES = 9 if QUICK else 13
EXPLOSION_BUDGET = 2 ** (EXPLOSION_BRANCHES - 1)
CATALOG_SIZE = 8
INPUT_LENGTHS = (24,)

#: Acceptance floor: Step-1 paths explored must drop by this factor on
#: the fleet catalog when conservative merging is enabled.
PATHS_RATIO_FLOOR = 3.0


def _catalog():
    """The branch-heavy fleet: the standard catalog plus pipelines whose
    elements fork hard on packet bytes.  The routers/gateways keep the
    differential honest (their forks mostly diverge in control outcome
    and barely merge); the branchy members are where joins pay off."""
    heavies = [
        synthetic_pipeline(3, 5, name=f"heavy-{index}") for index in range(4)
    ]
    return fleet_catalog(CATALOG_SIZE) + heavies


def _certify(merge):
    return certify_fleet(
        _catalog(),
        [CrashFreedom()],
        input_lengths=INPUT_LENGTHS,
        options=SymbexOptions(merge=merge),
    )


def _explosion_run(merge):
    pipeline = synthetic_pipeline(
        elements=1, branches_per_element=EXPLOSION_BRANCHES, name="branch-heavy"
    )
    options = SymbexOptions(merge=merge, max_paths=EXPLOSION_BUDGET)
    return certify_fleet(
        [pipeline], [CrashFreedom()], input_lengths=(24,), options=options
    )


def _summarize_sliced(merge):
    """Summarize an element whose feasibility queries slice and reach the
    core (header validation: mixed SAT/UNSAT over disjoint byte groups),
    returning (summary, checker)."""
    from repro.dataplane.elements import CheckIPHeader

    engine = SymbolicEngine(SymbexOptions(merge=merge))
    element = CheckIPHeader(name="check_ip")
    summary = engine.summarize_element(
        element.program,
        24,
        tables=element.state.tables(),
        element_name=element.name,
    )
    return summary, engine.checker


def _arena_microbench(slices=5):
    """One composed query whose constraints arrive together — the Step-2
    shape the arena is built for: ``slices`` variable-disjoint masked-byte
    constraints (interval quick check cannot decide bit-masks) all miss
    the cache at once, so the batch hook encodes the whole set in one
    sweep and runs one assumption solve per slice."""
    from repro import smt
    from repro.smt.qcache import build_query_cache

    checker = smt.AssumptionChecker(query_cache=build_query_cache())
    constraints = [
        smt.intern_term(smt.simplify((smt.BitVec(f"in_b{i}", 64) & 0x7) == 0x5))
        for i in range(slices)
    ]
    status, _ = checker.check(constraints)
    assert status == smt.CheckResult.SAT
    return checker


def _fork_cost_microbench(length=1500, forks=2000):
    """CPU seconds to fork (and dirty one byte of) a packet of ``length``.

    ``paged`` measures the copy-on-write :meth:`SymbolicPacket.copy`;
    ``flat`` rebuilds the packet from its materialized byte list — the
    cost the pre-COW representation paid on every fork.
    """
    packet = SymbolicPacket.fresh(length)
    probe = packet.byte(0)
    clock = time.process_time

    started = clock()
    for _ in range(forks):
        child = packet.copy()
        child.set_byte(0, probe)
    paged_seconds = clock() - started

    started = clock()
    for _ in range(forks):
        child = SymbolicPacket(list(packet.bytes))
        child.set_byte(0, probe)
    flat_seconds = clock() - started
    return paged_seconds, flat_seconds


def run_path_merge():
    exploded = _explosion_run("off")
    rescued = _explosion_run("conservative")
    off = _certify("off")
    conservative = _certify("conservative")
    _summary, checker = _summarize_sliced("off")
    arena = _arena_microbench()
    fork_paged, fork_flat = _fork_cost_microbench()
    return (exploded, rescued, off, conservative, checker,
            arena, fork_paged, fork_flat)


def test_path_merge(benchmark, bench_json):
    (exploded, rescued, off, conservative, checker,
     arena, fork_paged, fork_flat) = benchmark.pedantic(
        run_path_merge, rounds=1, iterations=1
    )
    # Encode sweeps and blast-cache hits are the context's own counters;
    # slices solved (no cache tier answered them) are the query cache's.
    checker_stats, arena_stats = checker.statistics, arena.statistics
    checker_slices = checker.query_cache.statistics.solved
    arena_slices = arena.query_cache.statistics.solved

    paths_ratio = off.statistics.paths_explored / max(
        conservative.statistics.paths_explored, 1
    )
    sat_ratio = off.statistics.sat_core_calls / max(
        conservative.statistics.sat_core_calls, 1
    )
    fork_speedup = fork_flat / max(fork_paged, 1e-9)

    print(f"\n--- path merging ({CATALOG_SIZE} pipelines, "
          f"branch-heavy budget {EXPLOSION_BUDGET}) ---")
    print(f"{'mode':>14} | {'paths':>7} | {'merged':>6} | {'SAT calls':>9} | "
          f"{'seconds':>7}")
    for label, report in (("off", off), ("conservative", conservative)):
        stats = report.statistics
        print(f"{label:>14} | {stats.paths_explored:>7} | {stats.paths_merged:>6} | "
              f"{stats.sat_core_calls:>9} | {stats.elapsed_seconds:>7.2f}")
    print(f"paths ratio {paths_ratio:.1f}x (floor {PATHS_RATIO_FLOOR:.1f}x), "
          f"SAT-core ratio {sat_ratio:.1f}x")
    print(f"branch-heavy: off -> {exploded.verdicts()[0][2]}, "
          f"conservative -> {rescued.verdicts()[0][2]}")
    print(f"element run: {checker_slices} slices solved, "
          f"{checker_stats.encode_passes} encode passes, "
          f"{checker_stats.blast_cache_hits} blast-cache hits")
    print(f"slice arena: {arena_slices} slices solved in "
          f"{arena_stats.encode_passes} encode pass, "
          f"{arena_stats.blast_cache_hits} blast-cache hits")
    print(f"fork cost ({2000} forks of 1500 bytes): paged {fork_paged:.3f}s "
          f"vs flat {fork_flat:.3f}s ({fork_speedup:.1f}x)")

    bench_json(
        "path_merge",
        {
            "catalog_size": CATALOG_SIZE,
            "explosion_branches": EXPLOSION_BRANCHES,
            "explosion_budget": EXPLOSION_BUDGET,
            "off_explodes": int(exploded.verdicts()[0][2] == Verdict.UNKNOWN),
            "conservative_certifies": int(
                rescued.verdicts()[0][2] == Verdict.PROVED
            ),
            "off_paths_explored": off.statistics.paths_explored,
            "conservative_paths_explored": conservative.statistics.paths_explored,
            "paths_ratio": paths_ratio,
            "off_sat_core_calls": off.statistics.sat_core_calls,
            "conservative_sat_core_calls": conservative.statistics.sat_core_calls,
            "sat_core_ratio": sat_ratio,
            "paths_merged": conservative.statistics.paths_merged,
            "ites_introduced": conservative.statistics.ites_introduced,
            "verdicts_match": int(off.verdicts() == conservative.verdicts()),
            "element_slices_solved": checker_slices,
            "element_encode_passes": checker_stats.encode_passes,
            "element_blast_cache_hits": checker_stats.blast_cache_hits,
            "arena_slices_solved": arena_slices,
            "arena_encode_passes": arena_stats.encode_passes,
            "arena_blast_cache_hits": arena_stats.blast_cache_hits,
            "fork_paged_seconds": fork_paged,
            "fork_flat_seconds": fork_flat,
            "fork_speedup": fork_speedup,
        },
    )

    # The rescue: off blows the budget, conservative certifies under it.
    assert exploded.verdicts()[0][2] == Verdict.UNKNOWN
    assert rescued.verdicts()[0][2] == Verdict.PROVED

    # Merging is an optimization, never a semantic change.
    assert off.verdicts() == conservative.verdicts()

    assert paths_ratio >= PATHS_RATIO_FLOOR, (
        f"conservative merging only cut Step-1 paths by {paths_ratio:.2f}x "
        f"({off.statistics.paths_explored} -> "
        f"{conservative.statistics.paths_explored})"
    )
    assert conservative.statistics.sat_core_calls <= off.statistics.sat_core_calls

    # Batched slice solving: one arena, shared bit-blasting.  An encode
    # sweep covers a whole batch, so sweeps stay below slices solved; the
    # uid-keyed blast cache shows shared subterms encoding only once.
    # The microbench isolates the designed case (all slices fresh at
    # once); the element run shows it also fires on the DFS workload.
    assert arena_slices > 1
    assert arena_stats.encode_passes == 1, (
        f"{arena_stats.encode_passes} encode passes for "
        f"{arena_slices} fresh slices — the arena is not batching"
    )
    assert arena_stats.blast_cache_hits > 0
    assert checker_stats.encode_passes < checker_slices
    assert checker_stats.blast_cache_hits > 0
