"""Tests for the query-optimization layer: slicing, the tiered query cache,
its persistent L3 store, and the fleet-level wiring."""

import gc
import random

import pytest

from repro import smt
from repro.smt import (
    And,
    BitVec,
    BitVecVal,
    Bool,
    CheckResult,
    Eq,
    Extract,
    Model,
    Not,
    Or,
    QueryCache,
    Solver,
    SolverContext,
    UGT,
    ULT,
    free_variable_names,
    partition,
    slice_fingerprint,
    term_digest,
)
from repro.smt.context import AssumptionChecker
from repro.smt.qcache import SAT, UNSAT


def _solved(cache):
    return cache.statistics.solved


class TestSlicing:
    def test_free_variables_memoized(self):
        x, y = BitVec("x", 8), BitVec("y", 8)
        term = And(ULT(x, 10), Eq(y, BitVecVal(3, 8)))
        assert free_variable_names(term) == frozenset({"x", "y"})
        assert free_variable_names(term) == frozenset({"x", "y"})  # memo path
        assert free_variable_names(ULT(x, 10)) == frozenset({"x"})

    def test_independent_variables_split(self):
        x, y, z = BitVec("x", 8), BitVec("y", 8), BitVec("z", 8)
        slices = partition([ULT(x, 10), ULT(y, 10), ULT(z, 10)])
        assert len(slices) == 3
        assert [s.variables for s in slices] == [
            frozenset({"x"}),
            frozenset({"y"}),
            frozenset({"z"}),
        ]

    def test_shared_variable_merges(self):
        x, y, z = BitVec("x", 8), BitVec("y", 8), BitVec("z", 8)
        slices = partition([ULT(x, 10), Eq(x, y), ULT(z, 5)])
        assert len(slices) == 2
        assert slices[0].variables == frozenset({"x", "y"})
        assert slices[1].variables == frozenset({"z"})

    def test_transitive_sharing_merges_across_terms(self):
        a, b, c = BitVec("a", 8), BitVec("b", 8), BitVec("c", 8)
        # a~b and b~c: all three in one component even though a,c never co-occur.
        slices = partition([Eq(a, b), Eq(b, c)])
        assert len(slices) == 1
        assert slices[0].variables == frozenset({"a", "b", "c"})

    def test_key_is_order_independent(self):
        x = BitVec("x", 8)
        a, b = ULT(x, 10), UGT(x, 3)
        assert partition([a, b])[0].key == partition([b, a])[0].key

    def test_ground_terms_get_singleton_slices(self):
        x = BitVec("x", 8)
        ground = Eq(BitVecVal(1, 8), BitVecVal(1, 8))
        slices = partition([smt.intern_term(ground), ULT(x, 10)])
        assert len(slices) == 2


class TestStructuralDigests:
    def test_digest_is_structural(self):
        x = BitVec("x", 8)
        assert term_digest(ULT(x, 10)) == term_digest(ULT(BitVec("x", 8), BitVecVal(10, 8)))
        assert term_digest(ULT(x, 10)) != term_digest(ULT(x, 11))
        assert term_digest(ULT(x, 10)) != term_digest(ULT(BitVec("y", 8), 10))

    def test_fingerprint_order_independent(self):
        x, y = BitVec("x", 8), BitVec("y", 8)
        a, b = ULT(x, 10), UGT(y, 3)
        assert slice_fingerprint([a, b]) == slice_fingerprint([b, a])
        assert slice_fingerprint([a]) != slice_fingerprint([a, b])


class TestQueryCacheTiers:
    def test_exact_hit_skips_solving(self):
        x = BitVec("x", 8)
        cache = QueryCache()
        checker = AssumptionChecker(query_cache=cache)
        constraints = [ULT(x, 10), UGT(x, 3)]
        status, model = checker.check(constraints, need_model=True)
        assert status == CheckResult.SAT and model is not None
        solved = _solved(cache)
        # Same slice again, reassembled in a different order.
        status, model = checker.check(list(reversed(constraints)), need_model=True)
        assert status == CheckResult.SAT and model is not None
        assert _solved(cache) == solved
        assert cache.statistics.exact_hits >= 1

    def test_quick_check_is_the_last_tier(self):
        """Interval-decidable slices no cache tier answers are solved by the
        quick check: counted in ``solved``, never a CDCL search."""
        x = BitVec("x", 8)
        cache = QueryCache()
        checker = AssumptionChecker(query_cache=cache)
        # Neither canned probe (x=0, x=255) satisfies either query.
        assert checker.check([ULT(x, 3), UGT(x, 10)])[0] == CheckResult.UNSAT
        status, model = checker.check([UGT(x, 3), ULT(x, 10)], need_model=True)
        assert status == CheckResult.SAT and 3 < int(model["x"]) < 10
        stats = cache.statistics
        assert (stats.solved, stats.sat_core_calls, stats.hits) == (2, 0, 0)
        assert checker.statistics.encode_passes == 0  # the core never saw them

    def test_shortcut_verdicts_match_scratch(self):
        """Random growing/shrinking uid-overlapping queries: every cache
        answer equals a from-scratch solve of the same conjunction."""
        rng = random.Random(13)
        x, y, z = BitVec("x", 8), BitVec("y", 8), BitVec("z", 8)
        atoms = [
            ULT(x, 200), UGT(x, 100), Not(Eq(x, BitVecVal(150, 8))),
            ULT(y, 5), UGT(y, 9),  # contradictory pair
            Eq(z, BitVecVal(0, 8)), ULT(z, 4),
            Eq(x, y),
        ]
        cache = QueryCache()
        checker = AssumptionChecker(query_cache=cache)
        for _round in range(60):
            query = rng.sample(atoms, rng.randrange(1, len(atoms) + 1))
            status, model = checker.check(query, need_model=True)
            scratch = Solver(enable_cache=False)
            scratch.add(*query)
            assert status == scratch.check()
            if status == CheckResult.SAT:
                assert model is not None and model.satisfies(And(*query))
        assert cache.statistics.hits > 0

    def test_boolean_variables_supported(self):
        a, b = Bool("a"), Bool("b")
        cache = QueryCache()
        checker = AssumptionChecker(query_cache=cache)
        status, model = checker.check([smt.Or(a, b), Not(a)], need_model=True)
        assert status == CheckResult.SAT
        assert model is not None and model.satisfies(b) and not model.satisfies(a)
        assert checker.check([a, Not(a)])[0] == CheckResult.UNSAT

    def test_composed_model_covers_all_slices(self):
        x, y, z = BitVec("x", 16), BitVec("y", 16), BitVec("z", 8)
        cache = QueryCache()
        checker = AssumptionChecker(query_cache=cache)
        constraints = [Eq(x + y, BitVecVal(500, 16)), UGT(x, 100), Eq(z, BitVecVal(7, 8))]
        status, model = checker.check(constraints, need_model=True)
        assert status == CheckResult.SAT
        assert model is not None
        for term in constraints:
            assert model.satisfies(term)


class _FreshModelsCache(QueryCache):
    """Builds both probes and a copy of every pool model anew for each slice,
    so no evaluation memo outlives the slice it was computed for."""

    def _candidate_models(self, query_slice):
        yield Model({})
        ones = {}
        for term in query_slice.terms:
            for name, var in term.free_variables().items():
                ones[name] = var.sort.mask if var.is_bitvec() else True
        yield Model(ones)
        for model, model_vars in reversed(self._models):
            if model_vars & query_slice.variables:
                yield Model(model.as_dict())


def _certify_fleet_six(monkeypatch, cache_class, catalog=None, **stores):
    """Certify ``catalog`` (fleet_catalog(6) by default) on one worker
    through ``cache_class``, with ``stores`` as given; returns verdicts,
    counterexample packets and the summed tier counters."""
    from repro.orchestrator import certify_fleet, scheduler
    from repro.smt import qcache
    from repro.verify import CrashFreedom, destination_reachability
    from repro.workloads import fleet_catalog

    caches = []

    def build(*args, **kwargs):
        caches.append(cache_class(*args, **kwargs))
        return caches[-1]

    # The scheduler builds the run's cache itself when a query store is given.
    monkeypatch.setattr(qcache, "QueryCache", build)
    monkeypatch.setattr(scheduler, "QueryCache", build)
    report = certify_fleet(
        fleet_catalog(6) if catalog is None else catalog,
        [CrashFreedom(), destination_reachability(0x0A000001)],
        input_lengths=(24,),
        workers=1,
        **stores,
    )
    monkeypatch.undo()
    packets = [
        (cert.pipeline_name, result.property_name, [c.packet for c in result.counterexamples])
        for cert in report.certifications
        for result in cert.results
    ]
    tiers = {
        tier: sum(getattr(cache.statistics, tier) for cache in caches)
        for tier in ("exact_hits", "model_reuse_hits", "l3_hits", "solved", "sat_core_calls")
    }
    return report.verdicts(), packets, tiers


class TestPersistentProbes:
    def test_all_ones_witness_covers_exactly_the_slice_variables(self):
        x, y, p = BitVec("x", 16), BitVec("y", 8), Bool("p")
        terms = [
            smt.simplify(term)
            for term in (UGT(x, 60000), Eq(Extract(7, 0, x), y), Or(p, ULT(y, 3)))
        ]

        def unreachable(_terms):
            raise AssertionError("the all-ones probe answers this slice")

        cache = QueryCache()
        status, model = cache.check(terms, lambda groups: [unreachable] * len(groups))
        assert status == SAT
        assert cache.statistics.model_reuse_hits == 1
        assert model.as_dict() == {"p": True, "x": 0xFFFF, "y": 0xFF}
        assert list(model) == ["p", "x", "y"]

    def test_fleet_matches_fresh_models_per_slice(self, monkeypatch):
        # Simplified terms reference themselves, so they die only in a cyclic
        # collection, and one built again afterwards gets a new uid.
        # Collections follow allocation, which the two caches do
        # differently.  With collection off no term dies, every term keeps
        # one uid across both runs, and the runs must agree exactly.
        gc.collect()
        gc.disable()
        try:
            memoised = _certify_fleet_six(monkeypatch, QueryCache)
            fresh = _certify_fleet_six(monkeypatch, _FreshModelsCache)
        finally:
            gc.enable()
        assert memoised[0] == fresh[0]
        assert memoised[1] == fresh[1]
        assert memoised[2] == fresh[2]
        assert memoised[2]["model_reuse_hits"] > 0

    def test_options_delta_matches_fresh_models_per_slice(self, monkeypatch, tmp_path):
        # The path a max_options change takes: over the warm stores of a
        # fleet_catalog(6) pass, one IPOptions is summarized again and the
        # cache tiers answer every solver question.  Collection is off for
        # the reason the test above gives.
        from repro.workloads import churned_fleet_catalog

        runs = {}
        gc.collect()
        gc.disable()
        try:
            for name, cache_class in (("memoised", QueryCache), ("fresh", _FreshModelsCache)):
                stores = {
                    kind: str(tmp_path / name / kind)
                    for kind in ("store", "query_store", "verdict_store")
                }
                _certify_fleet_six(monkeypatch, cache_class, **stores)
                runs[name] = _certify_fleet_six(
                    monkeypatch, cache_class, churned_fleet_catalog(6, "options"), **stores
                )
        finally:
            gc.enable()
        assert runs["memoised"] == runs["fresh"]
        tiers = runs["memoised"][2]
        assert tiers["model_reuse_hits"] > 0 and tiers["sat_core_calls"] == 0


class TestQueryStoreL3:
    def _queries(self, checker):
        x, y = BitVec("x", 8), BitVec("y", 8)
        sat_query = [ULT(x, 10), UGT(x, 3), Eq(y, BitVecVal(1, 8))]
        unsat_query = [ULT(x, 3), UGT(x, 10)]
        return (
            checker.check(sat_query, need_model=True),
            checker.check(unsat_query),
        )

    def test_warm_cache_answers_from_disk_without_solving(self, tmp_path):
        from repro.orchestrator.store import QueryStore

        cold_cache = QueryCache(store=QueryStore(tmp_path))
        (status, model), (unsat_status, _) = self._queries(
            AssumptionChecker(query_cache=cold_cache)
        )
        assert status == CheckResult.SAT and unsat_status == CheckResult.UNSAT
        assert cold_cache.statistics.l3_stores > 0
        cold_cache.store.flush()  # writes are batched until a flush

        warm_store = QueryStore(tmp_path)
        warm_cache = QueryCache(store=warm_store)
        (warm_sat, warm_model), (warm_unsat, _) = self._queries(
            AssumptionChecker(query_cache=warm_cache)
        )
        assert (warm_sat, warm_unsat) == (status, unsat_status)
        assert warm_model is not None
        assert _solved(warm_cache) == 0  # everything from disk
        assert warm_cache.statistics.l3_hits > 0
        # ... and write-free: re-derived answers are not re-persisted.
        assert warm_cache.statistics.l3_stores == 0
        assert warm_store.statistics.puts == 0

    def test_readonly_cache_ships_entries_for_merge(self, tmp_path):
        from repro.orchestrator.store import QueryStore

        worker_cache = QueryCache(store=QueryStore(tmp_path, readonly=True))
        self._queries(AssumptionChecker(query_cache=worker_cache))
        store = QueryStore(tmp_path)
        assert len(store) == 0  # nothing written by the read-only side
        shipped = worker_cache.store.take_writes()
        assert len(shipped) == worker_cache.statistics.l3_stores > 0
        assert store.merge_shards(shipped) == len(store) == len(shipped)
        # A fresh cache over the merged store answers without solving.
        merged = QueryCache(store=QueryStore(tmp_path))
        self._queries(AssumptionChecker(query_cache=merged))
        assert _solved(merged) == 0

    def test_store_with_unsat_cores_stays_warm(self, tmp_path):
        """UNSAT payloads that carry a ``core`` list of term digests, as an
        earlier layout wrote them, still answer from disk; the cache
        writes UNSAT payloads without one."""
        from repro.orchestrator.store import QueryStore

        x, y = BitVec("x", 8), BitVec("y", 8)
        unsat_query = [smt.intern_term(smt.simplify(t)) for t in (ULT(x, 3), UGT(x, 10))]
        sat_query = [smt.intern_term(smt.simplify(t)) for t in (ULT(y, 10), UGT(y, 3))]
        store = QueryStore(tmp_path / "earlier")
        store.save_payload(
            slice_fingerprint(unsat_query),
            {"v": 1, "status": "unsat", "core": sorted(term_digest(t) for t in unsat_query)},
        )
        store.save_payload(
            slice_fingerprint(sat_query), {"v": 1, "status": "sat", "model": {"y": 5}}
        )
        store.flush()

        cache = QueryCache(store=QueryStore(tmp_path / "earlier"))
        checker = AssumptionChecker(query_cache=cache)
        assert checker.check(unsat_query)[0] == CheckResult.UNSAT
        status, model = checker.check(sat_query, need_model=True)
        assert status == CheckResult.SAT and model.as_dict() == {"y": 5}
        assert (cache.statistics.l3_hits, cache.statistics.sat_core_calls) == (2, 0)

        written = QueryStore(tmp_path / "new")
        AssumptionChecker(query_cache=QueryCache(store=written)).check(unsat_query)
        written.flush()
        assert QueryStore(tmp_path / "new").load_payload(slice_fingerprint(unsat_query)) == {
            "v": 1,
            "status": "unsat",
        }

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        import sqlite3

        from repro.orchestrator import SQLITE_FILENAME, QueryStore

        store = QueryStore(tmp_path)
        cache = QueryCache(store=store)
        checker = AssumptionChecker(query_cache=cache)
        x = BitVec("x", 8)
        checker.check([Eq(smt.UDiv(x, BitVecVal(3, 8)), BitVecVal(5, 8))])
        store.flush()
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        with connection:
            corrupted = connection.execute("UPDATE entries SET payload='{ not json'").rowcount
        connection.close()
        assert corrupted > 0  # real entries were stored, and are now garbage
        warm = QueryCache(store=QueryStore(tmp_path))
        status, _ = AssumptionChecker(query_cache=warm).check(
            [Eq(smt.UDiv(x, BitVecVal(3, 8)), BitVecVal(5, 8))]
        )
        assert status == CheckResult.SAT  # re-solved, not crashed
        assert warm.statistics.l3_hits == 0
        assert warm.store.statistics.quarantined > 0


class TestSolverContextRouting:
    def test_context_with_cache_agrees_with_plain_context(self):
        """The context (sliced, cached) agrees with the scratch solver."""
        rng = random.Random(23)
        x, y = BitVec("x", 8), BitVec("y", 8)

        def formula():
            ops = [
                ULT(x, rng.randrange(1, 255)),
                UGT(y, rng.randrange(0, 254)),
                Eq(x + y, BitVecVal(rng.randrange(256), 8)),
                Not(Eq(x, BitVecVal(rng.randrange(256), 8))),
            ]
            return rng.choice(ops)

        for _round in range(10):
            scratch = Solver(enable_cache=False)
            routed = SolverContext(query_cache=QueryCache())
            terms = []
            for _step in range(6):
                terms.append(formula())
                scratch.add(terms[-1])
                assert routed.check_assumptions(*terms) == scratch.check()

    def test_unknown_is_not_cached(self):
        # Factoring a product of two primes starves a 10-conflict budget
        # into UNKNOWN; the cache must not pin that for a roomier context.
        x, y = BitVec("x", 32), BitVec("y", 32)
        terms = (
            Eq(x * y, BitVecVal(65521 * 65519, 32)),
            UGT(x, 1),
            ULT(x, 0x10000),
            UGT(y, 1),
            ULT(y, 0x10000),
        )
        cache = QueryCache()
        starved = SolverContext(max_conflicts=10, query_cache=cache)
        assert starved.check_assumptions(*terms) == CheckResult.UNKNOWN
        assert cache.statistics.unknown_results == 1
        roomy = SolverContext(max_conflicts=200_000, query_cache=cache)
        assert roomy.check_assumptions(*terms) == CheckResult.SAT
        assert cache.statistics.hits == 0 and cache.statistics.solved == 2
        assert sorted((int(roomy.model()["x"]), int(roomy.model()["y"]))) == [65519, 65521]


class TestEngineAndFleetWiring:
    def test_engine_differential_query_opt_on_off(self, scratch_reference):
        """The sliced, cached production path agrees with the scratch reference."""
        from repro.workloads import synthetic_pipeline
        from repro.verify import CrashFreedom
        from repro.verify.pipeline_verifier import PipelineVerifier

        pipeline = synthetic_pipeline(3, 2, name="diff")
        production = PipelineVerifier(pipeline).verify(CrashFreedom(), input_lengths=(12,))
        with scratch_reference():
            reference = PipelineVerifier(pipeline).verify(CrashFreedom(), input_lengths=(12,))
        assert production.verdict == reference.verdict

    def test_warm_fleet_run_makes_zero_sat_core_calls(self, tmp_path):
        from repro.orchestrator import QueryStore, SummaryStore, certify_fleet
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        stores = dict(
            store=SummaryStore(tmp_path / "summaries"),
            query_store=QueryStore(tmp_path / "queries"),
        )
        cold = certify_fleet(fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), **stores)
        warm = certify_fleet(
            fleet_catalog(2),
            [CrashFreedom()],
            input_lengths=(24,),
            store=SummaryStore(tmp_path / "summaries"),
            query_store=QueryStore(tmp_path / "queries"),
        )
        assert cold.statistics.sat_core_calls > 0
        assert warm.statistics.summaries_computed == 0
        assert warm.statistics.sat_core_calls == 0
        assert warm.verdicts() == cold.verdicts()

    def test_certify_worker_ships_query_entries(self, tmp_path):
        """The per-pipeline worker task opens its stores read-only and
        ships its new entries back (the parent writes them)."""
        import dataclasses

        from repro.orchestrator.fleet import _certify_worker
        from repro.orchestrator.store import QueryStore, SummaryStore
        from repro.orchestrator.workers import PoolRun
        from repro.symbex.engine import SymbexOptions
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        options = dataclasses.replace(
            SymbexOptions(), query_cache_dir=str(tmp_path / "queries")
        )

        def worker_run():
            return PoolRun(
                fleet_catalog(1), [CrashFreedom()], (24,), options, str(tmp_path / "summaries"),
            )

        certification, misses, _l2_hits, (summaries, entries), _extras = _certify_worker(
            0, worker_run()
        )
        assert certification.certified
        # The summaries it computed and the slices it solved, shipped
        # rather than written in-fork.
        assert len(summaries) == misses > 0 and entries
        assert len(SummaryStore(tmp_path / "summaries")) == 0
        assert len(QueryStore(tmp_path / "queries")) == 0
        QueryStore(tmp_path / "queries").merge_shards(entries)
        assert len(QueryStore(tmp_path / "queries")) == len(entries)
        # A second worker over the merged store solves nothing new.
        _cert, _m, _l, (_summaries, warm_entries), _x = _certify_worker(0, worker_run())
        assert warm_entries == {}

    def test_parallel_summarize_jobs_preserve_work_counters(self, tmp_path):
        """The query-cache counters the Step-1 tasks ship back, folded by
        the scheduler, equal the query-cache totals of serial engines: the
        caches that did the work are the only count of it."""
        from repro.orchestrator import SummaryStore, run_scheduled
        from repro.orchestrator.store import summary_key
        from repro.smt.qcache import QueryCacheStatistics
        from repro.symbex.engine import SymbexOptions, SymbolicEngine
        from repro.workloads import fleet_catalog

        def work(stats):
            return stats.sat_core_calls, stats.hits, stats.solved

        pipeline = fleet_catalog(1)[0]
        options = SymbexOptions()
        qstats = QueryCacheStatistics()
        # No properties: the Step-2 task asks the solver nothing, so all
        # the run folds into ``qstats`` comes from the Step-1 tasks.
        run = run_scheduled(
            [pipeline], [], (24,), options,
            workers=2, store=SummaryStore(tmp_path), qstats=qstats,
        )
        assert run.computed == len(run.summaries) == len(pipeline.elements)
        assert set(run.summaries) == {
            summary_key(element, 24, options) for element in pipeline.elements
        }
        serial = QueryCacheStatistics()
        for element in pipeline.elements:
            engine = SymbolicEngine(options)
            engine.summarize_element(
                element.program, 24,
                tables=element.state.tables(),
                element_name=element.name,
            )
            serial.merge(engine.checker.query_cache.statistics)
        assert work(qstats) == work(serial)
        assert qstats.sat_core_calls > 0

    def test_workers_clamped_to_cpu_count(self):
        import os

        from repro.orchestrator import certify_fleet
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        report = certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), workers=64
        )
        assert report.statistics.workers == min(64, os.cpu_count() or 1)
        assert all(c.certified for c in report.certifications)

    def test_query_store_cli_maintenance(self, tmp_path, capsys):
        from repro.cli.main import main

        assert main(["store", "stats", "--query-store", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "query store" in out
        assert main(["store", "gc", "--query-store", str(tmp_path / "q")]) == 0


@pytest.mark.parametrize("width", [1, 8])
def test_width_one_and_wider_vectors_through_cache(width):
    b = BitVec(f"w{width}", width)
    cache = QueryCache()
    checker = AssumptionChecker(query_cache=cache)
    assert checker.check([Eq(b, BitVecVal(1, width))])[0] == CheckResult.SAT
    assert checker.check([Eq(b, BitVecVal(1, width)), Eq(b, BitVecVal(0, width))])[0] == (
        CheckResult.UNSAT
    )


def test_status_constants_match_facade():
    assert (SAT, UNSAT) == (CheckResult.SAT, CheckResult.UNSAT)
