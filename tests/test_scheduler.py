"""Tests for the persistent fleet scheduler: graph, pool, priorities, parity.

The scheduler's contract is differential — it reorders work, it never
changes it — so most tests here drive the same catalog through one
worker (every task in the parent) and two (the pool), or through
:func:`_reference_certify`, a loop that certifies the catalog in order
through one summary cache, and assert the outputs are identical.  The
container may expose a single CPU (``certify_fleet`` clamps ``workers``
to the CPU count), so end-to-end tests lift the clamp with the
``four_cpus`` fixture and graph/pool tests call :func:`run_scheduled`
directly with an explicit worker count.
"""

import dataclasses
import gc
import json
import multiprocessing
import os
import random
import re
import signal
import sqlite3
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.obs.slowlog import slow_solve_log
from repro.obs.trace import Tracer, active, tracer
from repro.orchestrator import (
    JobGraph,
    OrchestratorError,
    QueryStore,
    RiskHistory,
    RiskStore,
    SQLITE_FILENAME,
    SummaryStore,
    certify_fleet,
    pipeline_ranks,
    run_scheduled,
    summary_key,
)
import repro.orchestrator.fleet as fleet_module
import repro.orchestrator.scheduler as scheduler_module
from repro.orchestrator.fleet import _certify_worker
from repro.orchestrator.scheduler import PersistentPool, SchedulerStatistics, _Task
from repro.orchestrator.store import Store
from repro.orchestrator.workers import COMPUTED, EXPLODED, LOADED, PoolRun, _summarize_worker
from repro.smt.qcache import QueryCache
from repro.symbex.engine import SymbexOptions
from repro.verify import CrashFreedom, PipelineVerifier, SummaryCache, destination_reachability
from repro.workloads import (
    churned_fleet_catalog,
    fleet_catalog,
    store_scale_catalog,
    synthetic_pipeline,
)


def _entries(root):
    """Every summary in the store under ``root``, as ``digest -> payload``.

    The one timing field, the summary's ``elapsed_seconds``, is dropped.
    """
    connection = sqlite3.connect(str(root / SQLITE_FILENAME))
    try:
        rows = connection.execute("SELECT digest, payload FROM entries").fetchall()
    finally:
        connection.close()
    entries = {}
    for digest, text in rows:
        payload = json.loads(text)
        del payload["summary"]["elapsed_seconds"]
        entries[digest] = payload
    return entries


def _packets(report):
    """Each pipeline's counterexample packets, in catalog order."""
    return [
        [ce.packet for result in c.results for ce in result.counterexamples]
        for c in report.certifications
    ]


def _age_rows(root, seconds):
    """Move every entry's mtime under ``root`` back by ``seconds``."""
    connection = sqlite3.connect(str(Path(root) / SQLITE_FILENAME))
    try:
        connection.execute("UPDATE entries SET mtime = mtime - ?", (seconds,))
        connection.commit()
    finally:
        connection.close()


def _fresh_digests(root, within=3600.0):
    """Digests under ``root`` whose mtime is less than ``within`` seconds old."""
    connection = sqlite3.connect(str(Path(root) / SQLITE_FILENAME))
    try:
        rows = connection.execute("SELECT digest, mtime FROM entries").fetchall()
    finally:
        connection.close()
    horizon = time.time() - within
    return {digest for digest, mtime in rows if mtime >= horizon}


def _buffered(run):
    """Rows and mtime touches the worker's stores still hold after a task."""
    return [
        (store.kind, dict(store._pending), dict(store._touched))
        for store in run.stores()
        if store is not None and (store._pending or store._touched)
    ]


def _timeless(value):
    """``value`` with every ``*seconds`` key dropped, at any depth: a row's timings."""
    if isinstance(value, dict):
        return {k: _timeless(v) for k, v in value.items() if not k.endswith("seconds")}
    if isinstance(value, list):
        return [_timeless(item) for item in value]
    return value


def _rows(root):
    """Every entry and meta row of the store under ``root``, timings dropped."""
    connection = sqlite3.connect(str(Path(root) / SQLITE_FILENAME))
    try:
        rows = {
            table: sorted(connection.execute(f"SELECT {key}, {value} FROM {table}").fetchall())
            for table, key, value in (("entries", "digest", "payload"), ("meta", "key", "value"))
        }
    finally:
        connection.close()
    return {
        table: [(key, _timeless(json.loads(text)) if text[:1] in "{[" else text) for key, text in got]
        for table, got in rows.items()
    }


def _with_one_replaced(catalog, index, replacement):
    """``catalog`` with pipeline ``index`` swapped for ``replacement``, under its name."""
    replaced = list(catalog)
    replacement.name = catalog[index].name
    replaced[index] = replacement
    return replaced


def _reference_certify(pipelines, properties, lengths, root):
    """The reference the fleet engine is checked against: a loop over the catalog.

    One summary cache over a fresh store at ``root`` and a fresh query
    cache, and a verifier over each pipeline in catalog order.  Returns
    each pipeline's results and the cache.
    """
    cache = SummaryCache(SymbexOptions(), store=SummaryStore(root), query_cache=QueryCache())
    certified = []
    for pipeline in pipelines:
        verifier = PipelineVerifier(pipeline, options=cache.options, cache=cache)
        certified.append([verifier.verify(p, input_lengths=list(lengths)) for p in properties])
    return certified, cache


@pytest.fixture
def gc_off():
    """Cyclic GC off for the test: it renumbers simplified terms, which
    moves query-cache counters between otherwise identical runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _serial_summaries(pipelines, lengths, options):
    """Ground truth: the digest -> summary map a serial discovery computes."""
    from repro.orchestrator import loads_summary

    graph = JobGraph(pipelines, lengths, options)
    with tempfile.TemporaryDirectory() as root:
        run = PoolRun((), (), (), options, root)
        while True:
            jobs = graph.take_new_jobs()
            if not jobs:
                break
            for digest, element, length in jobs:
                status, text, _w, _x = _summarize_worker((element, length), run)
                assert status == "computed"
                graph.resolve(digest, loads_summary(text))
    return graph


class TestPipelineRanks:
    def test_fifo_is_catalog_order(self):
        catalog = store_scale_catalog(4)
        assert pipeline_ranks(catalog) == [0, 1, 2, 3]

    def test_risk_without_history_is_fifo(self, tmp_path):
        catalog = store_scale_catalog(3)
        history = RiskHistory(RiskStore(tmp_path))  # nothing observed yet
        assert pipeline_ranks(catalog, history) == [0, 1, 2]

    def test_risk_fronts_seeded_history(self, tmp_path):
        catalog = store_scale_catalog(3)
        history = RiskHistory(RiskStore(tmp_path))
        history.seed(catalog[2].name, violations=2)
        ranks = pipeline_ranks(catalog, history)
        assert ranks[2] == 0  # the violating pipeline preempts the catalog


class TestJobGraph:
    """The graph must be completion-order invariant — that is the whole bet."""

    def _catalog(self):
        return store_scale_catalog(6)

    def test_random_completion_orders_reach_identical_state(self):
        options = SymbexOptions()
        catalog = self._catalog()
        reference = _serial_summaries(catalog, (64,), options)
        oracle = dict(reference.summaries)

        for seed in range(5):
            rng = random.Random(seed)
            graph = JobGraph(catalog, (64,), options)
            pending = list(graph.take_new_jobs())
            verify_ready = list(graph.take_verify_ready())
            while pending:
                index = rng.randrange(len(pending))
                digest, _element, _length = pending.pop(index)
                graph.resolve(digest, oracle[digest])
                pending.extend(graph.take_new_jobs())
                verify_ready.extend(graph.take_verify_ready())
            assert graph.settled
            assert set(graph.summaries) == set(oracle)
            assert sorted(verify_ready) == list(range(len(catalog)))

    def test_exploded_digest_unblocks_waiting_pipelines(self):
        options = SymbexOptions()
        catalog = [synthetic_pipeline(3, 2, name="boom")]
        graph = JobGraph(catalog, (12,), options)
        jobs = graph.take_new_jobs()
        assert jobs and not graph.take_verify_ready()
        # The entry element explodes: no downstream expansion, but the
        # pipeline must still become verify-ready (Step 2 reports unknown).
        graph.explode(jobs[0][0])
        assert graph.take_verify_ready() == [0]
        assert graph.settled

    def test_duplicate_configurations_share_one_job(self):
        options = SymbexOptions()
        catalog = store_scale_catalog(6)
        graph = JobGraph(catalog, (64,), options)
        jobs = graph.take_new_jobs()
        digests = [digest for digest, _e, _l in jobs]
        assert len(digests) == len(set(digests))
        entries = [p.entry_elements()[0] for p in catalog]
        assert len(jobs) == len({summary_key(e, 64, options) for e in entries})

    def test_rejects_multi_entry_pipeline(self):
        from repro.dataplane import Pipeline
        from repro.dataplane.elements import Discard
        from repro.workloads.pipelines import SyntheticBranchyElement

        pipeline = Pipeline(name="two-entries")
        sink = Discard(name="sink")
        pipeline.connect(SyntheticBranchyElement(1, name="a"), sink)
        pipeline.connect(SyntheticBranchyElement(1, offset=2, name="b"), sink)
        with pytest.raises(OrchestratorError):
            JobGraph([pipeline], (24,), SymbexOptions())


class TestScheduledRun:
    def test_matches_serial_verdicts_and_counters(self, four_cpus):
        """One and two workers agree on every FleetStatistics field but three.

        ``workers`` and ``elapsed_seconds`` differ by nature.  The
        parent's tasks share one in-memory query cache across the
        catalog while each pool task starts a fresh one, so the same
        slice questions split differently between SAT-core calls and
        cache hits — their sum is fixed.
        """
        properties = [CrashFreedom(), destination_reachability(0x0A000001)]
        for build in (lambda: fleet_catalog(6), lambda: store_scale_catalog(20)):
            serial = certify_fleet(build(), properties, input_lengths=(24,))
            pooled = certify_fleet(build(), properties, input_lengths=(24,), workers=2)
            assert pooled.verdicts() == serial.verdicts()
            # One worker: every task ran in the parent, and nothing forked.
            inline = serial.scheduler
            assert (inline.workers, inline.pools_forked, inline.tasks_dispatched) == (1, 0, 0)
            assert inline.tasks_inline == inline.summary_tasks + inline.verify_tasks > 0
            assert pooled.scheduler is not None and pooled.scheduler.pools_forked == 1
            one, two = serial.statistics.to_dict(), pooled.statistics.to_dict()
            assert (one.pop("workers"), two.pop("workers")) == (1, 2)
            del one["elapsed_seconds"], two["elapsed_seconds"]
            solved = [
                stats.pop("sat_core_calls") + stats.pop("qcache_hits") for stats in (one, two)
            ]
            assert solved[0] == solved[1]
            assert one == two

    def test_counterexample_packets_match_serial(self, four_cpus, tmp_path):
        serial = certify_fleet(fleet_catalog(2), [CrashFreedom()], input_lengths=(24,))
        scheduled = certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,),
            workers=2, store=SummaryStore(tmp_path),
        )
        assert _packets(scheduled) == _packets(serial)

    @pytest.mark.parametrize("instruction_bounds", [False, True])
    def test_budget_explosion_degrades_identically(
        self, four_cpus, tmp_path, instruction_bounds
    ):
        # merge=off so merging cannot rescue the starved budget.
        options = SymbexOptions(max_paths=4, merge="off")  # starves Step-1
        serial = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [CrashFreedom()],
            input_lengths=(12,), options=options, instruction_bounds=instruction_bounds,
        )
        scheduled = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [CrashFreedom()],
            input_lengths=(12,), workers=2, store=SummaryStore(tmp_path),
            options=options, instruction_bounds=instruction_bounds,
        )
        assert scheduled.verdicts() == serial.verdicts()
        assert scheduled.verdicts()[0][2] == "unknown"
        for report in (serial, scheduled):
            bound = report.certifications[0].instruction_bound
            if instruction_bounds:
                # The blown budget leaves no bound (and no witness), not an error.
                assert bound.bound is None and bound.witness_packet is None
                assert bound.statistics.budget_exceeded
            else:
                assert bound is None

    def test_warm_store_serves_whole_run(self, four_cpus, tmp_path):
        store = SummaryStore(tmp_path)
        cold = certify_fleet(
            store_scale_catalog(4), [CrashFreedom()], input_lengths=(64,),
            workers=2, store=store,
        )
        warm = certify_fleet(
            store_scale_catalog(4), [CrashFreedom()], input_lengths=(64,),
            workers=2, store=store,
        )
        assert warm.verdicts() == cold.verdicts()
        assert warm.statistics.summaries_computed == 0
        assert warm.statistics.store_hits == cold.statistics.distinct_summary_jobs
        # Satellite: the bulk frontier probe costs one round trip per
        # admission batch, not one per digest.
        assert store.statistics.round_trips_saved > 0

    def test_warm_pool_inherits_the_parents_decodes(self, summary_decodes, four_cpus, tmp_path):
        def pooled():
            return certify_fleet(
                fleet_catalog(4), [CrashFreedom()], input_lengths=(24,),
                workers=2, store=str(tmp_path),
            )

        cold = pooled()
        assert cold.scheduler.step2_store_loads > 0  # cold: workers decode
        # The parent decodes each summary a worker computed once, as it
        # lands, into the memo under the digest the worker stored it at.
        jobs = cold.statistics.distinct_summary_jobs
        assert len(summary_decodes) == jobs > 0
        warm = pooled()
        # Warm: the admission probe finds every summary in that memo, so
        # the parent decodes none, and the workers forked after it read
        # each entry but decode none either.
        assert warm.statistics.store_hits == jobs
        assert len(summary_decodes) == jobs
        assert warm.scheduler.step2_store_loads == 0
        serial = certify_fleet(fleet_catalog(4), [CrashFreedom()], input_lengths=(24,))
        assert warm.verdicts() == serial.verdicts()
        assert _packets(warm) == _packets(serial)


    def test_each_worker_opens_each_store_once(
        self, four_cpus, all_in_pool, monkeypatch, tmp_path
    ):
        """A worker opens its stores on its first task and keeps them for the pool.

        Every task is placed in the pool, so the workers run all 26 and
        the parent opens no read-only view for inline tasks.
        """
        log = tmp_path / "opens.log"
        real = Store.__init__

        def logging(store, root, readonly=False):
            # Forked workers inherit the wrapper and append to the same log.
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {store.kind}\n")
            real(store, root, readonly)

        monkeypatch.setattr(Store, "__init__", logging)
        report = certify_fleet(
            store_scale_catalog(20), [CrashFreedom()], input_lengths=(24,), workers=2,
            store=str(tmp_path / "s"), query_store=str(tmp_path / "q"),
        )
        assert report.scheduler.tasks_dispatched == 26  # 6 Step-1 + 20 Step-2
        opens = Counter()
        for line in log.read_text().splitlines():
            pid, kind = line.split(" ", 1)
            opens[int(pid), kind] += 1
        parent = {kind: count for (pid, kind), count in opens.items() if pid == os.getpid()}
        assert parent == {"summary store": 1, "query store": 1}
        workers = {pid for pid, _kind in opens} - {os.getpid()}
        assert workers
        for pid in workers:
            assert {kind: opens[pid, kind] for _p, kind in opens if _p == pid} == {
                "summary store": 1, "query store": 1,
            }

    def test_step2_reads_refresh_l3_mtimes(self, four_cpus, monkeypatch, tmp_path):
        """Touches a worker's long-lived query store makes reach the database."""
        catalog = fleet_catalog(4)
        roots = dict(store=str(tmp_path / "s"), query_store=str(tmp_path / "q"))
        certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), workers=2, **roots)
        _age_rows(tmp_path / "q", 2 * 3600)
        log = tmp_path / "reads.log"
        real = QueryStore.load_payload

        def logging(store, digest):
            payload = real(store, digest)
            if payload is not None:
                with open(log, "a") as out:
                    out.write(f"{digest}\n")
            return payload

        monkeypatch.setattr(QueryStore, "load_payload", logging)
        # No verdict store: every pipeline's Step 2 runs, over a warm L3 tier.
        warm = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), workers=2, **roots)
        assert warm.statistics.summaries_computed == 0
        read = set(log.read_text().split())
        assert read
        assert read <= _fresh_digests(tmp_path / "q")
        QueryStore(tmp_path / "q").gc(older_than_seconds=3600)
        assert read <= _fresh_digests(tmp_path / "q", within=float("inf"))


class TestOneEngine:
    """One worker runs every task in the parent, through one run-wide cache."""

    PROPERTIES = [CrashFreedom(), destination_reachability(0x0A000001)]

    def test_one_worker_matches_the_reference_loop(self, gc_off, tmp_path):
        for name, build in (
            ("fleet", lambda: fleet_catalog(6)),
            ("scale", lambda: store_scale_catalog(20)),
        ):
            report = certify_fleet(build(), self.PROPERTIES, input_lengths=(24,))
            certified, cache = _reference_certify(build(), self.PROPERTIES, (24,), tmp_path / name)
            catalog = build()
            assert report.verdicts() == [
                (pipeline.name, result.property_name, result.verdict)
                for pipeline, results in zip(catalog, certified)
                for result in results
            ], name
            assert _packets(report) == [
                [ce.packet for result in results for ce in result.counterexamples]
                for results in certified
            ], name
            stats, queries = report.statistics, cache.query_cache.statistics
            assert (
                stats.sat_core_calls,
                stats.qcache_hits,
                stats.summaries_computed,
                stats.distinct_summary_jobs,
            ) == (
                queries.sat_core_calls,
                queries.hits,
                cache.statistics.misses,
                cache.statistics.entries,
            ), name
            if name == "fleet":
                assert stats.sat_core_calls > 0  # the counters compared count real searches

    def test_per_result_statistics_do_not_depend_on_the_worker_count(self, four_cpus, gc_off):
        """Every per-result statistic but timings agrees on one and two workers.

        Except the split of solver work: the parent's tasks share one
        query cache across the catalog, while each pool task starts a
        fresh one, so ``sat_core_calls``, ``qcache_hits`` and
        ``slices_solved`` may differ.
        """
        split = ("sat_core_calls", "qcache_hits", "slices_solved")

        def per_result(workers):
            report = certify_fleet(
                fleet_catalog(6), self.PROPERTIES, input_lengths=(24,), workers=workers,
                instruction_bounds=True,
            )
            rows = []
            for certification in report.certifications:
                for result in [*certification.results, certification.instruction_bound]:
                    row = _timeless(result.statistics.to_dict())
                    for name in split:
                        del row[name]
                    rows.append((certification.pipeline_name, row))
            return rows

        one = per_result(1)
        assert one == per_result(2)
        assert any(row["summary_cache_hits"] for _name, row in one)

    def test_one_worker_follows_the_risk_history(self, tmp_path):
        catalog = store_scale_catalog(6)
        history = RiskHistory(RiskStore(tmp_path / "risk"))
        risky = catalog[4].name
        history.seed(risky, violations=3, churn=2)
        traced = Tracer()
        report = certify_fleet(
            catalog, [CrashFreedom()], input_lengths=(64,), workers=1,
            risk_history=history, trace=traced,
        )
        assert report.scheduler.pools_forked == 0
        verified = sorted(
            (s for s in traced.spans() if s.name == "scheduler.task" and s.args["kind"] == "verify"),
            key=lambda span: span.start,
        )
        assert [s.args["label"] for s in verified][:1] == [risky]
        assert len(verified) == len(catalog)


class TestSchedulerDirect:
    """Drive run_scheduled with real worker processes (no cpu clamp)."""

    def _run(self, catalog, store, **kwargs):
        kwargs.setdefault("workers", 2)
        return run_scheduled(
            catalog, [CrashFreedom()], (64,), SymbexOptions(), store=store, **kwargs
        )

    def test_risk_schedule_verifies_risky_pipeline_first(self, tmp_path):
        catalog = store_scale_catalog(6)
        history = RiskHistory(RiskStore(tmp_path / "risk"))
        risky = catalog[4].name
        history.seed(risky, violations=3, churn=2)
        # One worker: dispatch strictly follows the priority heap, so the
        # completion order is deterministic.
        run = self._run(
            catalog, SummaryStore(tmp_path / "store"), workers=1, risk_history=history,
        )
        assert run.verify_order[0] == 4
        assert len(run.verify_order) == len(catalog)

    def test_fifo_single_worker_preserves_catalog_order(self, tmp_path):
        catalog = store_scale_catalog(5)
        run = self._run(catalog, SummaryStore(tmp_path), workers=1)
        assert run.verify_order == list(range(len(catalog)))

    def test_crashed_worker_is_respawned_and_task_retried(self, tmp_path):
        catalog = store_scale_catalog(4)
        store = SummaryStore(tmp_path / "store")
        (tmp_path / "crash-once").touch()
        run = self._run(catalog, store, summary_worker=_crash_once_worker)
        stats = run.statistics
        assert stats.workers_crashed == 1
        assert stats.tasks_retried == 1
        assert stats.workers_spawned == stats.workers + 1  # one replacement
        assert stats.pools_forked == 1
        # The retried run still certifies everything, identically.
        serial = certify_fleet(store_scale_catalog(4), [CrashFreedom()], input_lengths=(64,))
        verdicts = [
            (catalog[index].name, r.property_name, r.verdict)
            for index in sorted(run.step2)
            for r in run.step2[index][0].results
        ]
        assert verdicts == serial.verdicts()
        # The dead attempt shipped nothing; its retry's summary reached the
        # database like every other task's.
        stored = SummaryStore(tmp_path / "store").load_digests(run.summaries)
        assert set(stored) == set(run.summaries)
        assert not (tmp_path / "store" / "shards").exists()

    def test_crashed_verify_task_is_retried_with_the_same_run(self, all_in_pool, tmp_path):
        # Every task in the pool: only a worker's crash is retried, and
        # the parent's own tasks never call the injected body.
        catalog = store_scale_catalog(4)
        store = SummaryStore(tmp_path / "store")
        (tmp_path / "crash-once").touch()
        run = self._run(catalog, store, verify_worker=_crash_once_verify_worker)
        stats = run.statistics
        assert stats.tasks_retried == 1
        assert stats.workers_crashed == 1
        assert stats.workers_spawned == stats.workers + 1
        serial = certify_fleet(store_scale_catalog(4), [CrashFreedom()], input_lengths=(64,))
        verdicts = [
            (catalog[index].name, r.property_name, r.verdict)
            for index in sorted(run.step2)
            for r in run.step2[index][0].results
        ]
        assert verdicts == serial.verdicts()

    def test_replacement_workers_certify_from_the_runs_constants(
        self, all_in_pool, monkeypatch, tmp_path
    ):
        """Each worker the pool forks first dies on its first Step-2 task.

        So every Step-2 task is certified by a replacement forked after a
        crash, which must inherit the run's constants to certify from an
        index.
        """
        originals = tmp_path / "originals"
        real = PersistentPool.__init__

        def recording(pool, *args):
            real(pool, *args)
            originals.write_text(" ".join(str(h.process.pid) for h in pool._workers))

        monkeypatch.setattr(PersistentPool, "__init__", recording)
        catalog = store_scale_catalog(4)
        run = self._run(
            catalog, SummaryStore(tmp_path / "store"),
            verify_worker=_crash_original_verify_worker,
        )
        stats = run.statistics
        assert 1 <= stats.tasks_retried == stats.workers_crashed <= stats.workers == 2
        assert stats.workers_spawned == stats.workers + stats.workers_crashed
        certified_in = {int(pid) for pid in (tmp_path / "certified").read_text().split()}
        assert certified_in and not certified_in & {int(p) for p in originals.read_text().split()}
        serial = certify_fleet(store_scale_catalog(4), [CrashFreedom()], input_lengths=(64,))
        verdicts = [
            (catalog[index].name, r.property_name, r.verdict)
            for index in sorted(run.step2)
            for r in run.step2[index][0].results
        ]
        assert verdicts == serial.verdicts()

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_unpicklable_result_fails_its_task_instead_of_hanging(self, all_in_pool, tmp_path):
        # In the pool, since an inline task's result is never pickled.
        with _deadline(30), pytest.raises(OrchestratorError, match="scale-[01].*pickle"):
            self._run(
                store_scale_catalog(2), SummaryStore(tmp_path), verify_worker=_lock_verify_worker
            )

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_unpicklable_task_fails_its_dispatch_instead_of_hanging(self, tmp_path):
        catalog = store_scale_catalog(2)
        entry = catalog[0].sole_entry()
        entry.lock = threading.Lock()
        # One worker pickles nothing, so the catalog itself certifies.
        serial = certify_fleet(catalog, [CrashFreedom()], input_lengths=(64,))
        assert len(serial.certifications) == 2
        label = re.escape(f"{entry.name}@64")
        with _deadline(30), pytest.raises(OrchestratorError, match=f"{label}.*pickle"):
            self._run(catalog, SummaryStore(tmp_path / "store"))
        assert not multiprocessing.active_children()  # the pool shut down

    def test_a_task_ships_exactly_its_own_writes(self, monkeypatch, tmp_path):
        """Successive tasks on one worker: each ships its own rows and leaves none behind."""
        summaries, queries = tmp_path / "s", tmp_path / "q"
        options = SymbexOptions(query_cache_dir=str(queries))
        catalog = store_scale_catalog(6)
        run = PoolRun(catalog, [CrashFreedom()], (64,), options, str(summaries))
        first = _certify_worker(0, run)
        assert first[1] > 0 and first[3][0]  # Step-2 misses, computed in the task
        assert _buffered(run) == []
        # Written as the parent would, then aged so the next reads touch them.
        SummaryStore(summaries).merge_shards(first[3][0])
        QueryStore(queries).merge_shards(first[3][1])
        _age_rows(summaries, 2 * 3600)
        _age_rows(queries, 2 * 3600)
        second = _certify_worker(1, run)
        assert not set(second[3][0]) & set(first[3][0])
        assert not set(second[3][1]) & set(first[3][1])
        assert _buffered(run) == []
        # It loaded the summaries it shares with the first, and touched them.
        assert set(first[3][0]) >= _fresh_digests(summaries) != set()

        # A raised task leaves nothing buffered either.
        def failing(pipeline, properties, lengths, cache, *args):
            cache.summarize(pipeline.sole_entry(), 12)  # buffers a row
            raise RuntimeError("boom")

        monkeypatch.setattr(fleet_module, "_certify_one", failing)
        with pytest.raises(RuntimeError, match="boom"):
            _certify_worker(2, run)
        assert _buffered(run) == []

    def test_summary_tasks_leave_nothing_buffered(self, tmp_path):
        element = store_scale_catalog(1)[0].sole_entry()
        run = PoolRun((), (), (), SymbexOptions(), str(tmp_path / "s"))
        status, text, (rows, _query_rows), _extras = _summarize_worker((element, 64), run)
        assert status == COMPUTED and list(rows.values()) == [text]
        assert _buffered(run) == []
        SummaryStore(tmp_path / "s").merge_shards(rows)
        _age_rows(tmp_path / "s", 2 * 3600)
        status, loaded, writes, _extras = _summarize_worker((element, 64), run)
        assert (status, loaded, writes) == (LOADED, text, ({}, {}))
        assert _buffered(run) == []
        assert _fresh_digests(tmp_path / "s") == set(rows)  # the load's touch landed
        starved = PoolRun((), (), (), SymbexOptions(max_paths=4, merge="off"), str(tmp_path / "x"))
        boom = synthetic_pipeline(4, 3, name="boom").sole_entry()
        status, _message, (rows, _query_rows), _extras = _summarize_worker((boom, 12), starved)
        assert status == EXPLODED and rows == {}
        assert _buffered(starved) == []

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_result_written_before_its_worker_died_is_delivered(self, tmp_path):
        statistics = SchedulerStatistics()
        run = PoolRun((), (), (), SymbexOptions(), str(tmp_path))
        with _deadline(30), PersistentPool(2, statistics, run) as pool:
            pool.dispatch(_Task(1, "verify", 0, _result_then_exit, "first", (0, 1), "first"))
            dying = pool._workers[0].process
            deadline = time.monotonic() + 10
            while dying.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not dying.is_alive()
            # The worker is gone, but its result is whole: it is a result,
            # not a crash, and nothing is retried.
            event = pool.next_event()
            assert event[0] == "result" and event[2].label == "first"
            assert event[3] and event[6] == "first"
            pool.dispatch(_Task(2, "verify", 1, _slow_identity, "second", (0, 2), "second"))
            event = pool.next_event()  # reaps the dead worker on the way
            assert event[0] == "result" and event[6] == "second"
        assert statistics.workers_crashed == 1
        assert statistics.workers_spawned == 3

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_worker_killed_while_writing_its_result_is_a_crash(self, tmp_path):
        statistics = SchedulerStatistics()
        run = PoolRun((), (), (), SymbexOptions(), str(tmp_path))
        with _deadline(30), PersistentPool(1, statistics, run) as pool:
            task = _Task(1, "verify", 0, _big_result_then_exit, None, (0, 1), "big")
            pool.dispatch(task)
            dying = pool._workers[0].process
            deadline = time.monotonic() + 10
            while dying.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not dying.is_alive()
            # Part of the result sits in the pipe; the rest never comes.
            assert pool.next_event() == ("crashed", task)
        assert statistics.workers_crashed == 1
        assert statistics.workers_spawned == 2

    def test_parent_writes_every_entry_the_workers_computed(self, tmp_path):
        """Workers ship their store writes; the parent alone writes the store."""
        root = tmp_path / "pooled"
        run = self._run(store_scale_catalog(20), SummaryStore(root))
        assert run.computed == len(run.summaries) > 0
        assert not (root / "shards").exists()
        in_process = tmp_path / "in-process"
        certify_fleet(
            store_scale_catalog(20), [CrashFreedom()], input_lengths=(64,), store=str(in_process)
        )
        pooled = _entries(root)
        assert set(pooled) == set(run.summaries)
        assert pooled == _entries(in_process)

    def test_each_worker_decodes_each_summary_once(self, all_in_pool, tmp_path):
        run = self._run(store_scale_catalog(20), SummaryStore(tmp_path))
        assert len(run.step2) == 20 == run.statistics.tasks_dispatched - len(run.summaries)
        # Every pipeline reads two or more summaries; without the worker
        # memo each task would decode its own from the store again.
        assert 0 < run.statistics.step2_store_loads <= 2 * len(run.summaries)

    def test_spans_ship_exactly_once_and_match_serial_work(self, tmp_path):
        options = dataclasses.replace(SymbexOptions(), trace=True)
        catalog = store_scale_catalog(4)

        with active(Tracer()) as t:
            run = run_scheduled(
                catalog, [CrashFreedom()], (64,), options,
                workers=2, store=SummaryStore(tmp_path),
            )
            spans = t.spans()
        assert len(run.step2) == len(catalog)
        assert len({(s.pid, s.sid) for s in spans}) == len(spans)  # exactly once
        scheduler_spans = [s for s in spans if s.category == "scheduler"]
        stats = run.statistics
        assert len(scheduler_spans) == stats.tasks_dispatched + stats.tasks_inline
        assert all(s.name == "scheduler.task" for s in scheduler_spans)
        # Step 1 ran in the workers; Step 2, which composes nothing on
        # this catalog, ran in the parent and says so.
        by_pid = Counter((s.args["kind"], s.args["pid"] == os.getpid()) for s in scheduler_spans)
        assert by_pid == {("summary", False): stats.summary_tasks, ("verify", True): len(catalog)}

        # The scheduler reorders the one-worker run's symbolic executions;
        # it never adds or drops one.  (Cache hit/miss *events*
        # legitimately differ: pooled Step 2 rehydrates from the store,
        # the parent reads its run-wide cache.)
        with active(Tracer()) as t:
            serial = certify_fleet(
                store_scale_catalog(4), [CrashFreedom()], input_lengths=(64,),
                options=options,
            )
            serial_spans = t.spans()
        assert serial.statistics.pipelines == len(catalog)
        symbex = sorted(
            (s.name, s.args.get("element")) for s in spans if s.category == "symbex"
        )
        serial_symbex = sorted(
            (s.name, s.args.get("element")) for s in serial_spans if s.category == "symbex"
        )
        assert symbex == serial_symbex


class TestPlacement:
    """Step-2 tasks that compose nothing run in the parent; nothing else may show it."""

    PROPERTIES = [CrashFreedom(), destination_reachability(0x0A000001)]

    def _matrix(self, root):
        """Cold, warm (no verdict store) and delta passes on two workers.

        Over ``fleet_catalog(6)`` and ``store_scale_catalog(20)``, with
        instruction bounds on and off.  Returns, per pass, everything a
        run shows: verdicts, packets, bounds, the fleet counters but
        elapsed time, the scheduler's task count, and every row of the
        three stores.  One worker places every task in the parent, so
        the matrix leaves it out.
        """
        passes = {
            "fleet": (
                lambda: fleet_catalog(6),
                lambda: churned_fleet_catalog(6, "routes", target=0),
            ),
            "scale": (
                lambda: store_scale_catalog(20),
                lambda: _with_one_replaced(
                    store_scale_catalog(20), 3, store_scale_catalog(21)[20]
                ),
            ),
        }
        seen = {}
        for name, (build, changed) in passes.items():
            for bounds in (False, True):
                base = root / f"{name}-{bounds}"
                roots = dict(store=str(base / "s"), query_store=str(base / "q"))
                verdicts = str(base / "v")
                runs = [
                    ("cold", build, dict(roots, verdict_store=verdicts)),
                    ("warm", build, roots),
                    ("delta", changed, dict(roots, verdict_store=verdicts)),
                ]
                for label, catalog, kwargs in runs:
                    report = certify_fleet(
                        catalog(), self.PROPERTIES, input_lengths=(24,), workers=2,
                        instruction_bounds=bounds, **kwargs,
                    )
                    statistics = report.statistics.to_dict()
                    del statistics["elapsed_seconds"]
                    scheduler = report.scheduler
                    seen[name, bounds, label] = dict(
                        verdicts=report.verdicts(),
                        packets=_packets(report),
                        bounds=[
                            c.instruction_bound and c.instruction_bound.bound
                            for c in report.certifications
                        ],
                        statistics=statistics,
                        tasks=scheduler.tasks_dispatched + scheduler.tasks_inline,
                        placed=(scheduler.tasks_dispatched, scheduler.tasks_inline),
                        rows={tier: _rows(base / tier) for tier in ("s", "q", "v")},
                    )
        return seen

    def test_placement_is_invisible(self, four_cpus, monkeypatch, tmp_path):
        """The matrix as shipped equals the matrix with every task in the pool.

        Cyclic GC renumbers simplified terms and so moves query-cache
        counters between runs; it stays off for both matrices.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(scheduler_module, "has_suspect", lambda *args: True)
                pooled = self._matrix(tmp_path / "pooled")
            placed = self._matrix(tmp_path / "placed")
        finally:
            if enabled:
                gc.enable()
        assert placed.keys() == pooled.keys()
        moved = 0
        for key in placed:
            inline = placed[key].pop("placed")[1]
            assert pooled[key].pop("placed")[1] == 0, key
            moved += inline
            assert placed[key] == pooled[key], key
        # Every scale pipeline's Step 2 ran inline, and the two
        # synthetic-3x2 pipelines' of the fleet catalog did too.
        assert placed["scale", False, "cold"]["tasks"] == 26
        assert moved > 0

    def test_only_inline_work_forks_nothing(self, four_cpus, tmp_path):
        roots = dict(
            store=str(tmp_path / "s"), query_store=str(tmp_path / "q"),
            verdict_store=str(tmp_path / "v"),
        )
        cold = certify_fleet(
            store_scale_catalog(20), [CrashFreedom()], input_lengths=(24,), workers=2, **roots
        )
        stats = cold.scheduler
        assert (stats.pools_forked, stats.summary_tasks, stats.tasks_dispatched) == (1, 6, 6)
        assert stats.tasks_inline == stats.verify_tasks == 20
        # A new ordering of elements Step 1 already summarized: one fresh
        # pipeline, no Step-1 job, and a Step 2 that composes nothing.
        catalog = _with_one_replaced(store_scale_catalog(20), 3, store_scale_catalog(21)[20])
        delta = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), workers=2, **roots)
        assert (delta.statistics.verdicts_fresh, delta.statistics.summaries_computed) == (1, 0)
        stats = delta.scheduler
        assert (stats.pools_forked, stats.tasks_inline, stats.tasks_dispatched) == (0, 1, 0)
        assert (stats.workers, stats.workers_spawned) == (2, 0)
        assert delta.certifications[3].certified
        assert not multiprocessing.active_children()

    def test_exactly_the_pipelines_without_suspects_run_inline(self, tmp_path):
        catalog = fleet_catalog(6)
        with active(Tracer()) as t:
            run = run_scheduled(
                catalog, self.PROPERTIES, (24,), SymbexOptions(trace=True), workers=2,
                store=SummaryStore(tmp_path),
            )
            spans = t.spans()
        inline = {
            s.args["label"]
            for s in spans
            if s.name == "scheduler.task" and s.args["kind"] == "verify"
            and s.args["pid"] == os.getpid()
        }
        composed_nothing = {
            catalog[index].name
            for index, (certification, _misses) in run.step2.items()
            if not any(r.statistics.suspect_segments for r in certification.results)
        }
        assert inline == composed_nothing == {"fleet-4-synthetic-3x2"}
        stats = run.statistics
        assert stats.tasks_inline == 1
        assert stats.tasks_dispatched == stats.summary_tasks + 5

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_inline_task_that_raises_fails_the_run_as_a_pool_task_does(
        self, monkeypatch, tmp_path
    ):
        catalog = store_scale_catalog(2)
        certify = fleet_module._certify_one

        def raising(pipeline, *args):
            # Only the first pipeline fails, so two workers that each hold
            # a Step-2 task cannot race to name the failure.
            if pipeline is catalog[0]:
                raise RuntimeError(f"boom at {catalog.index(pipeline)}")
            return certify(pipeline, *args)

        # Both placements certify through this function: the parent calls
        # it over its cache, a pool worker through ``_certify_worker``.
        monkeypatch.setattr(fleet_module, "_certify_one", raising)

        def failure(root, workers=2):
            with _deadline(30), pytest.raises(OrchestratorError) as raised:
                run_scheduled(
                    catalog, [CrashFreedom()], (64,), SymbexOptions(),
                    workers=workers, store=SummaryStore(root),
                )
            assert not multiprocessing.active_children()  # the pool shut down
            return str(raised.value)

        inline = failure(tmp_path / "inline")
        assert inline == "scheduler verify task 'scale-0' failed: RuntimeError: boom at 0"
        assert failure(tmp_path / "one-worker", workers=1) == inline
        with monkeypatch.context() as patch:
            patch.setattr(scheduler_module, "has_suspect", lambda *args: True)
            assert failure(tmp_path / "pooled") == inline

    def test_inline_tasks_leave_the_parents_tracer_alone(self, tmp_path):
        options = SymbexOptions(trace=True)
        catalog = store_scale_catalog(4)
        slow_solve_log().drain()
        slow_solve_log().add({"parent": True})
        with active(Tracer()) as t:
            run = run_scheduled(
                catalog, [CrashFreedom()], (64,), options,
                workers=2, store=SummaryStore(tmp_path / "traced"),
            )
            spans = t.spans()
        assert run.statistics.tasks_inline == len(catalog)
        assert len({(s.pid, s.sid) for s in spans}) == len(spans)  # each span once
        for name in ("fleet.pipeline", "verify.property"):
            recorded = [s for s in spans if s.name == name]
            assert len(recorded) == len(catalog)
            assert all(s.pid == os.getpid() for s in recorded)
        assert slow_solve_log().drain() == [{"parent": True}]
        # Tracing asked for in the options alone: the workers trace, and
        # the parent, which traces nothing, is left with no tracer.
        assert not tracer().enabled
        run = run_scheduled(
            catalog, [CrashFreedom()], (64,), options,
            workers=2, store=SummaryStore(tmp_path / "untraced"),
        )
        assert run.statistics.tasks_inline == len(catalog)
        assert not tracer().enabled

    def test_warm_call_served_whole_opens_no_summary_store(self, four_cpus, monkeypatch, tmp_path):
        verdicts = str(tmp_path / "v")
        certify_fleet(
            store_scale_catalog(20), [CrashFreedom()], input_lengths=(24,), workers=2,
            verdict_store=verdicts,
        )
        opens = Counter()
        real = Store.__init__

        def counting(store, root, readonly=False):
            opens[store.kind] += 1
            real(store, root, readonly)

        monkeypatch.setattr(Store, "__init__", counting)
        warm = certify_fleet(
            store_scale_catalog(20), [CrashFreedom()], input_lengths=(24,), workers=2,
            verdict_store=verdicts,
        )
        assert warm.statistics.verdicts_reused == 20 and warm.scheduler is None
        assert opens == {"verdict store": 1}


def _crash_if_marked(store_root):
    """Hard-kill this process if the sentinel next to the store root exists.

    Exactly one task consumes the sentinel and dies without reporting;
    every retry (fresh attempt tag) runs normally.  ``os._exit`` skips
    worker cleanup on purpose — that is what a segfault looks like to
    the parent.
    """
    sentinel = Path(store_root).parent / "crash-once"
    if sentinel.exists():
        try:
            sentinel.unlink()
        except OSError:  # pragma: no cover - second racer lost; run normally
            pass
        else:
            os._exit(1)


def _crash_once_worker(payload, run):
    """Summary worker that hard-kills its process on the first marked task."""
    _crash_if_marked(run.store_root)
    return _summarize_worker(payload, run)


def _crash_once_verify_worker(index, run):
    """Step-2 twin of :func:`_crash_once_worker`."""
    _crash_if_marked(run.store_root)
    return _certify_worker(index, run)


def _crash_original_verify_worker(index, run):
    """Step-2 worker that hard-kills each of the pool's first workers on its first task.

    Their pids are listed in ``originals`` next to the store root; the
    pids that certify are appended to ``certified`` there.
    """
    root = Path(run.store_root).parent
    if str(os.getpid()) in (root / "originals").read_text().split():
        os._exit(1)
    result = _certify_worker(index, run)
    with open(root / "certified", "a") as out:
        out.write(f"{os.getpid()}\n")
    return result


def _result_then_exit(payload, run):
    """Return ``payload``; the worker dies 0.2 s later, after sending it."""
    threading.Timer(0.2, os._exit, (1,)).start()
    return payload


def _big_result_then_exit(payload, run):
    """A result far larger than a pipe holds; the worker dies while sending it."""
    threading.Timer(0.3, os._exit, (1,)).start()
    return b"x" * (8 << 20)


def _slow_identity(payload, run):
    time.sleep(0.3)
    return payload


def _lock_verify_worker(index, run):
    """Step-2 worker whose result holds a lock, which pickle refuses."""
    return {"index": index, "lock": threading.Lock()}


@contextmanager
def _deadline(seconds: int):
    """Fail the enclosed block with ``TimeoutError`` after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
