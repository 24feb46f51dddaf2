"""The observability layer: span tracing, unified statistics.

Covers the :mod:`repro.obs` package itself (tracer semantics, export
round-trips, the statistics mixin, the slow-solve log) and its
integration with the certification stack: SAT-core solve spans,
fork-worker span shipping, traced fleet certification, the persisted
query-store metrics, and the CLI surfaces (``certify --trace``,
``trace summary``, ``store stats``).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.obs.slowlog import (
    sat_observer,
    set_slow_threshold_ms,
    slice_context,
    slow_solve_log,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    Tracer,
    active,
    enable,
    install,
    load_trace,
    summarize_spans,
    tracer,
)


@pytest.fixture(autouse=True)
def _reset_obs():
    """Every test leaves the process-wide tracer/slow-log state disabled."""
    yield
    install(NULL_TRACER)
    set_slow_threshold_ms(None)
    slow_solve_log().drain()


class TestTracer:
    def test_nested_spans_record_parent_links(self):
        t = Tracer()
        with t.span("outer", "fleet", pipeline="p0") as outer:
            with t.span("inner", "verify"):
                pass
            outer.set(extra=1)
        spans = t.spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # closed in exit order
        inner, outer_span = spans
        assert inner.parent == outer_span.sid
        assert outer_span.parent is None
        assert outer_span.args == {"pipeline": "p0", "extra": 1}
        assert inner.start >= outer_span.start and inner.end <= outer_span.end

    def test_events_are_zero_duration(self):
        t = Tracer()
        t.event("qcache.hit", "qcache", tier="exact")
        (span,) = t.spans()
        assert span.is_event and span.duration == 0.0
        assert span.args == {"tier": "exact"}

    def test_ring_buffer_bounds_retention(self):
        t = Tracer(capacity=4)
        for index in range(10):
            t.event(f"e{index}")
        assert [s.name for s in t.spans()] == ["e6", "e7", "e8", "e9"]

    def test_drain_empties_and_ingest_restores(self):
        t = Tracer()
        t.event("a")
        t.event("b")
        payloads = t.drain()
        assert len(t) == 0 and len(payloads) == 2
        assert t.ingest(payloads) == 2
        assert [s.name for s in t.spans()] == ["a", "b"]

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("x", "y", a=1) as handle:
            handle.set(b=2)  # no-op, no error
        NULL_TRACER.event("x")
        assert NULL_TRACER.spans() == [] and NULL_TRACER.drain() == []

    def test_enable_is_idempotent_and_active_scopes(self):
        assert tracer() is NULL_TRACER
        with active(Tracer()) as scoped:
            assert tracer() is scoped
            assert enable() is scoped  # already tracing: keeps the installed one
        assert tracer() is NULL_TRACER

    def test_spans_survive_threads(self):
        import threading

        t = Tracer()

        def record(index: int) -> None:
            with t.span(f"thread-{index}", "test"):
                pass

        threads = [threading.Thread(target=record, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = t.spans()
        assert len(spans) == 8
        assert len({s.sid for s in spans}) == 8
        assert all(s.parent is None for s in spans)  # stacks are per-thread


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        with t.span("verify.property", "verify", pipeline="p"):
            t.event("qcache.hit", "qcache", tier="exact")
        path = tmp_path / "trace.jsonl"
        assert t.export_jsonl(path) == 2
        loaded = load_trace(path)
        assert [(s.name, s.category) for s in loaded] == [
            ("qcache.hit", "qcache"),
            ("verify.property", "verify"),
        ]
        original = {s.sid: s for s in t.spans()}
        for span in loaded:
            assert span.start == original[span.sid].start
            assert span.args == original[span.sid].args

    def test_chrome_round_trip_is_perfetto_loadable(self, tmp_path):
        t = Tracer()
        with t.span("fleet.certify", "fleet", pipelines=2):
            t.event("cache.miss", "cache", element="e")
        path = tmp_path / "trace.json"
        assert t.export_chrome(path) == 2
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert {event["ph"] for event in events} == {"X", "i"}
        assert all(event["ts"] >= 0 for event in events)  # origin-relative
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["dur"] >= 0 and complete["args"] == {"pipelines": 2}
        # And the autodetecting loader reads it back with durations intact.
        loaded = load_trace(path)
        assert len(loaded) == 2
        reloaded = next(s for s in loaded if s.name == "fleet.certify")
        original = next(s for s in t.spans() if s.name == "fleet.certify")
        assert reloaded.duration == pytest.approx(original.duration, abs=1e-5)

    def test_summarize_spans_breaks_down_phases(self):
        spans = [
            Span("verify.property", "verify", 0.0, 2.0, 1, 1, 1, args={"pipeline": "p0"}),
            Span("verify.property", "verify", 2.0, 3.0, 1, 1, 2, args={"pipeline": "p1"}),
            Span("symbex.element", "symbex", 0.5, 1.0, 1, 1, 3, args={"element": "e0"}),
            Span("qcache.hit", "qcache", 1.0, 1.0, 1, 1, 4, args={"tier": "exact"}),
        ]
        summary = summarize_spans(spans)
        assert summary["spans"] == 3 and summary["events"] == 1
        assert summary["wall_seconds"] == pytest.approx(3.0)
        assert summary["phases"]["verify"] == {"count": 2, "seconds": pytest.approx(3.0)}
        assert summary["phases"]["qcache"]["seconds"] == 0.0
        assert summary["pipelines"] == {"p0": pytest.approx(2.0), "p1": pytest.approx(1.0)}
        assert summary["elements"] == {"e0": pytest.approx(0.5)}


def _all_statistics_classes():
    from repro.dataplane.driver import DriverStatistics
    from repro.orchestrator.fleet import FleetStatistics
    from repro.orchestrator.store import StoreStatistics
    from repro.smt.context import ContextStatistics
    from repro.smt.qcache import QueryCacheStatistics
    from repro.smt.solver import SolverStatistics
    from repro.verify.cache import CacheStatistics
    from repro.verify.monolithic import MonolithicStatistics
    from repro.verify.report import VerificationStatistics

    return [
        SolverStatistics,
        ContextStatistics,
        QueryCacheStatistics,
        CacheStatistics,
        StoreStatistics,
        VerificationStatistics,
        MonolithicStatistics,
        FleetStatistics,
        DriverStatistics,
    ]


def _populated(cls, salt: int = 1):
    """An instance with every field set to a distinctive non-default value."""
    values = {}
    for index, spec in enumerate(dataclasses.fields(cls)):
        default = getattr(cls(), spec.name)
        if isinstance(default, bool):
            values[spec.name] = True
        elif isinstance(default, int):
            values[spec.name] = salt * 100 + index
        elif isinstance(default, float):
            values[spec.name] = salt + index / 8.0
        elif isinstance(default, dict):
            values[spec.name] = {"a": salt, "b": salt * 2}
        else:  # pragma: no cover - no such field exists today
            raise AssertionError(f"unhandled field type on {cls.__name__}.{spec.name}")
    return cls(**values)


class TestStatisticsMixin:
    @pytest.mark.parametrize(
        "cls", _all_statistics_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_statistics_class_round_trips(self, cls):
        """All nine *Statistics classes: to_dict -> from_dict is identity."""
        original = _populated(cls)
        payload = original.to_dict()
        assert json.loads(json.dumps(payload)) == payload  # plain JSON
        assert set(payload) == {spec.name for spec in dataclasses.fields(cls)}
        assert cls.from_dict(payload) == original

    @pytest.mark.parametrize(
        "cls", _all_statistics_classes(), ids=lambda cls: cls.__name__
    )
    def test_from_dict_tolerates_missing_and_unknown_keys(self, cls):
        assert cls.from_dict({}) == cls()
        assert cls.from_dict({"not_a_field": 9}) == cls()

    def test_merge_sums_ors_and_key_sums(self):
        from repro.verify.report import VerificationStatistics

        left = VerificationStatistics(
            solver_checks=3,
            elapsed_seconds=1.5,
            per_element_segments={"a": 2},
            budget_exceeded=False,
        )
        right = VerificationStatistics(
            solver_checks=4,
            elapsed_seconds=0.5,
            per_element_segments={"a": 1, "b": 5},
            budget_exceeded=True,
        )
        merged = left.merge(right)
        assert merged is left
        assert left.solver_checks == 7
        assert left.elapsed_seconds == pytest.approx(2.0)
        assert left.per_element_segments == {"a": 3, "b": 5}
        assert left.budget_exceeded is True

    def test_merge_max_keeps_high_water_marks(self):
        from repro.dataplane.driver import DriverStatistics
        from repro.orchestrator.fleet import FleetStatistics

        driver = DriverStatistics(total_instructions=10, max_instructions=40)
        driver.merge(DriverStatistics(total_instructions=5, max_instructions=25))
        assert driver.total_instructions == 15  # sums
        assert driver.max_instructions == 40  # maxes

        fleet = FleetStatistics(pipelines=2, workers=4)
        fleet.merge(FleetStatistics(pipelines=3, workers=2))
        assert fleet.pipelines == 5 and fleet.workers == 4


class TestSlowSolveLog:
    def test_threshold_zero_records_every_solve(self):
        set_slow_threshold_ms(0.0)
        observer = sat_observer("reference")
        assert observer is not None
        observer.finish("sat", conflicts=3, decisions=5, restarts=1, assumptions=2)
        (record,) = slow_solve_log().drain()
        assert record["backend"] == "reference" and record["result"] == "sat"
        assert record["conflicts"] == 3 and record["decisions"] == 5
        assert record["restarts"] == 1 and record["assumptions"] == 2
        assert record["elapsed_ms"] >= 0.0
        assert record["slice_fingerprint"] is None  # no provider in scope

    def test_fingerprint_provider_runs_lazily(self):
        set_slow_threshold_ms(0.0)
        calls = []

        def provider():
            calls.append(1)
            return "deadbeef"

        with slice_context(provider):
            assert not calls  # never eager
            observer = sat_observer("array")
            observer.finish("unsat", 0, 0, 0)
        (record,) = slow_solve_log().drain()
        assert record["slice_fingerprint"] == "deadbeef" and len(calls) == 1

    def test_observer_absent_when_nothing_watches(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_SOLVE_MS", raising=False)
        assert sat_observer("reference") is None  # tracing off, no threshold

    def test_env_threshold_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_SOLVE_MS", "0")
        observer = sat_observer("reference")
        assert observer is not None
        observer.finish("sat", 0, 0, 0)
        assert len(slow_solve_log()) == 1
        monkeypatch.setenv("REPRO_SLOW_SOLVE_MS", "not-a-number")
        slow_solve_log().drain()
        assert sat_observer("reference") is None


class TestSatInstrumentation:
    def test_both_sat_cores_emit_solve_spans(self):
        from repro.smt.sat import SATSolver
        from repro.smt.satcore import ArraySolver

        with active(Tracer()) as t:
            reference = SATSolver(2)
            reference.add_clause([1, 2])
            reference.add_clause([-1])
            assert reference.solve() == "sat"
            array = ArraySolver(2)
            array.add_clause([1])
            assert array.solve() == "sat"
        solves = [s for s in t.spans() if s.name == "sat.solve"]
        assert {s.args["backend"] for s in solves} == {"reference", "array"}
        assert all(s.category == "sat" and s.args["result"] == "sat" for s in solves)

    def test_disabled_tracer_keeps_solver_results_identical(self):
        from repro.smt.sat import SATSolver

        solver = SATSolver(2)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() == "unsat"  # early-return path, no observer


class TestWorkerShipping:
    def _run(self, options, root):
        """fleet_catalog(1) through a two-worker pool: two summary tasks, one verify."""
        from repro.orchestrator import SummaryStore, run_scheduled
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        return run_scheduled(
            fleet_catalog(1), [CrashFreedom()], (24,), options,
            workers=2, store=SummaryStore(root),
        )

    def test_forked_workers_ship_spans_exactly_once(self, tmp_path):
        from repro.symbex.engine import SymbexOptions

        options = dataclasses.replace(SymbexOptions(), trace=True)
        with active(Tracer()) as t:
            run = self._run(options, tmp_path)
            spans = t.spans()
        assert run.computed == 2
        elements = [s for s in spans if s.name == "symbex.element"]
        assert len(elements) == 2  # one per job, no duplicates
        assert len({(s.pid, s.sid) for s in spans}) == len(spans)
        # Workers recorded them: the pids are the children's, not ours.
        assert all(s.pid != os.getpid() for s in elements)

    def test_parallel_and_serial_runs_trace_the_same_work(self, tmp_path):
        from repro.orchestrator import certify_fleet
        from repro.symbex.engine import SymbexOptions
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        options = dataclasses.replace(SymbexOptions(), trace=True)

        def work(spans):
            # Cache events differ by design: pool tasks rehydrate from the
            # store where the parent's tasks hit its run-wide cache.
            return sorted(
                (s.name, s.args.get("element"))
                for s in spans
                if s.category in ("symbex", "verify")
            )

        with active(Tracer()) as t:
            certify_fleet(fleet_catalog(1), [CrashFreedom()], input_lengths=(24,), options=options)
            serial = work(t.spans())
        with active(Tracer()) as t:
            self._run(options, tmp_path)
            pooled = work(t.spans())
        assert pooled == serial

    def test_disabled_tracer_ships_no_observability(self, tmp_path):
        from repro.orchestrator.workers import PoolRun, _summarize_worker
        from repro.symbex.engine import SymbexOptions
        from repro.workloads import fleet_catalog

        element = fleet_catalog(1)[0].elements[0]
        status, _text, _writes, extras = _summarize_worker(
            (element, 24), PoolRun((), (), (), SymbexOptions(), str(tmp_path))
        )
        assert status == "computed"
        # Tracing off: no span or slow-log keys ride along.  The query-tier
        # counters still do — they feed the persisted store metrics, which
        # accumulate whether or not anyone is tracing.
        assert "spans" not in extras and "slow" not in extras

    def test_forked_workers_ship_slow_records(self, tmp_path):
        from repro.symbex.engine import SymbexOptions

        set_slow_threshold_ms(0.0)
        run = self._run(SymbexOptions(), tmp_path)
        assert run.computed == 2
        records = slow_solve_log().drain()
        assert records  # the children's threshold crossings arrived here
        assert all("backend" in record for record in records)


class TestTracedCertification:
    def test_traced_fleet_run_matches_reported_statistics(self):
        from repro.orchestrator import certify_fleet
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        t = Tracer()
        report = certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), trace=t
        )
        assert all(c.certified for c in report.certifications)
        summary = t.summary()
        assert summary["phases"]["fleet"]["count"] >= 3  # certify + per-pipeline
        assert set(summary["pipelines"]) == {
            c.pipeline_name for c in report.certifications
        }
        # The acceptance bar: per-phase span totals reconcile with the
        # statistics the verifier reports through its own counters.
        reported = sum(
            result.statistics.elapsed_seconds
            for certification in report.certifications
            for result in certification.results
        )
        assert summary["phases"]["verify"]["seconds"] == pytest.approx(
            reported, rel=0.10
        )
        certify_span = next(s for s in t.spans() if s.name == "fleet.certify")
        assert certify_span.duration == pytest.approx(
            report.statistics.elapsed_seconds, rel=0.10
        )

    def test_trace_true_installs_a_scoped_tracer(self):
        from repro.orchestrator import certify_fleet
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        report = certify_fleet(
            fleet_catalog(1), [CrashFreedom()], input_lengths=(24,), trace=True
        )
        assert report.certifications[0].certified
        assert tracer() is NULL_TRACER  # scope restored after the run

    def test_untraced_run_records_nothing(self):
        from repro.orchestrator import certify_fleet
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        certify_fleet(fleet_catalog(1), [CrashFreedom()], input_lengths=(24,))
        assert tracer() is NULL_TRACER and NULL_TRACER.spans() == []

    def test_trace_option_does_not_poison_store_keys(self):
        from repro.orchestrator.store import summary_key
        from repro.symbex.engine import SymbexOptions
        from repro.workloads import fleet_catalog

        element = fleet_catalog(1)[0].elements[0]
        plain = summary_key(element, 24, SymbexOptions())
        traced = summary_key(element, 24, dataclasses.replace(SymbexOptions(), trace=True))
        assert plain == traced


class TestQueryStoreMetrics:
    def test_record_metrics_accumulates_across_runs(self, tmp_path):
        from repro.orchestrator.store import QueryStore

        store = QueryStore(tmp_path)
        assert store.load_metrics() == {}
        store.record_metrics({"checks": 10, "slices": 20, "exact_hits": 5})
        totals = store.record_metrics({"checks": 2, "slices": 4, "exact_hits": 1})
        assert totals["checks"] == 12 and totals["slices"] == 24
        assert totals["exact_hits"] == 6 and totals["runs"] == 2
        assert store.load_metrics() == totals

    def test_certify_fleet_persists_tier_counters(self, tmp_path):
        """The persisted tier counters and the report's solver work have
        one owner, the run's query caches — also when an element blows
        its budget and leaves no summary behind."""
        from repro.orchestrator import certify_fleet
        from repro.orchestrator.store import QueryStore
        from repro.symbex.engine import SymbexOptions
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog, synthetic_pipeline

        tiers = ("exact_hits", "model_reuse_hits", "l3_hits")
        inputs = {
            # The interval quick check decides one of this catalog's slices,
            # so its cache counts more slices solved than CDCL searches.
            "fleet": (fleet_catalog(3), (24,), SymbexOptions()),
            "exploded": (
                [synthetic_pipeline(4, 3)], (12,), SymbexOptions(max_paths=4, merge="off")
            ),
        }
        for name, (catalog, lengths, options) in inputs.items():
            report = certify_fleet(
                catalog,
                [CrashFreedom()],
                input_lengths=lengths,
                options=options,
                store=str(tmp_path / name / "s"),
                query_store=str(tmp_path / name / "q"),
            )
            metrics = QueryStore(tmp_path / name / "q").load_metrics()
            assert metrics["runs"] == 1
            assert metrics["slices"] > 0 and metrics["checks"] > 0
            assert metrics["sat_core_calls"] == report.statistics.sat_core_calls, name
            assert sum(metrics[tier] for tier in tiers) == report.statistics.qcache_hits > 0, name
        assert report.verdicts()[0][2] == "unknown"  # the budget really blew
        # Over a warm summary store Step 1 does no solver work, so every
        # search runs inside some verify call, and the results' query-cache
        # deltas partition the run's count.  (A blown budget stores no
        # summary, so only the fleet catalog's Step 1 is served whole.)
        catalog, lengths, options = inputs["fleet"]
        warm = certify_fleet(
            catalog,
            [CrashFreedom()],
            input_lengths=lengths,
            options=options,
            store=str(tmp_path / "fleet" / "s"),
            query_store=str(tmp_path / "fresh"),
        )
        assert warm.statistics.summaries_computed == 0
        results = [r.statistics for c in warm.certifications for r in c.results]
        assert sum(r.sat_core_calls for r in results) == warm.statistics.sat_core_calls > 0
        assert sum(r.qcache_hits for r in results) == warm.statistics.qcache_hits > 0

    def test_cold_certify_prices_the_tiers_it_ran(self, tmp_path):
        """A cold run with a query store asks model reuse and the solver,
        and its metrics row carries the seconds each took; the seconds
        fold across runs like the hit counters."""
        from repro.orchestrator import certify_fleet
        from repro.orchestrator.store import QueryStore
        from repro.verify import CrashFreedom
        from repro.workloads import fleet_catalog

        root = tmp_path / "q"
        certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), query_store=str(root)
        )
        cold = QueryStore(root).load_metrics()
        assert cold["model_reuse_hits"] > 0 and cold["model_reuse_seconds"] > 0.0
        assert cold["solved"] > 0 and cold["solve_seconds"] > 0.0
        assert cold["l3_seconds"] > 0.0  # every miss probed the store first
        certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), query_store=str(root)
        )
        both = QueryStore(root).load_metrics()
        assert both["runs"] == 2
        for field in ("model_reuse_seconds", "l3_seconds", "solve_seconds"):
            assert both[field] >= cold[field]

    def test_store_io_uses_monotonic_clock(self, tmp_path):
        from repro.orchestrator.store import QueryStore

        store = QueryStore(tmp_path)
        store.save_payload("ab" * 32, {"status": "sat"})
        assert store.statistics.puts == 1
        assert store.statistics.io_seconds > 0.0


class TestCli:
    def test_certify_trace_exports_and_summarizes(self, tmp_path, capsys):
        from repro.cli.main import EXIT_OK, main

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "certify",
                "--catalog", "fleet:2",
                "--lengths", "24",
                "--trace", str(trace_path),
                "--json",
            ]
        )
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["trace"]["format"] == "chrome"
        assert document["trace"]["summary"]["spans"] > 0
        assert load_trace(trace_path)  # Perfetto-format file round-trips

        code = main(["trace", "summary", str(trace_path), "--json"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert {"fleet", "verify"} <= set(summary["phases"])

    def test_certify_trace_jsonl_format(self, tmp_path, capsys):
        from repro.cli.main import EXIT_OK, main

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "certify",
                "--catalog", "fleet:1",
                "--lengths", "24",
                "--trace", str(trace_path),
                "--trace-format", "jsonl",
            ]
        )
        assert code == EXIT_OK
        assert "trace      :" in capsys.readouterr().out
        spans = load_trace(trace_path)
        assert any(s.name == "fleet.certify" for s in spans)

    def test_trace_summary_rejects_empty_and_missing_traces(self, tmp_path, capsys):
        from repro.cli.main import EXIT_UNKNOWN, EXIT_USAGE, main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summary", str(empty)]) == EXIT_UNKNOWN
        capsys.readouterr()
        assert main(["trace", "summary", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_store_stats_prints_tier_hit_rates(self, tmp_path, capsys):
        from repro.cli.main import EXIT_OK, main
        from repro.orchestrator.store import QueryStore

        QueryStore(tmp_path).record_metrics(
            {
                "checks": 10,
                "slices": 100,
                "exact_hits": 50,
                "model_reuse_hits": 10,
                "l3_hits": 0,
                "model_reuse_seconds": 0.25,
                "l3_seconds": 0.0,
                "solve_seconds": 1.5,
            }
        )
        code = main(["store", "stats", "--query-store", str(tmp_path), "--json"])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        rates = document["stores"]["query"]["tier_rates"]
        assert sorted(rates) == ["exact", "l3", "model-reuse", "overall"]
        assert rates["exact"] == pytest.approx(0.5)
        assert rates["model-reuse"] == pytest.approx(0.1)
        assert rates["l3"] == pytest.approx(0.0)
        assert rates["overall"] == pytest.approx(0.6)
        assert document["stores"]["query"]["tier_seconds"] == {
            "model-reuse": 0.25, "l3": 0.0, "solve": 1.5,
        }

        code = main(["store", "stats", "--query-store", str(tmp_path)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "tier hit rates" in text and "exact 50.0%" in text
        assert "tier seconds: model-reuse 0.250 s, l3 0.000 s, solve 1.500 s" in text
