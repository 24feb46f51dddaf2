"""Tests for the fleet orchestrator: serialization, store, worker tasks, fleet API."""

import dataclasses
import json
import sqlite3
import time

import pytest

from repro import smt
from repro.orchestrator import (
    DELTA_REUSED,
    FORMAT_VERSION,
    RECORD_VERSION,
    SQLITE_FILENAME,
    PipelineCertification,
    SummaryStore,
    VerdictStore,
    certify_fleet,
    decode_terms,
    dumps_summary,
    encode_terms,
    loads_summary,
    program_fingerprint,
    run_scheduled,
    summary_key,
    verdict_key,
)
from repro.dataplane.fingerprint import pipeline_fingerprint
from repro.orchestrator.errors import OrchestratorError, SerializationError
from repro.orchestrator.workers import COMPUTED, EXPLODED, LOADED, PoolRun, _summarize_worker
from repro.symbex import SymbexOptions
from repro.symbex.engine import StaticTableMode, SymbolicEngine
from repro.symbex.merge import MergeMode
from repro.verify import CrashFreedom, PipelineVerifier, SummaryCache, destination_reachability
from repro.verify.report import Verdict, VerificationResult
from repro.workloads import fleet_catalog, ip_router_elements, ip_router_pipeline
from repro.workloads.pipelines import SyntheticBranchyElement


CONCRETE = SymbexOptions(static_table_mode="concrete")
HAVOC = SymbexOptions(static_table_mode="havoc")


def _set_row(store, digest, payload=None, mtime=None):
    """Overwrite one stored row behind the store's back, as a torn or aged write would."""
    store.flush()
    connection = sqlite3.connect(str(store.root / SQLITE_FILENAME))
    with connection:
        if payload is not None:
            connection.execute(
                "INSERT OR REPLACE INTO entries (digest, payload, mtime) VALUES (?, ?, ?)",
                (digest, payload, time.time()),
            )
        if mtime is not None:
            connection.execute("UPDATE entries SET mtime=? WHERE digest=?", (mtime, digest))
    connection.close()


def _has_row(store, digest):
    connection = sqlite3.connect(str(store.root / SQLITE_FILENAME))
    try:
        return connection.execute(
            "SELECT 1 FROM entries WHERE digest=?", (digest,)
        ).fetchone() is not None
    finally:
        connection.close()


def _mutable_parts(certification):
    """Every object, list and dict a certification holds, itself included."""
    yield from (certification, certification.results, certification.impact_causes)
    for result in certification.results:
        yield from (result, result.counterexamples, result.notes)
        for counterexample in result.counterexamples:
            yield from (
                counterexample, counterexample.element_path,
                counterexample.required_table_values, counterexample.metadata,
            )
        yield from _statistics_parts(result.statistics)
    bound = certification.instruction_bound
    if bound is not None:
        yield from (bound, bound.per_path_bounds)
        yield from _statistics_parts(bound.statistics)


def _statistics_parts(statistics):
    return (statistics, statistics.per_element_segments, statistics.per_element_seconds)


def _summarize(element, length=24, **options):
    engine = SymbolicEngine(SymbexOptions(**options))
    return engine.summarize_element(
        element.program,
        length,
        tables=element.state.tables(),
        element_name=element.name,
    )


class TestTermSerialization:
    def test_roundtrip_reinterns_to_identical_terms(self):
        x, y = smt.BitVec("x", 8), smt.BitVec("y", 8)
        term = smt.And(smt.ULT(x, 10), smt.Eq(x + y, smt.BitVecVal(3, 8)))
        decoded = decode_terms(encode_terms([term]))[0]
        # Decoding re-interns: the canonical instance is *the same object*.
        assert decoded is term

    def test_shared_subterms_are_emitted_once(self):
        x = smt.BitVec("x", 32)
        shared = (x + 1) * (x + 1)
        sum_term = shared + shared
        payload = encode_terms([smt.Eq(sum_term, smt.BitVecVal(0, 32))])
        # Node count equals the DAG size, not the tree size.
        root = decode_terms(payload)[0]
        assert len(payload["nodes"]) == root.size()

    def test_multiple_roots_share_one_table(self):
        x = smt.BitVec("x", 8)
        a, b = smt.ULT(x, 5), smt.ULE(x, 5)
        payload = encode_terms([a, b, a])
        decoded = decode_terms(payload)
        assert decoded[0] is a and decoded[1] is b and decoded[2] is a
        # "x" appears once in the node list despite three roots using it.
        variable_nodes = [n for n in payload["nodes"] if n[0] == smt.Op.BV_VAR]
        assert len(variable_nodes) == 1

    def test_bool_constants_roundtrip(self):
        payload = encode_terms([smt.TRUE, smt.FALSE])
        assert decode_terms(payload) == [smt.TRUE, smt.FALSE]

    def test_version_mismatch_raises(self):
        payload = encode_terms([smt.TRUE])
        payload["version"] = 999
        with pytest.raises(SerializationError):
            decode_terms(payload)

    def test_forward_reference_rejected(self):
        with pytest.raises(SerializationError):
            decode_terms(
                {
                    "version": FORMAT_VERSION,
                    "nodes": [["bvadd", 8, [1, 1], None, None, []]],
                    "roots": [0],
                }
            )


class TestSummarySerialization:
    def test_roundtrip_preserves_segments(self):
        element = ip_router_elements(3)[0]  # CheckIPHeader
        summary = _summarize(element)
        loaded = loads_summary(dumps_summary(summary))
        assert loaded.element_name == summary.element_name
        assert loaded.input_length == summary.input_length
        assert len(loaded.segments) == len(summary.segments)
        for fresh, roundtripped in zip(summary.segments, loaded.segments):
            assert roundtripped.constraint is fresh.constraint  # re-interned
            assert roundtripped.outcome == fresh.outcome
            assert roundtripped.port == fresh.port
            assert roundtripped.instructions == fresh.instructions
            assert tuple(roundtripped.output_bytes) == tuple(fresh.output_bytes)

    def test_roundtrip_preserves_havoc_and_table_writes(self):
        # NetFlow reads and writes its private flow table.
        from repro.dataplane.elements import NetFlow

        summary = _summarize(NetFlow(name="nf"), length=24)
        loaded = loads_summary(dumps_summary(summary))
        fresh_havocs = [s.havoc_reads for s in summary.segments]
        loaded_havocs = [s.havoc_reads for s in loaded.segments]
        assert loaded_havocs == fresh_havocs
        assert any(s.table_writes for s in loaded.segments)

    def test_loaded_summaries_verify_identically(self):
        """The tentpole invariant: verification over loaded summaries equals
        verification over freshly computed ones — verdicts and packets."""
        pipeline = ip_router_pipeline(length=3)
        fresh_verifier = PipelineVerifier(pipeline, options=SymbexOptions())
        fresh = fresh_verifier.verify(CrashFreedom(), input_lengths=[24])

        # Round-trip every cached summary through JSON into a new cache.
        seeded = SummaryCache(SymbexOptions())
        elements = {element.name: element for element in pipeline.elements}
        for (config_key, length, _mode), summary in fresh_verifier.cache._summaries.items():
            loaded = loads_summary(dumps_summary(summary))
            seeded.seed(elements[loaded.element_name], length, loaded)

        pipeline_again = ip_router_pipeline(length=3)
        reverifier = PipelineVerifier(pipeline_again, options=SymbexOptions(), cache=seeded)
        again = reverifier.verify(CrashFreedom(), input_lengths=[24])
        assert seeded.statistics.misses == 0  # nothing re-executed
        assert again.verdict == fresh.verdict
        assert [c.packet for c in again.counterexamples] == [
            c.packet for c in fresh.counterexamples
        ]


class TestSummaryStore:
    def test_save_load(self, tmp_path):
        element = ip_router_elements(1)[0]
        summary = _summarize(element)
        store = SummaryStore(tmp_path / "store")
        digest = store.save(element, 24, CONCRETE, summary)
        assert len(store) == 1
        loaded = store.load(element, 24, CONCRETE)
        assert loaded is not None and len(loaded.segments) == len(summary.segments)
        assert store.statistics.hits == 1 and store.statistics.puts == 1
        assert store.load_digest(digest) is not None

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        assert store.load(element, 24, CONCRETE) is None
        digest = store.save(element, 24, CONCRETE, _summarize(element))
        _set_row(store, digest, "{not json")
        assert store.load(element, 24, CONCRETE) is None
        assert store.statistics.quarantined == 1
        # Version-mismatched payloads are also treated as misses.
        _set_row(store, digest, json.dumps({"version": 999}))
        assert store.load(element, 24, CONCRETE) is None
        assert store.statistics.quarantined == 2

    def test_corrupt_entries_are_quarantined_not_reparsed(self, tmp_path):
        # A corrupt entry must not stay in place, or every warm run would
        # re-read and re-parse the same garbage: the first detection
        # deletes the row, and later loads are plain misses.
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        digest = store.save(element, 24, CONCRETE, _summarize(element))
        _set_row(store, digest, "{not json")

        assert store.load(element, 24, CONCRETE) is None
        assert store.statistics.quarantined == 1
        assert not _has_row(store, digest)  # the garbage is gone
        assert len(store) == 0  # quarantined entries are not live entries

        # The second load never touches the garbage again: a plain miss,
        # no new corruption detected.
        assert store.load(element, 24, CONCRETE) is None
        assert store.statistics.quarantined == 1
        assert store.statistics.misses == 2

        # Recomputing writes the digest again; a quarantined row leaves no
        # debris for gc to sweep.
        store.save(element, 24, CONCRETE, _summarize(element))
        assert store.load(element, 24, CONCRETE) is not None
        result = store.gc()
        assert result.removed_debris == 0 and result.kept_entries == 1

    def test_gc_evicts_old_entries(self, tmp_path):
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        digest = store.save(element, 24, CONCRETE, _summarize(element))
        # Two hours: older than the hour-grained read-touch granularity.
        old = time.time() - 7200
        _set_row(store, digest, mtime=old)
        kept = store.gc(older_than_seconds=3 * 3600)
        assert kept.removed_entries == 0 and kept.kept_entries == 1
        # A hit refreshes the mtime: entries that are *read* stay warm, so
        # "older than" means "not touched", not "not rewritten".
        assert store.load(element, 24, CONCRETE) is not None
        assert store.gc(older_than_seconds=3600).removed_entries == 0
        _set_row(store, digest, mtime=old)
        swept = store.gc(older_than_seconds=60)
        assert swept.removed_entries == 1 and swept.bytes_freed > 0
        assert len(store) == 0

    def test_key_distinguishes_length_mode_and_config(self):
        a, b = SyntheticBranchyElement(2, name="a"), SyntheticBranchyElement(3, name="b")
        assert summary_key(a, 24, CONCRETE) != summary_key(a, 32, CONCRETE)
        assert summary_key(a, 24, CONCRETE) != summary_key(a, 24, HAVOC)
        assert summary_key(a, 24, CONCRETE) != summary_key(b, 24, CONCRETE)

    #: Every ``SymbexOptions`` field: a value other than its default, and
    #: the store keys that value must move.  Options that shape summary or
    #: verdict content partition those stores; budgets that raise instead
    #: of producing a result, the L3 directory and tracing move neither.
    OPTION_EFFECTS = {
        "max_paths": (7, set()),
        "max_seconds": (1.5, set()),
        "static_table_mode": (StaticTableMode.HAVOC, {"summary", "verdict"}),
        "solver_max_conflicts": (10, {"summary", "verdict"}),
        "query_cache_dir": ("l3", set()),
        "trace": (True, set()),
        "merge": (MergeMode.OFF, {"summary", "verdict"}),
        "merge_max_ites": (8, {"summary", "verdict"}),
    }

    def test_key_covers_summary_shaping_options(self):
        pipeline = ip_router_pipeline(length=2, name="opts")
        element = pipeline.element("lookup")

        def keys(options):
            concrete = options.static_table_mode == StaticTableMode.CONCRETE
            return {
                "summary": summary_key(element, 24, options),
                "verdict": verdict_key(
                    pipeline_fingerprint(pipeline, concrete), [CrashFreedom()], (24,),
                    options, 3, True, False,
                ),
            }

        default = SymbexOptions()
        base = keys(default)
        fields = [f.name for f in dataclasses.fields(SymbexOptions)]
        assert sorted(fields) == sorted(self.OPTION_EFFECTS), "list every option's effect"
        for name in fields:
            value, moves = self.OPTION_EFFECTS[name]
            assert value != getattr(default, name)
            moved = keys(dataclasses.replace(default, **{name: value}))
            assert {tier for tier in base if moved[tier] != base[tier]} == moves, name

    def test_key_unchanged_for_default_options(self):
        # Pinned digest: an accidental change to the key material (a new
        # field, a reordering, a format bump) re-keys every stored summary.
        # It moved once on purpose when the configuration key left the
        # element fingerprint.
        element = SyntheticBranchyElement(2, name="opts")
        assert summary_key(element, 24, SymbexOptions()) == (
            "c833721337b37bc7d43c427f289d114cc15c6c70c545e67f440567439b5f39d5"
        )

    def test_key_covers_static_table_contents(self, tmp_path):
        # Two elements with identical programs but different *static
        # table contents* must not share a store entry in concrete mode:
        # the contents are baked into the summary terms, so serving one
        # for the other is unsound.
        from repro.dataplane import Element
        from repro.dataplane.state import ElementState, StaticExactTable
        from repro.ir import ElementProgram, ProgramBuilder

        class StaticMarker(Element):
            def __init__(self, entries, name=None):
                super().__init__(name=name)
                self.entries = entries

            def build_program(self) -> ElementProgram:
                builder = ProgramBuilder(self.name)
                builder.declare_table("marks", kind="static")
                key = builder.let("key", builder.load(0, 1))
                value, found = builder.table_read("marks", key, "mark", "mark_found")
                with builder.if_(found):
                    builder.store(1, 1, value)
                builder.emit(0)
                return builder.build()

            def create_state(self) -> ElementState:
                state = ElementState()
                state.add_table("marks", StaticExactTable(self.entries))
                return state

        first = StaticMarker({1: 2}, name="m1")
        second = StaticMarker({1: 3}, name="m2")
        assert summary_key(first, 24, CONCRETE) != summary_key(second, 24, CONCRETE)
        # Under havoc'd tables the contents are unobservable: keys may share.
        assert summary_key(first, 24, HAVOC) == summary_key(second, 24, HAVOC)

        store = SummaryStore(tmp_path)
        store.save(first, 24, CONCRETE, _summarize(first))
        assert store.load(second, 24, CONCRETE) is None  # no stale hit

    def test_key_ignores_instance_names(self):
        # Same configuration, different instance names -> same store entry,
        # even for programs whose loop ids embed the element name.
        from repro.dataplane.elements import CheckIPHeader

        first = CheckIPHeader(name="check_a", verify_checksum=True)
        second = CheckIPHeader(name="check_b", verify_checksum=True)
        assert program_fingerprint(first) == program_fingerprint(second)
        assert summary_key(first, 24, CONCRETE) == summary_key(second, 24, CONCRETE)

    def test_key_ignores_names_that_occur_in_the_render(self):
        # A one-letter name like "e" appears all over a naive repr render
        # ("PacketLength", "Reg") — the fingerprint must not depend on it.
        from repro.dataplane.elements import Classifier

        short = Classifier(["16/06"], name="e")
        longer = Classifier(["16/06"], name="zz")
        assert program_fingerprint(short) == program_fingerprint(longer)

    def test_key_distinguishes_branch_body_configuration(self):
        # If/While repr abbreviates nested blocks; the fingerprint render
        # must recurse into them, or configs differing only inside a
        # branch body would share (and poison) one summary.
        from repro.dataplane import Element
        from repro.ir import ElementProgram, ProgramBuilder

        class Masker(Element):
            def __init__(self, mask, name=None):
                super().__init__(name=name)
                self.mask = mask

            def build_program(self) -> ElementProgram:
                builder = ProgramBuilder(self.name)
                value = builder.let("value", builder.load(0, 1))
                with builder.if_(value > 0):
                    builder.store(1, 1, builder.load(1, 1) & self.mask)
                builder.emit(0)
                return builder.build()

        first, second = Masker(0x10, name="a"), Masker(0xF0, name="b")
        assert program_fingerprint(first) != program_fingerprint(second)
        assert summary_key(first, 4, CONCRETE) != summary_key(second, 4, CONCRETE)

    def test_clear(self, tmp_path):
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        store.save(element, 24, CONCRETE, _summarize(element))
        assert store.clear() == 1
        assert len(store) == 0


class TestDecodeMemo:
    """Loads decode each unchanged entry once per process, and never serve stale text."""

    def test_warm_passes_decode_each_entry_once(self, summary_decodes, tmp_path):
        catalog = fleet_catalog(4)
        queries = str(tmp_path / "q")
        cold = certify_fleet(
            catalog, [CrashFreedom()], input_lengths=(24,), store=str(tmp_path / "s"),
            query_store=queries,
        )
        assert summary_decodes == []  # computed summaries are not decoded
        entries = cold.statistics.summaries_computed
        warm = []
        for _ in range(2):
            store = SummaryStore(tmp_path / "s")
            warm.append(
                certify_fleet(
                    catalog, [CrashFreedom()], input_lengths=(24,), store=store,
                    query_store=queries,
                )
            )
            # Every load still reads the store and counts its hit.
            assert store.statistics.hits == entries
        assert len(summary_decodes) == entries
        first, second = (report.statistics.to_dict() for report in warm)
        first.pop("elapsed_seconds"), second.pop("elapsed_seconds")
        assert first == second and first["store_hits"] == entries
        assert warm[0].verdicts() == warm[1].verdicts() == cold.verdicts()

    def test_memo_serves_only_the_text_it_decoded(self, summary_decodes, tmp_path):
        import repro.orchestrator.store as store_mod

        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        digest = store.save(element, 24, CONCRETE, _summarize(element))
        store.flush()
        loaded = store.load_digest(digest)
        assert store.load_digest(digest) is loaded
        assert store.load_digests([digest]) == {digest: loaded}
        assert len(summary_decodes) == 1 and store.statistics.hits == 3

        # Rewritten with other text: decoded again, into a new object.
        text = summary_decodes[0]
        _set_row(store, digest, json.dumps(json.loads(text), indent=1))
        reloaded = store.load_digest(digest)
        assert reloaded is not loaded and len(summary_decodes) == 2
        assert len(reloaded.segments) == len(loaded.segments)

        # Cleared, deleted or quarantined: a miss, though the memo holds the digest.
        def absent():
            misses = store.statistics.misses
            assert digest in store_mod._decoded_summaries._entries
            assert store.load_digest(digest) is None
            assert store.load_digests([digest]) == {}
            assert store.statistics.misses == misses + 2

        store.clear()
        absent()
        _set_row(store, digest, text)
        connection = sqlite3.connect(str(store.root / SQLITE_FILENAME))
        with connection:
            connection.execute("DELETE FROM entries WHERE digest=?", (digest,))
        connection.close()
        absent()
        _set_row(store, digest, text)
        assert store.load_digest(digest) is not None  # decoded: the memo held other text
        _set_row(store, digest, "{not json")
        assert store.load_digest(digest) is None
        assert store.statistics.quarantined == 1
        store_mod._decoded_summaries.decode(digest, text)  # the memo holds the digest again
        absent()
        assert len(summary_decodes) == 5  # four texts, and the garbage tried once

    def test_warm_passes_decode_each_record_once(self, record_decodes, tmp_path):
        catalog = fleet_catalog(4)
        stores = dict(store=str(tmp_path / "s"), query_store=str(tmp_path / "q"))
        cold = certify_fleet(
            catalog, [CrashFreedom()], input_lengths=(24,), verdict_store=str(tmp_path / "v"),
            **stores,
        )
        assert record_decodes == []  # computed certifications are not decoded
        rows = len(VerdictStore(tmp_path / "v"))
        for _ in range(2):
            verdicts = VerdictStore(tmp_path / "v")
            warm = certify_fleet(
                catalog, [CrashFreedom()], input_lengths=(24,), verdict_store=verdicts, **stores
            )
            # Every load still reads the store and counts its hit.
            assert verdicts.statistics.hits == rows == warm.statistics.verdicts_reused
            assert warm.verdicts() == cold.verdicts()
        assert len(record_decodes) == rows

    def test_record_memo_serves_only_the_text_it_decoded(self, record_decodes, tmp_path):
        import repro.orchestrator.verdicts as verdicts_mod

        memo = verdicts_mod._decoded_records
        record = PipelineCertification("p", [VerificationResult("crash", "p", Verdict.PROVED)])
        store = VerdictStore(tmp_path)
        digest = f"{1:064x}"
        assert store.save_record(digest, record)
        store.flush()
        loaded = store.load_record(digest)
        assert store.load_record(digest) is loaded
        assert store.load_records([digest]) == {digest: loaded}
        assert len(record_decodes) == 1 and store.statistics.hits == 3

        # Rewritten with other text: decoded again, into a new object.
        text = record_decodes[0]
        indented = json.dumps(json.loads(text), indent=1)
        _set_row(store, digest, indented)
        reloaded = store.load_record(digest)
        assert reloaded is not loaded and len(record_decodes) == 2
        assert reloaded.to_dict() == loaded.to_dict()

        def absent():
            misses = store.statistics.misses
            assert store.load_record(digest) is None
            assert store.load_records([digest]) == {}
            assert store.statistics.misses == misses + 2

        # Corrupt, or written under another record version: quarantined
        # and a miss, though the memo held the digest when it was read.
        stale = json.dumps({"version": RECORD_VERSION - 1, "certification": record.to_dict()})
        for garbage, quarantined in (("{not json", 1), (stale, 2)):
            _set_row(store, digest, text)
            assert store.load_record(digest) is not None
            assert digest in memo._entries
            _set_row(store, digest, garbage)
            assert store.load_record(digest) is None
            assert store.statistics.quarantined == quarantined
            memo.decode(digest, text)  # the memo holds the digest again
            absent()  # the row is gone
        # Deleted: a miss, though the memo holds the digest.
        _set_row(store, digest, text)
        connection = sqlite3.connect(str(store.root / SQLITE_FILENAME))
        with connection:
            connection.execute("DELETE FROM entries WHERE digest=?", (digest,))
        connection.close()
        assert digest in memo._entries
        absent()
        # Each undecodable row was tried once; the memo served every other
        # load of the text it held.
        assert record_decodes == [text, indented, text, "{not json", text, stale, text]

    def test_reused_records_share_nothing_across_passes(self, record_decodes, tmp_path):
        import repro.orchestrator.verdicts as verdicts_mod

        properties = [CrashFreedom(), destination_reachability(0x0A000001)]
        run = dict(
            input_lengths=(24,), instruction_bounds=True, store=str(tmp_path / "s"),
            query_store=str(tmp_path / "q"),
        )
        verdicts = VerdictStore(tmp_path / "v")
        certify_fleet(fleet_catalog(3), properties, verdict_store=verdicts, **run)

        # One pass's reused records, changed in every part.
        first = certify_fleet(fleet_catalog(3), properties, verdict_store=verdicts, **run)
        assert first.statistics.verdicts_reused == 3
        assert any(r.counterexamples for c in first.certifications for r in c.results)
        # Held here, so no id below is reused while the test runs.
        first_parts = [part for c in first.certifications for part in _mutable_parts(c)]
        for certification in first.certifications:
            certification.pipeline_name = "renamed"
            certification.impact_causes.append("changed")
            for result in certification.results:
                result.pipeline_name = "renamed"
                result.notes.append("changed")
                result.statistics.solver_checks += 1000
                result.statistics.per_element_segments["changed"] = 1
                result.statistics.per_element_seconds["changed"] = 1.0
                for counterexample in result.counterexamples:
                    counterexample.element_path.append("changed")
                    counterexample.required_table_values["changed"] = 1
                    counterexample.metadata["changed"] = 1
                result.counterexamples.clear()
            bound = certification.instruction_bound
            bound.pipeline_name = "renamed"
            bound.per_path_bounds.append(("changed", 1))
            bound.statistics.per_element_segments["changed"] = 1
            certification.results.clear()

        # A later pass still serves what the stored text decodes to.
        second = certify_fleet(fleet_catalog(3), properties, verdict_store=verdicts, **run)
        assert len(record_decodes) == 3  # both passes were served by the memo
        held = {
            record.pipeline_name: (text, record)
            for text, record in verdicts_mod._decoded_records._entries.values()
        }
        for certification in second.certifications:
            text, record = held[certification.pipeline_name]
            stored = json.loads(text)["certification"]
            assert certification.to_dict() == dict(stored, provenance=DELTA_REUSED)
            served = set(map(id, _mutable_parts(certification)))
            assert not served & set(map(id, _mutable_parts(record)))
            assert not served & set(map(id, first_parts))

    def test_cold_pass_after_warm_pass_computes_everything(self, summary_decodes, tmp_path):
        catalog = fleet_catalog(4)
        first = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), store=tmp_path / "a")
        warm = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), store=tmp_path / "a")
        assert warm.statistics.summaries_computed == 0 and summary_decodes
        fresh = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), store=tmp_path / "b")
        assert fresh.statistics.summaries_computed == first.statistics.summaries_computed > 0
        assert fresh.statistics.store_hits == 0
        assert fresh.verdicts() == first.verdicts()

    def test_computed_summaries_never_enter_the_memo(self, summary_decodes, four_cpus, tmp_path):
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path / "one")
        computed = SummaryCache(SymbexOptions(), store=store).summarize(element, 24)
        loaded = store.load(element, 24, SymbexOptions())
        assert loaded is not computed

        # A warm pooled run resolves every summary from the store and the
        # L3 tier, so its tasks' query caches count no CDCL search.
        stores = dict(store=str(tmp_path / "s"), query_store=str(tmp_path / "q"))
        catalog = fleet_catalog(4)
        cold = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), **stores)
        warm = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), workers=2, **stores)
        assert cold.statistics.sat_core_calls > 0
        assert warm.scheduler is not None and warm.statistics.summaries_computed == 0
        assert warm.statistics.sat_core_calls == 0
        assert warm.verdicts() == cold.verdicts()

    def test_concurrent_loads_stay_within_the_bound(self, monkeypatch, tmp_path):
        import random
        import sys
        import threading

        import repro.orchestrator.store as store_mod
        import repro.orchestrator.verdicts as verdicts_mod

        summary = _summarize(ip_router_elements(1)[0])
        record = PipelineCertification("p", [VerificationResult("crash", "p", Verdict.PROVED)])
        digests = [f"{index:064x}" for index in range(8)]
        # Per memo: its module and name, the tier's decoder and store,
        # how to save an entry, and the one-entry and bulk loaders.
        tiers = [
            (store_mod, "_decoded_summaries", store_mod.loads_summary, SummaryStore,
             lambda store, digest: store.save_digest(digest, summary),
             SummaryStore.load_digest, SummaryStore.load_digests),
            (verdicts_mod, "_decoded_records", verdicts_mod._record_from_text, VerdictStore,
             lambda store, digest: store.save_record(digest, record),
             VerdictStore.load_record, VerdictStore.load_records),
        ]
        for module, name, decode, store_class, save, load, load_many in tiers:
            root = tmp_path / name
            store = store_class(root)
            for digest in digests:
                save(store, digest)
            store.flush()
            decoded = []
            failures = []

            def fresh_memo(bound):
                def slow(text):
                    time.sleep(0.002)  # let every other thread reach the memo meanwhile
                    decoded.append(text)
                    return decode(text)

                memo = store_mod._DecodeMemo(slow, bound)
                monkeypatch.setattr(module, name, memo)
                return memo

            def run_threads(load_with):
                def guarded(seed):
                    own = store_class(root)  # each thread reads through its own connection
                    try:
                        load_with(own, random.Random(seed))
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        failures.append(exc)

                threads = [threading.Thread(target=guarded, args=(seed,)) for seed in range(4)]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)  # switch threads as often as possible
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []

            def load_all(own, rng):
                for digest in rng.sample(digests, len(digests)):
                    assert load(own, digest) is not None

            # Room for every entry: racing threads decode each digest once.
            fresh_memo(len(digests))
            run_threads(load_all)
            assert len(decoded) == len(digests), name

            def load_some(own, rng):
                for _ in range(20):
                    picked = rng.sample(digests, 3)
                    assert load(own, picked[0]) is not None
                    assert len(load_many(own, picked)) == 3
                    assert len(memo._entries) <= 3

            memo = fresh_memo(3)
            decoded.clear()
            run_threads(load_some)
            assert len(memo._entries) <= 3
            # No lost update: the memo counted every decode it ran.
            assert memo.decoded == len(decoded) > len(digests), name


class TestTieredCache:
    def test_l1_l2_miss_split_and_live_entries(self, tmp_path):
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        cache = SummaryCache(SymbexOptions(), store=store)

        cache.summarize(element, 24)  # miss -> compute + write-through
        cache.summarize(element, 24)  # L1 hit
        assert (cache.statistics.misses, cache.statistics.l1_hits, cache.statistics.l2_hits) == (1, 1, 0)
        assert cache.statistics.entries == 1
        assert cache.statistics.hits == 1

        cache.invalidate()
        assert cache.statistics.entries == 0  # the satellite fix: not `misses`

        cache.summarize(element, 24)  # L2 hit: loaded from store, no symbex
        assert cache.statistics.l2_hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.entries == 1

    def test_entries_tracks_live_summaries_without_store(self):
        cache = SummaryCache(SymbexOptions())
        element = ip_router_elements(1)[0]
        cache.summarize(element, 24)
        cache.summarize(element, 32)
        assert cache.statistics.entries == 2 == len(cache)
        cache.invalidate()
        assert cache.statistics.entries == 0 == len(cache)


class TestWorkers:
    def test_summarize_jobs_parallel_matches_serial(self, tmp_path):
        # Pool-computed summaries re-intern to the terms an in-process
        # engine builds for the same job.
        from repro.dataplane import Pipeline

        elements = [SyntheticBranchyElement(2, name="s2"), SyntheticBranchyElement(3, name="s3")]
        catalog = [Pipeline.chain([element], name=f"p-{element.name}") for element in elements]
        options = SymbexOptions()
        run = run_scheduled(
            catalog, [CrashFreedom()], (12,), options, workers=2, store=SummaryStore(tmp_path)
        )
        for element in elements:
            fresh = _summarize(element, 12)
            shipped = run.summaries[summary_key(element, 12, options)]
            assert [s.outcome for s in fresh.segments] == [s.outcome for s in shipped.segments]
            assert all(
                s.constraint is t.constraint for s, t in zip(fresh.segments, shipped.segments)
            )

    def test_summarize_jobs_uses_store(self, tmp_path):
        element = SyntheticBranchyElement(2, name="stored")
        run = PoolRun((), (), (), SymbexOptions(), str(tmp_path))
        first_status, first, (rows, _queries), _extras = _summarize_worker((element, 12), run)
        # The worker's store is read-only: it ships the row it wrote, and
        # the scheduler writes it as the task's result arrives.
        assert rows == {summary_key(element, 12, run.options): first}
        assert len(SummaryStore(tmp_path)) == 0
        SummaryStore(tmp_path).merge_shards(rows)
        second_status, second, writes, extras = _summarize_worker((element, 12), run)
        assert (first_status, second_status) == (COMPUTED, LOADED)
        assert writes == ({}, {}) and extras == {}  # a store load ships no work
        assert len(loads_summary(second).segments) == len(loads_summary(first).segments)

    def test_path_explosion_is_shipped_not_raised(self, tmp_path):
        options = SymbexOptions(max_paths=4, merge="off")
        status, detail, _writes, _extras = _summarize_worker(
            (SyntheticBranchyElement(6, name="wide"), 12),
            PoolRun((), (), (), options, str(tmp_path)),
        )
        assert status == EXPLODED and "budget" in detail
        # The explosion names the offending element so EXPLODED jobs and
        # trace summaries can attribute it.
        assert "wide" in detail


class TestFleet:
    @pytest.fixture(scope="class")
    def catalog(self):
        return fleet_catalog(4)

    def test_serial_certification_and_dedupe(self, catalog):
        report = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,))
        assert len(report.certifications) == len(catalog)
        assert all(c.certified for c in report.certifications)
        stats = report.statistics
        # The catalog shares element configurations: far fewer distinct
        # Step-1 jobs than element instances.
        assert stats.distinct_summary_jobs < stats.element_instances
        assert stats.summaries_computed == stats.distinct_summary_jobs

    def test_warm_store_computes_nothing(self, catalog, tmp_path):
        store = SummaryStore(tmp_path)
        cold = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,), store=store)
        warm = certify_fleet(
            fleet_catalog(4), [CrashFreedom()], input_lengths=(24,), store=SummaryStore(tmp_path)
        )
        assert cold.statistics.summaries_computed > 0
        assert warm.statistics.summaries_computed == 0
        assert warm.statistics.store_hits == cold.statistics.summaries_computed
        assert warm.verdicts() == cold.verdicts()

    def test_stored_summaries_carry_no_timing(self, tmp_path):
        # A summary's stored text depends only on what symbolic execution
        # read: two cold runs write the same rows, and a warm run that
        # loads every summary spends no Step-1 seconds in this process.
        def rows(root):
            connection = sqlite3.connect(str(root / SQLITE_FILENAME))
            try:
                return sorted(connection.execute("SELECT digest, payload FROM entries"))
            finally:
                connection.close()

        for root in ("a", "b"):
            certify_fleet(
                fleet_catalog(6), [CrashFreedom()], input_lengths=(24,), store=tmp_path / root
            )
        assert rows(tmp_path / "a") == rows(tmp_path / "b") != []
        warm = certify_fleet(
            fleet_catalog(6), [CrashFreedom()], input_lengths=(24,), store=tmp_path / "a"
        )
        assert warm.statistics.summaries_computed == 0
        seconds = [
            value
            for certification in warm.certifications
            for result in certification.results
            for value in result.statistics.per_element_seconds.values()
        ]
        assert seconds and set(seconds) == {0.0}

    def test_parallel_matches_serial(self, catalog, four_cpus, tmp_path):
        serial = certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,))
        parallel = certify_fleet(
            fleet_catalog(4),
            [CrashFreedom()],
            input_lengths=(24,),
            workers=2,
            store=SummaryStore(tmp_path),
        )
        assert parallel.verdicts() == serial.verdicts()
        serial_packets = [
            [ce.packet for result in c.results for ce in result.counterexamples]
            for c in serial.certifications
        ]
        parallel_packets = [
            [ce.packet for result in c.results for ce in result.counterexamples]
            for c in parallel.certifications
        ]
        assert parallel_packets == serial_packets

    def test_parallel_without_store_uses_ephemeral(self, four_cpus):
        report = certify_fleet(fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), workers=2)
        assert len(report.certifications) == 2
        assert report.scheduler is not None

    def test_budget_explosion_degrades_identically_in_both_modes(self, four_cpus):
        from repro.workloads import synthetic_pipeline

        # merge=off: state merging would collapse the branchy element under
        # the starved budget, defeating the manufactured explosion.
        options = SymbexOptions(max_paths=4, merge="off")  # starves Step-1
        serial = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [CrashFreedom()],
            input_lengths=(12,), workers=1, options=options,
        )
        parallel = certify_fleet(
            [synthetic_pipeline(4, 3, name="boom")], [CrashFreedom()],
            input_lengths=(12,), workers=2, options=options,
        )
        assert serial.verdicts() == parallel.verdicts()
        assert serial.verdicts()[0][2] == "unknown"

    def test_instruction_bounds(self):
        report = certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), instruction_bounds=True
        )
        assert all(
            c.instruction_bound is not None and c.instruction_bound.bound > 0
            for c in report.certifications
        )

    def test_rejects_multi_entry_pipeline(self):
        from repro.dataplane import Pipeline
        from repro.dataplane.elements import Discard

        pipeline = Pipeline(name="two-entries")
        sink = Discard(name="sink")
        pipeline.connect(SyntheticBranchyElement(1, name="a"), sink)
        pipeline.connect(SyntheticBranchyElement(1, offset=2, name="b"), sink)
        with pytest.raises(OrchestratorError):
            certify_fleet([pipeline], [CrashFreedom()])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_tier_opens_once_per_call(self, workers, four_cpus, monkeypatch, tmp_path):
        from collections import Counter

        from repro.orchestrator.store import Store
        from repro.workloads import store_scale_catalog

        opens, views = Counter(), Counter()
        real = Store.__init__

        def counting(store, root, readonly=False):
            # Parent-side only: forked workers count in their copy.
            (views if readonly else opens)[store.kind] += 1
            real(store, root, readonly)

        monkeypatch.setattr(Store, "__init__", counting)
        build = (lambda: fleet_catalog(6)) if workers == 1 else (lambda: store_scale_catalog(20))
        stores = dict(store=str(tmp_path / "s"), query_store=str(tmp_path / "q"))
        # Cold; warm with fresh Step 2 (no verdict store); warm with the
        # query root given only as an engine option.
        calls = [
            dict(verdict_store=str(tmp_path / "v"), **stores),
            dict(stores),
            dict(
                store=stores["store"],
                options=SymbexOptions(query_cache_dir=stores["query_store"]),
            ),
        ]
        for call, kwargs in enumerate(calls):
            opens.clear()
            views.clear()
            report = certify_fleet(
                build(), [CrashFreedom()], input_lengths=(24,), workers=workers, **kwargs
            )
            expected = {"summary store": 1, "query store": 1}
            if "verdict_store" in kwargs:
                expected["verdict store"] = 1
            assert opens == expected
            # The scheduler runs on both worker counts, and the parent's
            # tasks read through the run's cache over these same stores:
            # the parent opens no read-only view.
            assert views == {}
            scheduler = report.scheduler
            # Two workers fork a pool for a cold call's Step-1 jobs only.
            forked = workers == 2 and call == 0
            assert (scheduler.workers, scheduler.pools_forked) == (workers, int(forked))
            assert scheduler.tasks_inline == (
                20 if workers == 2 else scheduler.summary_tasks + scheduler.verify_tasks
            )
            assert (report.statistics.summaries_computed == 0) == (call > 0)
        assert report.statistics.sat_core_calls == 0  # the option's root is the warm L3 tier

    def test_each_pipeline_is_walked_for_cycles_once(self, monkeypatch):
        from collections import Counter

        from repro.dataplane import Pipeline

        walks = Counter()
        real = Pipeline._check_acyclic

        def counting(pipeline):
            walks[pipeline.name] += 1
            real(pipeline)

        monkeypatch.setattr(Pipeline, "_check_acyclic", counting)
        catalog = fleet_catalog(4)
        for _ in range(2):
            certify_fleet(catalog, [CrashFreedom()], input_lengths=(24,))
        assert walks == {pipeline.name: 1 for pipeline in catalog}
