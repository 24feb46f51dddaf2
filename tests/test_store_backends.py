"""Tests for the SQLite database behind every store tier.

Every tier (summary, verdict, query, risk) keeps its entries in one
SQLite database per root, read and written by
:class:`repro.orchestrator.store.Store`.  These tests cover the tier
round trips, on a fresh root and on a root that still holds the legacy
one-file-per-entry JSON layout (which the store does not read); the one
decode-or-quarantine path every tier's loaders share; the schema
versioning, whole-database quarantine, the read-only stores pool
workers open and write batching; and the connection each process
shares per root.
"""

import gc
import json
import multiprocessing
import os
import shutil
import sqlite3
import threading
import time

import pytest

from repro.cli.main import EXIT_OK, main as cli_main
from repro.orchestrator import (
    RECORD_VERSION,
    RISK_VERSION,
    SQLITE_FILENAME,
    STORE_SCHEMA_VERSION,
    QueryStore,
    RiskStore,
    SummaryStore,
    VerdictStore,
    certify_fleet,
    risk_key,
)
from repro.orchestrator.backends import _MAX_SHARED_CONNECTIONS, _shared_connections
from repro.orchestrator.errors import StoreError
from repro.symbex import SymbexOptions
from repro.symbex.engine import SymbolicEngine
from repro.verify import CrashFreedom
from repro.workloads import fleet_catalog, ip_router_elements

#: A root's layout before the first store opens it: the legacy JSON
#: layout (which the store leaves unread) or nothing at all.
LAYOUTS = ("json", "sqlite")
CONCRETE = SymbexOptions(static_table_mode="concrete")
#: The entry a legacy-layout root holds, and its metrics sidecar.
LEGACY_DIGEST = "ff" * 32
LEGACY_PAYLOAD = {"legacy": True}
LEGACY_METRICS = {"imported": 1}


def _summarize(element, length=24):
    engine = SymbolicEngine(SymbexOptions())
    return engine.summarize_element(
        element.program,
        length,
        tables=element.state.tables(),
        element_name=element.name,
    )


def _digest(index):
    return f"{index:064x}"


def _write_legacy_layout(root, entries, metrics=None):
    """Hand-build the legacy JSON layout: ``<dd>/<digest>.json`` plus ``metrics.json``."""
    root.mkdir(parents=True, exist_ok=True)
    for digest, text in entries.items():
        path = root / digest[:2] / f"{digest}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    if metrics is not None:
        (root / "metrics.json").write_text(json.dumps(metrics))


def _to_legacy_layout(root):
    """Rewrite a SQLite store root in the legacy JSON layout; returns its entry count."""
    connection = sqlite3.connect(str(root / SQLITE_FILENAME))
    rows = connection.execute("SELECT digest, payload FROM entries").fetchall()
    metrics = connection.execute("SELECT value FROM meta WHERE key='metrics'").fetchone()
    connection.close()
    for suffix in ("", "-wal", "-shm"):
        (root / (SQLITE_FILENAME + suffix)).unlink(missing_ok=True)
    _write_legacy_layout(root, dict(rows), json.loads(metrics[0]) if metrics else None)
    return len(rows)


def _start(layout, root):
    """Lay ``root`` out as ``layout``: a legacy layout is left there, unread."""
    if layout == "json":
        _write_legacy_layout(root, {LEGACY_DIGEST: json.dumps(LEGACY_PAYLOAD)}, LEGACY_METRICS)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestRoundTrip:
    """The same tier contents survive a close/reopen, on a fresh or a legacy root."""

    def test_summary_tier(self, layout, tmp_path):
        _start(layout, tmp_path)
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path)
        store.save(element, 24, CONCRETE, _summarize(element))
        store.close()
        reopened = SummaryStore(tmp_path)
        loaded = reopened.load(element, 24, CONCRETE)
        assert loaded is not None and reopened.statistics.hits == 1
        assert len(reopened) == 1

    def test_verdict_tier_serves_delta_mode(self, layout, tmp_path):
        _start(layout, tmp_path)
        catalog = fleet_catalog(3)
        cold = certify_fleet(
            catalog, [CrashFreedom()], input_lengths=(24,),
            verdict_store=VerdictStore(tmp_path),
        )
        warm = certify_fleet(
            fleet_catalog(3), [CrashFreedom()], input_lengths=(24,),
            verdict_store=VerdictStore(tmp_path),
        )
        assert warm.statistics.verdicts_reused == len(catalog)
        assert warm.statistics.summaries_computed == 0
        assert warm.verdicts() == cold.verdicts()

    def test_query_tier(self, layout, tmp_path):
        _start(layout, tmp_path)
        payload = {"verdict": "unsat", "core": [1, 2, 3]}
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), payload)
        store.flush()
        assert store.contains(_digest(1)) and not store.contains(_digest(2))
        store.close()
        reopened = QueryStore(tmp_path)
        assert reopened.load_payload(_digest(1)) == payload
        assert reopened.load_payload(_digest(2)) is None
        assert reopened.statistics.hits == 1 and reopened.statistics.misses == 1
        assert not reopened.contains(LEGACY_DIGEST)

    def test_read_entries_bulk(self, layout, tmp_path):
        _start(layout, tmp_path)
        store = QueryStore(tmp_path)
        for index in range(5):
            store.write_entry(_digest(index), f"payload-{index}")
        store.flush()
        wanted = [_digest(index) for index in range(7)]  # 5 present + 2 absent
        found = store.read_entries(wanted)
        assert found == {_digest(index): f"payload-{index}" for index in range(5)}
        assert store.statistics.misses == 2

    def test_read_entries_sees_unflushed_writes(self, layout, tmp_path):
        _start(layout, tmp_path)
        store = QueryStore(tmp_path)
        store.write_entry(_digest(1), "buffered")
        assert store.read_entries([_digest(1)]) == {_digest(1): "buffered"}

    def test_metrics_accumulate_across_reopen(self, layout, tmp_path):
        _start(layout, tmp_path)
        store = QueryStore(tmp_path)
        store.record_metrics({"hits": 3, "label": "ignored-not-numeric"})
        store.close()
        reopened = QueryStore(tmp_path)
        totals = reopened.record_metrics({"hits": 4})
        assert totals["hits"] == 7 and totals["runs"] == 2
        assert "imported" not in totals  # the legacy sidecar is not read
        assert reopened.load_metrics() == totals

    def test_clear_and_size(self, layout, tmp_path):
        _start(layout, tmp_path)
        store = QueryStore(tmp_path)
        for index in range(3):
            store.write_entry(_digest(index), "x" * 10)
        assert store.size_bytes() >= 30
        # Buffered writes count: clear flushes before it counts.
        assert store.clear() == 3 and len(store) == 0


class TestSqliteCorruption:
    """SQLite parity for the torn-write / quarantine behaviour of JSON tiers."""

    def test_truncated_database_is_quarantined(self, tmp_path):
        (tmp_path / SQLITE_FILENAME).write_bytes(b"SQLite format 3\x00 torn mid-write")
        store = SummaryStore(tmp_path)
        # The garbage moved aside (kept for post-mortem), the store works.
        assert (tmp_path / (SQLITE_FILENAME + ".corrupt")).exists()
        assert store.statistics.quarantined == 1
        store.write_entry(_digest(1), "fresh")
        store.flush()
        assert len(store) == 1
        # gc sweeps the quarantined database like any .corrupt debris.
        assert store.gc().removed_debris == 1
        assert not (tmp_path / (SQLITE_FILENAME + ".corrupt")).exists()

    def test_random_garbage_is_quarantined(self, tmp_path):
        (tmp_path / SQLITE_FILENAME).write_bytes(b"\x00\x01 not a database \xff")
        store = QueryStore(tmp_path)
        assert store.statistics.quarantined == 1
        assert store.load_payload(_digest(1)) is None  # plain empty store

    def test_foreign_sqlite_file_is_quarantined(self, tmp_path):
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute("CREATE TABLE unrelated (x INTEGER)")
        connection.commit()
        connection.close()
        store = QueryStore(tmp_path)
        assert store.statistics.quarantined == 1
        assert (tmp_path / (SQLITE_FILENAME + ".corrupt")).exists()

    def test_future_schema_version_refuses_loudly(self, tmp_path):
        store = QueryStore(tmp_path)
        store.close()
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (str(STORE_SCHEMA_VERSION + 7),),
        )
        connection.commit()
        connection.close()
        # Never quarantine data from the future: refuse to open it.
        with pytest.raises(StoreError, match="newer"):
            QueryStore(tmp_path)

    def _build_v1_database(self, root):
        """The v1 prototype layout: no mtime column, no metrics in meta."""
        connection = sqlite3.connect(str(root / SQLITE_FILENAME))
        connection.execute(
            "CREATE TABLE entries (digest TEXT PRIMARY KEY, payload TEXT NOT NULL)"
        )
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        connection.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        connection.execute(
            "INSERT INTO entries VALUES (?, ?)", (_digest(1), json.dumps({"v": 1}))
        )
        connection.commit()
        connection.close()

    def test_old_schema_version_is_quarantined(self, tmp_path):
        """An older schema opens quarantined and empty, and certifies like a fresh root."""
        roots = {name: tmp_path / name for name in ("summaries", "verdicts", "queries")}
        for root in roots.values():
            root.mkdir()
            self._build_v1_database(root)
        store = QueryStore(roots["queries"])
        assert store.statistics.quarantined == 1
        assert (roots["queries"] / (SQLITE_FILENAME + ".corrupt")).exists()
        assert len(store) == 0 and store.load_payload(_digest(1)) is None
        old = certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,),
            store=str(roots["summaries"]), verdict_store=str(roots["verdicts"]),
            query_store=str(roots["queries"]),
        )
        fresh = certify_fleet(
            fleet_catalog(2), [CrashFreedom()], input_lengths=(24,),
            store=str(tmp_path / "fresh-summaries"),
            verdict_store=str(tmp_path / "fresh-verdicts"),
            query_store=str(tmp_path / "fresh-queries"),
        )
        assert old.verdicts() == fresh.verdicts()
        assert old.statistics.summaries_computed == fresh.statistics.summaries_computed
        assert old.statistics.verdicts_reused == 0

    def test_garbage_row_is_quarantined_not_reparsed(self, tmp_path):
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), {"fine": True})
        store.close()
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute(
            "UPDATE entries SET payload='{not json' WHERE digest=?", (_digest(1),)
        )
        connection.commit()
        connection.close()
        reopened = QueryStore(tmp_path)
        assert reopened.load_payload(_digest(1)) is None
        assert reopened.statistics.quarantined == 1
        assert len(reopened) == 0  # the row is gone
        # The second load is a plain miss: nothing left to re-parse.
        assert reopened.load_payload(_digest(1)) is None
        assert reopened.statistics.quarantined == 1
        assert reopened.statistics.misses == 2


class TestReadOnlyStores:
    """A pool worker's store: it reads the database, and ships its writes."""

    def test_reads_main_and_ships_writes_for_merge(self, tmp_path):
        main = QueryStore(tmp_path)
        main.save_payload(_digest(1), {"from": "main"})
        main.flush()

        worker = QueryStore(tmp_path, readonly=True)
        worker.batch_size = 1  # a batch boundary does not flush it either
        assert worker.load_payload(_digest(1)) == {"from": "main"}  # reads hit main
        worker.save_payload(_digest(2), {"from": "worker"})
        worker.save_payload(_digest(3), {"from": "worker"})
        assert worker.load_payload(_digest(2)) == {"from": "worker"}  # and its own writes
        worker.close()

        # The database holds nothing new until the parent merges the writes.
        assert len(main) == 1 and not main.contains(_digest(2))
        shipped = worker.take_writes()
        assert set(shipped) == {_digest(2), _digest(3)}
        assert worker.take_writes() == {}
        assert main.merge_shards(shipped) == 2
        assert main.load_payload(_digest(2)) == {"from": "worker"}
        assert len(QueryStore(tmp_path)) == 3
        assert not (tmp_path / "shards").exists()

    def test_nothing_written_ships_nothing(self, tmp_path):
        main = QueryStore(tmp_path)
        main.save_payload(_digest(1), {"from": "main"})
        main.flush()

        worker = QueryStore(tmp_path, readonly=True)
        assert worker.load_payload(_digest(1)) == {"from": "main"}
        assert worker.load_payload(_digest(2)) is None
        worker.close()
        assert worker.take_writes() == {}
        assert len(main) == 1 and not (tmp_path / "shards").exists()

    def test_merge_refuses_on_readonly_store(self, tmp_path):
        worker = QueryStore(tmp_path, readonly=True)
        with pytest.raises(StoreError, match="read-only"):
            worker.merge_shards({_digest(1): "{}"})

    @pytest.mark.parametrize("tier", ["summary", "query"])
    def test_quarantine_reaches_the_database(self, tier, tmp_path):
        store_class, digest, loaders = TIERS[tier]
        load = loaders["load"]
        main = store_class(tmp_path)
        main.write_entry(digest, GARBAGE)
        main.flush()

        worker = store_class(tmp_path, readonly=True)
        assert load(worker) is None
        assert worker.statistics.quarantined == 1
        # Deleted from the database itself, so no later reader parses it.
        assert len(store_class(tmp_path)) == 0
        assert not (tmp_path / "shards").exists()
        assert load(worker) is None  # a plain miss now
        assert worker.statistics.quarantined == 1 and worker.statistics.misses == 2


class TestBatching:
    def test_read_your_write_before_flush(self, tmp_path):
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), {"buffered": True})
        assert store._pending  # still buffered ...
        assert store.load_payload(_digest(1)) == {"buffered": True}  # ... yet readable
        assert store.contains(_digest(1))

    def test_autoflush_at_batch_size(self, tmp_path):
        store = QueryStore(tmp_path)
        store.batch_size = 2
        store.write_entry(_digest(1), "one")
        assert store._pending
        store.write_entry(_digest(2), "two")
        assert not store._pending  # batch boundary flushed for us
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        assert connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0] == 2
        connection.close()

    def test_close_flushes(self, tmp_path):
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), {"durable": True})
        store.close()
        assert QueryStore(tmp_path).load_payload(_digest(1)) == {"durable": True}


class TestSelection:
    """What a store finds under a fresh root: nothing, and a new ``store.sqlite``."""

    def test_fresh_root_detects_nothing(self, tmp_path):
        store = QueryStore(tmp_path)
        assert len(store) == 0 and store.load_metrics() == {}
        assert (tmp_path / SQLITE_FILENAME).exists()


class TestLegacyRoots:
    """A root in the legacy JSON layout opens empty, and its files stay unread."""

    def test_legacy_layout_is_not_read(self, tmp_path):
        _write_legacy_layout(
            tmp_path,
            {_digest(1): json.dumps({"stale": True}), _digest(2): json.dumps({"fresh": True})},
            metrics={"hits": 5, "runs": 1},
        )
        store = QueryStore(tmp_path)
        assert len(store) == 0 and store.load_metrics() == {}
        assert store.load_payload(_digest(2)) is None
        assert store.statistics.quarantined == 0
        # Neither read nor removed: the files are not the store's.
        assert (tmp_path / _digest(2)[:2] / f"{_digest(2)}.json").exists()
        assert (tmp_path / "metrics.json").exists()

    def test_legacy_tiers_open_empty_and_certify_like_fresh_roots(self, tmp_path):
        roots = {name: tmp_path / name for name in ("summaries", "verdicts", "queries")}
        stores = dict(
            store=str(roots["summaries"]), verdict_store=str(roots["verdicts"]),
            query_store=str(roots["queries"]),
        )
        cold = certify_fleet(fleet_catalog(4), [CrashFreedom()], input_lengths=(24,), **stores)
        counts = {name: _to_legacy_layout(root) for name, root in roots.items()}
        assert all(counts.values())
        again = certify_fleet(fleet_catalog(4), [CrashFreedom()], input_lengths=(24,), **stores)
        assert again.verdicts() == cold.verdicts()
        assert again.statistics.verdicts_reused == 0
        assert again.statistics.summaries_computed == cold.statistics.summaries_computed
        assert len(SummaryStore(roots["summaries"])) == counts["summaries"]
        assert len(VerdictStore(roots["verdicts"])) == counts["verdicts"]
        assert QueryStore(roots["queries"]).load_metrics()["runs"] == 1
        assert all(list(root.glob("??/*.json")) for root in roots.values())

    def test_leftover_shards_are_neither_read_nor_removed(self, tmp_path):
        """Shard files an older repro's pool left under a root stay unread."""
        roots = {name: tmp_path / name for name in ("summaries", "verdicts", "queries")}
        shards = []
        for root in roots.values():
            shard = root / "shards" / "t1a1.sqlite"
            shard.parent.mkdir(parents=True)
            connection = sqlite3.connect(str(shard))
            connection.execute(
                "CREATE TABLE entries (digest TEXT PRIMARY KEY, payload TEXT NOT NULL,"
                " mtime REAL NOT NULL)"
            )
            connection.execute("INSERT INTO entries VALUES (?, '{}', 0)", (_digest(1),))
            connection.commit()
            connection.close()
            old = time.time() - 120  # past the minute the old gc waited
            os.utime(shard, (old, old))
            shards.append(shard)
        stores = dict(
            store=str(roots["summaries"]), verdict_store=str(roots["verdicts"]),
            query_store=str(roots["queries"]),
        )
        report = certify_fleet(fleet_catalog(2), [CrashFreedom()], input_lengths=(24,), **stores)
        fresh = certify_fleet(fleet_catalog(2), [CrashFreedom()], input_lengths=(24,))
        assert report.verdicts() == fresh.verdicts()
        queries = QueryStore(roots["queries"])
        assert not queries.contains(_digest(1))
        assert queries.gc().removed_debris == 0
        assert all(shard.exists() for shard in shards)


class TestCliSmoke:
    def test_certify_stats_then_delta(self, tmp_path, capsys):
        """The CI store smoke, in-process: certify, ``store stats``, delta-certify."""
        roots = ["--store", str(tmp_path / "s"), "--verdict-store", str(tmp_path / "v"),
                 "--query-store", str(tmp_path / "q")]
        certify = ["certify", "--catalog", "fleet:3", "--lengths", "24", *roots]
        assert cli_main(certify) == EXIT_OK
        capsys.readouterr()
        assert cli_main(["store", "stats", *roots, "--json"]) == EXIT_OK
        before = json.loads(capsys.readouterr().out)["stores"]
        assert cli_main([*certify, "--json"]) == EXIT_OK
        statistics = json.loads(capsys.readouterr().out)["statistics"]
        assert statistics["verdicts_reused"] == 3 and statistics["summaries_computed"] == 0
        assert cli_main(["store", "stats", *roots, "--json"]) == EXIT_OK
        after = json.loads(capsys.readouterr().out)["stores"]
        assert {k: v["entries"] for k, v in after.items()} == {
            k: v["entries"] for k, v in before.items()
        }


#: Per tier: the store class, the digest under test and its loaders
#: (``load`` for one entry, ``bulk`` for many), each returning what it found.
TIERS = {
    "summary": (SummaryStore, _digest(1), {
        "load": lambda store: store.load_digest(_digest(1)),
        "bulk": lambda store: store.load_digests([_digest(1)]),
    }),
    "verdict": (VerdictStore, _digest(1), {
        "load": lambda store: store.load_record(_digest(1)),
        "bulk": lambda store: store.load_records([_digest(1)]),
    }),
    "query": (QueryStore, _digest(1), {
        "load": lambda store: store.load_payload(_digest(1)),
    }),
    "risk": (RiskStore, risk_key("p"), {
        "bulk": lambda store: store.load_profiles(["p"]),
    }),
}
GARBAGE = "{not json"
#: Well-formed payloads that older code wrote: a version mismatch reads as a miss.
STALE = {
    "verdict": json.dumps({"version": RECORD_VERSION - 1, "certification": {}}),
    "risk": json.dumps({"version": RISK_VERSION - 1, "name": "p", "profile": {}}),
}
UNDECODABLE = [
    (tier, kind, loader)
    for tier, (_, _, loaders) in TIERS.items()
    for kind in ("garbage", "stale")
    if kind == "garbage" or tier in STALE
    for loader in loaders
]


class TestDecodePath:
    @pytest.mark.parametrize(
        "tier, kind, loader", UNDECODABLE, ids=["-".join(case) for case in UNDECODABLE]
    )
    def test_undecodable_entry_is_quarantined_once(self, tier, kind, loader, tmp_path):
        store_class, digest, loaders = TIERS[tier]
        load = loaders[loader]
        store = store_class(tmp_path)
        store.write_entry(digest, GARBAGE if kind == "garbage" else STALE[tier])
        store.write_entry(_digest(2), "another entry")
        store.flush()
        assert len(store) == 2
        assert not load(store)
        assert store.statistics.hits == 0
        assert store.statistics.misses == 1 and store.statistics.quarantined == 1
        assert len(store) == 1  # the row is gone
        # The second load is a plain miss: nothing left to quarantine.
        assert not load(store)
        assert store.statistics.misses == 2 and store.statistics.quarantined == 1


class TestSharedConnection:
    """One connection per database file, process and thread."""

    def test_stores_on_one_root_share_one_connection(self, tmp_path):
        summaries = SummaryStore(tmp_path / "a")
        queries = QueryStore(tmp_path / "a")
        worker = QueryStore(tmp_path / "a", readonly=True)
        other = QueryStore(tmp_path / "b")
        assert summaries._conn is queries._conn
        assert worker._conn is queries._conn
        assert other._conn is not queries._conn
        worker.save_payload(_digest(1), {"from": "worker"})
        worker.close()  # never closes the shared connection
        assert queries.merge_shards(worker.take_writes()) == 1
        assert summaries.read_entry(_digest(1)) is not None

    def test_newer_schema_written_between_opens_is_refused(self, tmp_path):
        first = QueryStore(tmp_path)
        first.save_payload(_digest(1), {})
        first.close()
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (str(STORE_SCHEMA_VERSION + 1),),
        )
        connection.commit()
        connection.close()
        # The connection `first` holds is still registered and reused, and
        # the schema check on this open still sees the newer version.
        registry = _shared_connections()
        assert any(entry.connection is first._conn for entry in registry.values())
        with pytest.raises(StoreError, match="newer"):
            QueryStore(tmp_path)

    def test_recreated_root_gets_a_fresh_connection(self, tmp_path):
        root = tmp_path / "root"
        old = QueryStore(root)
        old.save_payload(_digest(1), {"old": True})
        old.flush()
        shutil.rmtree(root)

        new = QueryStore(root)
        assert new._conn is not old._conn
        assert len(new) == 0 and new.load_payload(_digest(1)) is None
        new.save_payload(_digest(2), {"new": True})
        new.flush()
        # The registry dropped the deleted root's connection, so it closes
        # with the last store that holds it: no descriptor on a deleted
        # file lingers until a cyclic collection.
        old_connection = old._conn
        old_connection.execute("SELECT 1")
        del old
        with pytest.raises(sqlite3.ProgrammingError):
            old_connection.execute("SELECT 1")
        # Closing it must not touch the new database's journal files,
        # which now have the same names.
        gc.collect()
        assert QueryStore(root).load_payload(_digest(2)) == {"new": True}
        connection = sqlite3.connect(str(root / SQLITE_FILENAME))
        rows = connection.execute("SELECT digest FROM entries").fetchall()
        connection.close()
        assert rows == [(_digest(2),)]

    def test_registry_is_bounded_and_spares_live_stores(self, tmp_path):
        first = QueryStore(tmp_path / "first")
        first.save_payload(_digest(1), {"kept": True})
        first.flush()
        others = [QueryStore(tmp_path / f"r{index}") for index in range(_MAX_SHARED_CONNECTIONS)]
        registry = _shared_connections()
        assert len(registry) <= _MAX_SHARED_CONNECTIONS
        assert all(entry.connection is not first._conn for entry in registry.values())
        # Dropped from the registry, not closed: the live store still works.
        assert first.load_payload(_digest(1)) == {"kept": True}
        assert QueryStore(tmp_path / "first").load_payload(_digest(1)) == {"kept": True}
        assert len(others) == _MAX_SHARED_CONNECTIONS

    def test_other_threads_open_their_own_connection(self, tmp_path):
        main = QueryStore(tmp_path)
        main.save_payload(_digest(1), {"main": True})
        main.flush()
        seen = {}

        def _worker():
            store = QueryStore(tmp_path)
            seen["shared"] = store._conn is main._conn
            seen["payload"] = store.load_payload(_digest(1))

        thread = threading.Thread(target=_worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen == {"shared": False, "payload": {"main": True}}

    def test_forked_child_never_uses_the_parent_connection(self, tmp_path):
        parent = QueryStore(tmp_path)
        parent.save_payload(_digest(1), {"parent": True})
        parent.flush()
        parent_connection = parent._conn
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            pytest.skip("fork start method unavailable")

        def _child():
            opened = QueryStore(tmp_path)
            assert opened._conn is not parent_connection
            assert opened.load_payload(_digest(1)) == {"parent": True}
            # The inherited store object reopens too, onto the child's connection.
            assert parent.load_payload(_digest(1)) == {"parent": True}
            assert parent._conn is opened._conn
            opened.save_payload(_digest(2), {"child": True})
            opened.close()

        process = context.Process(target=_child)
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0
        assert parent._conn is parent_connection
        assert parent.load_payload(_digest(2)) == {"child": True}


class TestGcRaces:
    def test_gc_tolerates_vanished_shards(self, tmp_path):
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), {"ok": True})
        # A shards/ directory an older repro's pool left behind, holding
        # a link to a file that vanished: gc neither reads nor removes it.
        (tmp_path / "shards").mkdir()
        (tmp_path / "shards" / "t9a1.sqlite").symlink_to(tmp_path / "never-existed")
        result = store.gc(older_than_seconds=3600)
        assert result.removed_debris == 0
        assert (tmp_path / "shards" / "t9a1.sqlite").is_symlink()
        assert result.kept_entries == 1
        assert store.size_bytes() > 0

    def test_sqlite_gc_age_horizon(self, tmp_path):
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), {"old": True})
        store.save_payload(_digest(2), {"new": True})
        store.flush()
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute(
            "UPDATE entries SET mtime=? WHERE digest=?",
            (time.time() - 7200, _digest(1)),
        )
        connection.commit()
        connection.close()
        store.close()
        reopened = QueryStore(tmp_path)
        result = reopened.gc(older_than_seconds=3600)
        assert result.removed_entries == 1 and result.kept_entries == 1
        assert result.bytes_freed > 0
        assert reopened.load_payload(_digest(2)) == {"new": True}
