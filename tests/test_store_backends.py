"""Tests for the SQLite database behind every store tier.

Every tier (summary, verdict, query, risk) keeps its entries in one
SQLite database per root, read and written by
:class:`repro.orchestrator.store.Store`.  These tests cover the tier
round trips, on a fresh root and on a root that still holds the legacy
one-file-per-entry JSON layout (which the store does not read); the one
decode-or-quarantine path every tier's loaders share; the schema
versioning, whole-database quarantine, worker shards and write
batching; and the main connection each process shares per root.
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
        configuration_key=element.configuration_key(),
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


class TestShards:
    def test_shard_view_reads_main_writes_private(self, tmp_path):
        main = QueryStore(tmp_path)
        main.save_payload(_digest(1), {"from": "main"})
        main.flush()

        shard = QueryStore(tmp_path, shard="w1")
        assert shard.load_payload(_digest(1)) == {"from": "main"}  # reads hit main
        shard.save_payload(_digest(2), {"from": "shard"})
        shard.close()

        # The shard write is invisible to main until merge-on-join.
        assert (tmp_path / "shards" / "w1.sqlite").exists()
        assert not main.contains(_digest(2))
        assert main.merge_shards() == 1
        assert main.load_payload(_digest(2)) == {"from": "shard"}
        assert not (tmp_path / "shards" / "w1.sqlite").exists()

    def test_read_only_shard_view_creates_no_shard(self, tmp_path):
        main = QueryStore(tmp_path)
        main.save_payload(_digest(1), {"from": "main"})
        main.flush()

        shard = QueryStore(tmp_path, shard="t1a1")
        assert shard.load_payload(_digest(1)) == {"from": "main"}
        assert shard.load_payload(_digest(2)) is None
        shard.close()  # flushes: nothing was written, so nothing is created

        assert not (tmp_path / "shards" / "t1a1.sqlite").exists()
        assert main.merge_shards(only=["t1a1"]) == 0

    def test_merge_refuses_on_shard_view(self, tmp_path):
        QueryStore(tmp_path).close()
        shard = QueryStore(tmp_path, shard="w1")
        with pytest.raises(StoreError, match="main store"):
            shard.merge_shards()

    def test_merge_tolerates_torn_shard(self, tmp_path):
        main = QueryStore(tmp_path)
        shard = QueryStore(tmp_path, shard="w1")
        shard.save_payload(_digest(1), {"ok": True})
        shard.close()
        (tmp_path / "shards" / "w2.sqlite").write_bytes(b"torn worker crash")
        assert main.merge_shards() == 1  # the good shard lands, the torn one stays
        assert main.load_payload(_digest(1)) == {"ok": True}
        # gc sweeps the torn shard once it is old enough to be an orphan.
        old = time.time() - 120
        os.utime(tmp_path / "shards" / "w2.sqlite", (old, old))
        assert main.gc().removed_debris == 1


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
    """One main connection per database file, process and thread."""

    def test_stores_on_one_root_share_one_connection(self, tmp_path):
        summaries = SummaryStore(tmp_path / "a")
        queries = QueryStore(tmp_path / "a")
        shard = QueryStore(tmp_path / "a", shard="w1")
        other = QueryStore(tmp_path / "b")
        assert summaries._read_conn is queries._read_conn
        assert shard._read_conn is queries._read_conn
        assert other._read_conn is not queries._read_conn
        shard.save_payload(_digest(1), {"from": "shard"})
        shard.close()  # closes the shard, never the shared main connection
        assert queries.merge_shards() == 1
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
        assert any(entry.connection is first._read_conn for entry in registry.values())
        with pytest.raises(StoreError, match="newer"):
            QueryStore(tmp_path)

    def test_recreated_root_gets_a_fresh_connection(self, tmp_path):
        root = tmp_path / "root"
        old = QueryStore(root)
        old.save_payload(_digest(1), {"old": True})
        old.flush()
        shutil.rmtree(root)

        new = QueryStore(root)
        assert new._read_conn is not old._read_conn
        assert len(new) == 0 and new.load_payload(_digest(1)) is None
        new.save_payload(_digest(2), {"new": True})
        new.flush()
        # The registry dropped the deleted root's connection, so it closes
        # with the last store that holds it: no descriptor on a deleted
        # file lingers until a cyclic collection.
        old_connection = old._read_conn
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
        assert all(entry.connection is not first._read_conn for entry in registry.values())
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
            seen["shared"] = store._read_conn is main._read_conn
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
        parent_connection = parent._read_conn
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            pytest.skip("fork start method unavailable")

        def _child():
            opened = QueryStore(tmp_path)
            assert opened._read_conn is not parent_connection
            assert opened.load_payload(_digest(1)) == {"parent": True}
            # The inherited store object reopens too, onto the child's connection.
            assert parent.load_payload(_digest(1)) == {"parent": True}
            assert parent._read_conn is opened._read_conn
            opened.save_payload(_digest(2), {"child": True})
            opened.close()

        process = context.Process(target=_child)
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0
        assert parent._read_conn is parent_connection
        assert parent.load_payload(_digest(2)) == {"child": True}


class TestGcRaces:
    def test_gc_tolerates_vanished_shards(self, tmp_path):
        store = QueryStore(tmp_path)
        store.save_payload(_digest(1), {"ok": True})
        # A dangling symlink stats like a shard file that a concurrent
        # merge or gc unlinked between the directory listing and the stat.
        (tmp_path / "shards").mkdir()
        (tmp_path / "shards" / "t9a1.sqlite").symlink_to(tmp_path / "never-existed")
        result = store.gc(older_than_seconds=3600)
        assert result.removed_debris == 0  # vanished: neither kept nor removed
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
