"""Tests for the pluggable store-backend seam: JSON files vs batched SQLite.

Every tier (summary, verdict, query) must behave identically through the
:class:`repro.orchestrator.store.Store` façade no matter which backend
holds the bytes; these tests parametrize the round trips over both
backends, exercise the SQLite-only machinery (schema versioning, whole-
database quarantine, worker shards, write batching) and the explicit
migrations (JSON layout -> SQLite, schema v1 -> v2).
"""

import json
import os
import sqlite3
import time

import pytest

from repro.cli.main import EXIT_OK, main as cli_main
from repro.orchestrator import (
    SQLITE_FILENAME,
    STORE_SCHEMA_VERSION,
    QueryStore,
    SummaryStore,
    VerdictStore,
    certify_fleet,
    detect_backend_name,
    migrate_store,
)
from repro.orchestrator.errors import StoreError
from repro.symbex import SymbexOptions
from repro.symbex.engine import SymbolicEngine
from repro.verify import CrashFreedom
from repro.workloads import fleet_catalog, ip_router_elements

BACKENDS = ("json", "sqlite")
CONCRETE = SymbexOptions(static_table_mode="concrete")


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


@pytest.mark.parametrize("backend", BACKENDS)
class TestRoundTrip:
    """The same tier contents must survive a close/reopen on either backend."""

    def test_summary_tier(self, backend, tmp_path):
        element = ip_router_elements(1)[0]
        store = SummaryStore(tmp_path, backend=backend)
        assert store.backend_name == backend
        store.save(element, 24, CONCRETE, _summarize(element))
        store.close()
        # Reopen with auto-detection: the layout on disk decides.
        reopened = SummaryStore(tmp_path)
        assert reopened.backend_name == backend
        loaded = reopened.load(element, 24, CONCRETE)
        assert loaded is not None and reopened.statistics.hits == 1
        assert len(reopened) == 1

    def test_verdict_tier_serves_delta_mode(self, backend, tmp_path):
        catalog = fleet_catalog(3)
        cold = certify_fleet(
            catalog, [CrashFreedom()], input_lengths=(24,),
            verdict_store=VerdictStore(tmp_path, backend=backend),
        )
        warm = certify_fleet(
            fleet_catalog(3), [CrashFreedom()], input_lengths=(24,),
            verdict_store=VerdictStore(tmp_path),
        )
        assert warm.statistics.verdicts_reused == len(catalog)
        assert warm.statistics.summaries_computed == 0
        assert warm.verdicts() == cold.verdicts()

    def test_query_tier(self, backend, tmp_path):
        payload = {"verdict": "unsat", "core": [1, 2, 3]}
        store = QueryStore(tmp_path, backend=backend)
        store.save_payload(_digest(1), payload)
        store.flush()
        assert store.contains(_digest(1)) and not store.contains(_digest(2))
        store.close()
        reopened = QueryStore(tmp_path)
        assert reopened.load_payload(_digest(1)) == payload
        assert reopened.load_payload(_digest(2)) is None
        assert reopened.statistics.hits == 1 and reopened.statistics.misses == 1

    def test_read_entries_bulk(self, backend, tmp_path):
        store = QueryStore(tmp_path, backend=backend)
        for index in range(5):
            store.write_entry(_digest(index), f"payload-{index}")
        store.flush()
        wanted = [_digest(index) for index in range(7)]  # 5 present + 2 absent
        found = store.read_entries(wanted)
        assert found == {_digest(index): f"payload-{index}" for index in range(5)}
        assert store.statistics.misses == 2

    def test_read_entries_sees_unflushed_writes(self, backend, tmp_path):
        store = QueryStore(tmp_path, backend=backend)
        store.write_entry(_digest(1), "buffered")
        assert store.read_entries([_digest(1)]) == {_digest(1): "buffered"}

    def test_metrics_accumulate_across_reopen(self, backend, tmp_path):
        store = QueryStore(tmp_path, backend=backend)
        store.record_metrics({"hits": 3, "label": "ignored-not-numeric"})
        store.close()
        reopened = QueryStore(tmp_path)
        totals = reopened.record_metrics({"hits": 4})
        assert totals["hits"] == 7 and totals["runs"] == 2
        assert reopened.load_metrics() == totals

    def test_clear_and_size(self, backend, tmp_path):
        store = QueryStore(tmp_path, backend=backend)
        for index in range(3):
            store.write_entry(_digest(index), "x" * 10)
        store.flush()
        assert store.size_bytes() >= 30
        assert store.clear() == 3 and len(store) == 0


class TestSqliteCorruption:
    """SQLite parity for the torn-write / quarantine behaviour of JSON tiers."""

    def test_truncated_database_is_quarantined(self, tmp_path):
        (tmp_path / SQLITE_FILENAME).write_bytes(b"SQLite format 3\x00 torn mid-write")
        store = SummaryStore(tmp_path, backend="sqlite")
        # The garbage moved aside (kept for post-mortem), the store works.
        assert (tmp_path / (SQLITE_FILENAME + ".corrupt")).exists()
        assert store.statistics.corrupt_entries == 1
        assert store.statistics.quarantined == 1
        store.write_entry(_digest(1), "fresh")
        store.flush()
        assert len(store) == 1
        # gc sweeps the quarantined database like any .corrupt debris.
        assert store.gc().removed_debris == 1
        assert not (tmp_path / (SQLITE_FILENAME + ".corrupt")).exists()

    def test_random_garbage_is_quarantined(self, tmp_path):
        (tmp_path / SQLITE_FILENAME).write_bytes(b"\x00\x01 not a database \xff")
        store = QueryStore(tmp_path, backend="sqlite")
        assert store.statistics.quarantined == 1
        assert store.load_payload(_digest(1)) is None  # plain empty store

    def test_foreign_sqlite_file_is_quarantined(self, tmp_path):
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute("CREATE TABLE unrelated (x INTEGER)")
        connection.commit()
        connection.close()
        store = QueryStore(tmp_path, backend="sqlite")
        assert store.statistics.quarantined == 1
        assert (tmp_path / (SQLITE_FILENAME + ".corrupt")).exists()

    def test_future_schema_version_refuses_loudly(self, tmp_path):
        store = QueryStore(tmp_path, backend="sqlite")
        store.close()
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        connection.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (str(STORE_SCHEMA_VERSION + 7),),
        )
        connection.commit()
        connection.close()
        # Never quarantine data from the future: refuse to open ...
        with pytest.raises(StoreError, match="newer"):
            QueryStore(tmp_path)
        # ... and refuse to "migrate" a layout this repro cannot know.
        with pytest.raises(StoreError, match="newer"):
            migrate_store(tmp_path)

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

    def test_old_schema_version_points_at_migrate(self, tmp_path):
        self._build_v1_database(tmp_path)
        with pytest.raises(StoreError, match="store migrate"):
            QueryStore(tmp_path)

    def test_v1_to_v2_upgrade_in_place(self, tmp_path):
        self._build_v1_database(tmp_path)
        result = migrate_store(tmp_path)
        assert result.action == "upgraded"
        assert result.from_version == 1 and result.to_version == STORE_SCHEMA_VERSION
        assert result.entries == 1
        store = QueryStore(tmp_path)
        assert store.load_payload(_digest(1)) == {"v": 1}
        # Migrated entries got a fresh mtime: nothing is instantly evictable.
        assert store.gc(older_than_seconds=3600).removed_entries == 0
        assert len(store) == 1

    def test_garbage_row_is_quarantined_not_reparsed(self, tmp_path):
        store = QueryStore(tmp_path, backend="sqlite")
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
        assert reopened.statistics.corrupt_entries == 1
        assert reopened.statistics.quarantined == 1
        assert len(reopened) == 0  # the row is gone
        # The second load is a plain miss: nothing left to re-parse.
        assert reopened.load_payload(_digest(1)) is None
        assert reopened.statistics.corrupt_entries == 1
        assert reopened.statistics.misses == 2


class TestShards:
    def test_shard_view_reads_main_writes_private(self, tmp_path):
        main = QueryStore(tmp_path, backend="sqlite")
        main.save_payload(_digest(1), {"from": "main"})
        main.flush()

        shard = QueryStore(tmp_path, shard="w1")
        assert shard.backend_name == "sqlite"
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
        main = QueryStore(tmp_path, backend="sqlite")
        main.save_payload(_digest(1), {"from": "main"})
        main.flush()

        shard = QueryStore(tmp_path, shard="t1a1")
        assert shard.load_payload(_digest(1)) == {"from": "main"}
        assert shard.load_payload(_digest(2)) is None
        shard.close()  # flushes: nothing was written, so nothing is created

        assert not (tmp_path / "shards" / "t1a1.sqlite").exists()
        assert main.merge_shards(only=["t1a1"]) == 0

    def test_merge_refuses_on_shard_view(self, tmp_path):
        QueryStore(tmp_path, backend="sqlite").close()
        shard = QueryStore(tmp_path, shard="w1")
        with pytest.raises(StoreError, match="main store"):
            shard.merge_shards()

    def test_merge_tolerates_torn_shard(self, tmp_path):
        main = QueryStore(tmp_path, backend="sqlite")
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

    def test_json_backend_has_no_shards(self, tmp_path):
        store = QueryStore(tmp_path, backend="json", shard="w1")
        store.save_payload(_digest(1), {"ok": True})
        # Atomic in-place writes: immediately visible, nothing to merge.
        assert QueryStore(tmp_path).load_payload(_digest(1)) == {"ok": True}
        assert store.merge_shards() == 0


class TestBatching:
    def test_read_your_write_before_flush(self, tmp_path):
        store = QueryStore(tmp_path, backend="sqlite")
        store.save_payload(_digest(1), {"buffered": True})
        assert store.backend._pending  # still buffered ...
        assert store.load_payload(_digest(1)) == {"buffered": True}  # ... yet readable
        assert store.contains(_digest(1))

    def test_autoflush_at_batch_size(self, tmp_path):
        store = QueryStore(tmp_path, backend="sqlite")
        store.backend.batch_size = 2
        store.write_entry(_digest(1), "one")
        assert store.backend._pending
        store.write_entry(_digest(2), "two")
        assert not store.backend._pending  # batch boundary flushed for us
        connection = sqlite3.connect(str(tmp_path / SQLITE_FILENAME))
        assert connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0] == 2
        connection.close()

    def test_close_flushes(self, tmp_path):
        store = QueryStore(tmp_path, backend="sqlite")
        store.save_payload(_digest(1), {"durable": True})
        store.close()
        assert QueryStore(tmp_path).load_payload(_digest(1)) == {"durable": True}


class TestSelection:
    def test_fresh_root_detects_nothing(self, tmp_path):
        assert detect_backend_name(tmp_path) is None

    def test_layouts_detected(self, tmp_path):
        json_root, sqlite_root = tmp_path / "j", tmp_path / "s"
        QueryStore(json_root, backend="json").save_payload(_digest(1), {})
        QueryStore(sqlite_root, backend="sqlite").close()
        assert detect_backend_name(json_root) == "json"
        assert detect_backend_name(sqlite_root) == "sqlite"

    def test_requesting_conflicting_backend_raises(self, tmp_path):
        QueryStore(tmp_path, backend="json").save_payload(_digest(1), {})
        with pytest.raises(StoreError, match="store migrate"):
            QueryStore(tmp_path, backend="sqlite")

    def test_env_default_for_fresh_roots(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        assert QueryStore(tmp_path / "fresh").backend_name == "sqlite"
        monkeypatch.setenv("REPRO_STORE_BACKEND", "postgres")
        with pytest.raises(StoreError, match="REPRO_STORE_BACKEND"):
            QueryStore(tmp_path / "other")

    def test_existing_layout_beats_env_default(self, tmp_path, monkeypatch):
        QueryStore(tmp_path, backend="json").save_payload(_digest(1), {"keep": 1})
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        store = QueryStore(tmp_path)  # auto-detect wins over the env default
        assert store.backend_name == "json"
        assert store.load_payload(_digest(1)) == {"keep": 1}


class TestMigration:
    def test_json_to_sqlite_preserves_entries_metrics_and_mtimes(self, tmp_path):
        store = QueryStore(tmp_path, backend="json")
        store.save_payload(_digest(1), {"stale": True})
        store.save_payload(_digest(2), {"fresh": True})
        totals = store.record_metrics({"hits": 5})
        old = time.time() - 10 * 24 * 3600
        os.utime(store._path(_digest(1)), (old, old))

        result = migrate_store(tmp_path)
        assert result.action == "json-to-sqlite" and result.entries == 2
        assert detect_backend_name(tmp_path) == "sqlite"
        assert not list(tmp_path.glob("??/*.json"))  # JSON layout fully retired
        assert not (tmp_path / "metrics.json").exists()

        migrated = QueryStore(tmp_path)
        assert migrated.load_payload(_digest(2)) == {"fresh": True}
        assert migrated.load_metrics() == totals  # sidecar moved into meta
        # Entry mtimes survived: the stale entry (never re-read, so never
        # re-warmed) is still evictable by age.
        swept = migrated.gc(older_than_seconds=24 * 3600)
        assert swept.removed_entries == 1 and swept.kept_entries == 1
        assert migrated.load_payload(_digest(1)) is None

    def test_migrate_is_idempotent(self, tmp_path):
        QueryStore(tmp_path, backend="sqlite").save_payload(_digest(1), {})
        first = migrate_store(tmp_path)
        assert first.action == "up-to-date" and first.entries == 1

    def test_migrate_fresh_root_initializes(self, tmp_path):
        result = migrate_store(tmp_path / "new")
        assert result.action == "initialized"
        assert detect_backend_name(tmp_path / "new") == "sqlite"

    def test_cli_migration_smoke(self, tmp_path, capsys):
        """The CI migration smoke, in-process: JSON certify -> migrate -> delta."""
        summary_root = str(tmp_path / "summaries")
        verdict_root = str(tmp_path / "verdicts")
        catalog = fleet_catalog(3)
        certify_fleet(
            catalog, [CrashFreedom()], input_lengths=(24,),
            store=SummaryStore(summary_root, backend="json"),
            verdict_store=VerdictStore(verdict_root, backend="json"),
        )
        code = cli_main(
            ["store", "migrate", "--store", summary_root, "--verdict-store", verdict_root]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "migrated" in out and "SQLite" in out
        assert detect_backend_name(tmp_path / "summaries") == "sqlite"
        assert detect_backend_name(tmp_path / "verdicts") == "sqlite"
        delta = certify_fleet(
            fleet_catalog(3), [CrashFreedom()], input_lengths=(24,),
            store=SummaryStore(summary_root),
            verdict_store=VerdictStore(verdict_root),
        )
        assert delta.statistics.verdicts_reused == len(catalog)
        assert delta.statistics.summaries_computed == 0


class TestDifferential:
    def test_certify_fleet_identical_across_backends(self, tmp_path):
        runs = {}
        for backend in BACKENDS:
            root = tmp_path / backend
            stores = (
                SummaryStore(root / "summaries", backend=backend),
                VerdictStore(root / "verdicts", backend=backend),
                QueryStore(root / "queries", backend=backend),
            )
            report = certify_fleet(
                fleet_catalog(3), [CrashFreedom()], input_lengths=(24,),
                store=stores[0], verdict_store=stores[1], query_store=stores[2],
            )
            runs[backend] = (
                report.verdicts(),
                [
                    (s.statistics.hits, s.statistics.misses, s.statistics.puts)
                    for s in stores
                ],
            )
        assert runs["json"] == runs["sqlite"]


class TestGcRaces:
    def test_json_gc_tolerates_vanished_entries(self, tmp_path):
        store = QueryStore(tmp_path, backend="json")
        store.save_payload(_digest(1), {"ok": True})
        # A dangling symlink stats like an entry that a concurrent writer
        # unlinked between the directory listing and the stat call.
        bucket = tmp_path / "ab"
        bucket.mkdir()
        ghost = bucket / (_digest(2) + ".json")
        ghost.symlink_to(tmp_path / "never-existed")
        result = store.gc(older_than_seconds=3600)
        assert result.kept_entries == 1  # vanished: neither kept nor removed
        assert store.size_bytes() > 0  # stat races tolerated here too

    def test_sqlite_gc_age_horizon(self, tmp_path):
        store = QueryStore(tmp_path, backend="sqlite")
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
