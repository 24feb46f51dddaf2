"""The SQLite backend behind every content-addressed store tier.

Every persistent tier (:class:`~repro.orchestrator.store.SummaryStore`,
:class:`~repro.orchestrator.verdicts.VerdictStore`,
:class:`~repro.orchestrator.store.QueryStore`) keeps ``digest -> text``
entries plus cumulative metrics in one ``store.sqlite`` per store root:
WAL journal, writes buffered and flushed as ``INSERT OR REPLACE``
batches, lock contention absorbed by a busy-timeout plus jittered-backoff
retry.  Worker processes never write the main database at all: a *shard
view* reads the main file and appends to a private
``shards/<tag>.sqlite``, which the parent bulk-merges (``ATTACH`` +
``INSERT OR REPLACE ... SELECT``) as each task's result arrives.

Each process (and thread) keeps one main connection per database file
open and shares it between every store it opens on that root (see
:func:`_shared_connections`), so a certify call that opens three or four
tiers connects once per root and process, not once per tier per call.

The schema is versioned in the database itself; opening a database from
a *newer* repro fails loudly, an *older* one points at ``python -m repro
store migrate``, and a file that is not a store at all (torn write,
truncation) is quarantined aside.  A root that still holds the legacy
one-file-per-entry JSON layout (``<digest[:2]>/<digest>.json`` plus a
``metrics.json`` sidecar) is read-only input: :func:`migrate_store`
imports it into SQLite, and the store façade runs that import the first
time it opens such a root.  :func:`migrate_store` also upgrades SQLite
v(N) -> v(N+1) in place.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..obs.trace import wall_clock
from .errors import StoreError

__all__ = [
    "GcResult",
    "MigrationResult",
    "SQLITE_FILENAME",
    "STORE_SCHEMA_VERSION",
    "SqliteBackend",
    "holds_json_layout",
    "migrate_store",
]

#: The single-file SQLite database holding every entry of a store root.
SQLITE_FILENAME = "store.sqlite"

#: The legacy JSON layout's cumulative-counters sidecar.
LEGACY_METRICS_NAME = "metrics.json"

#: Current SQLite store schema.  v1 was the initial prototype layout
#: (no per-entry mtime, so ``gc --older-than-days`` could not tell warm
#: entries from cold ones); v2 added the ``mtime`` column and moved the
#: cumulative metrics sidecar into the ``meta`` table.  Bump on layout
#: changes and register an upgrade in :data:`_SQLITE_MIGRATIONS`.
STORE_SCHEMA_VERSION = 2

#: Suffix given to quarantined (corrupt) databases; gc sweeps them.
QUARANTINE_SUFFIX = ".corrupt"

#: Writes buffered before an automatic flush (one INSERT OR REPLACE batch).
DEFAULT_BATCH_SIZE = 256

#: Read-touch granularity: a SQLite entry's mtime is only refreshed when
#: it is staler than this.  Gc age horizons are measured in days, so
#: hour-level precision loses nothing — and it keeps warm re-reads of
#: recently-touched entries from queueing mtime UPDATEs at all, which
#: would otherwise cost more than the reads themselves.
_TOUCH_GRANULARITY_SECONDS = 3600.0

#: Seconds SQLite itself blocks on a locked database before returning
#: SQLITE_BUSY; the jittered retry loop sits on top of this.
_BUSY_TIMEOUT_SECONDS = 5.0
_BUSY_RETRIES = 6
_BUSY_BACKOFF_SECONDS = 0.05

#: Main connections a process keeps registered for reuse (see
#: :func:`_shared_connections`); the least recently opened goes first.
_MAX_SHARED_CONNECTIONS = 8

T = TypeVar("T")


@dataclass
class GcResult:
    """What one store ``gc`` sweep did."""

    removed_entries: int = 0
    removed_debris: int = 0
    kept_entries: int = 0
    bytes_freed: int = 0

    def summary(self) -> str:
        return (
            f"removed {self.removed_entries} entries and {self.removed_debris} debris files "
            f"({self.bytes_freed} bytes), kept {self.kept_entries} entries"
        )


def _size_of(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:  # racing removal: a concurrent writer/gc got there first
        return 0


def _mtime_of(path: Path) -> Optional[float]:
    """The file's mtime, or ``None`` when it vanished under us.

    Files listed by a directory scan can be unlinked by a concurrent
    writer (or another gc) before we stat them; a vanished file is
    nobody's bug and must never abort the sweep.
    """
    try:
        return path.stat().st_mtime
    except OSError:
        return None


def _fold_metrics(totals: dict, counters: dict) -> dict:
    """Key-sum one run's numeric counters into the cumulative totals."""
    for key, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        totals[key] = totals.get(key, 0) + value
    totals["runs"] = int(totals.get("runs", 0)) + 1
    return totals


# -- shared main connections ---------------------------------------------------------

#: Per thread: ``registry``, its main connections by database path, least
#: recently opened first; and ``pid``, the process that opened them.
_local = threading.local()
#: Connections inherited through ``fork``.  A child never uses its
#: parent's connections, and keeps them referenced so it never closes
#: them either.
_inherited: List[object] = []


class _SharedConnection:
    """A main connection, closed once neither the registry nor a store holds it.

    A ``sqlite3.Connection`` sits in a reference cycle with its own
    statement cache, so an unused one would keep its page cache and file
    descriptors until a cyclic collection; this holder closes it as soon
    as the last reference goes.
    """

    __slots__ = ("connection", "identity")

    def __init__(
        self, connection: sqlite3.Connection, identity: Optional[Tuple[int, int]]
    ) -> None:
        self.connection = connection
        #: ``(st_dev, st_ino)`` of the file the connection holds open.
        self.identity = identity

    def __del__(self) -> None:
        try:
            self.connection.close()
        except sqlite3.Error:  # dropped on another thread: GC closes it later
            pass


def _file_identity(path: str) -> Optional[Tuple[int, int]]:
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def _shared_connections() -> "OrderedDict[str, _SharedConnection]":
    """This thread's registry of main connections, stale entries dropped.

    An entry is reused only while its path still names the file the
    connection holds open.  The open descriptor pins that inode, so a
    root that was deleted, quarantined or recreated since always shows a
    different ``(st_dev, st_ino)`` and gets a new connection; dropping the
    stale entry also lets the old file go once no live store holds it.
    """
    registry = getattr(_local, "registry", None)
    if registry is None or _local.pid != os.getpid():
        if registry is not None:
            _inherited.append(registry)
        registry = _local.registry = OrderedDict()
        _local.pid = os.getpid()
    for path, shared in list(registry.items()):
        current = _file_identity(path)
        if current is None or current != shared.identity:
            del registry[path]
    return registry


# -- SQLite backend -------------------------------------------------------------------

_SCHEMA_STATEMENTS = (
    "CREATE TABLE IF NOT EXISTS entries ("
    " digest TEXT PRIMARY KEY,"
    " payload TEXT NOT NULL,"
    " mtime REAL NOT NULL)",
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
)


class SqliteBackend:
    """Single-file batched SQLite store (see the module docstring).

    ``shard`` switches the backend into its worker view: reads come from
    the main database, writes land in ``shards/<shard>.sqlite`` for the
    parent's :meth:`merge_shards` to fold in.  The shard file is created
    on the view's first write, so a view that only reads leaves nothing
    to merge.  The main connection is shared within the process and
    thread (see :func:`_shared_connections`), the shard connection is
    the view's own; a backend inherited through ``fork`` transparently
    reopens on first use in the child.
    """

    def __init__(
        self,
        root: Path,
        kind: str = "store",
        statistics: Optional[object] = None,
        shard: Optional[str] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.root = root
        self.kind = kind
        self.statistics = statistics
        self.shard = shard
        self.batch_size = max(1, batch_size)
        self.path = root / SQLITE_FILENAME
        self._pid = os.getpid()
        self._pending: Dict[str, str] = {}
        self._touched: Dict[str, float] = {}
        self._main: Optional[_SharedConnection] = None
        self._read_conn: Optional[sqlite3.Connection] = None
        self._write_conn: Optional[sqlite3.Connection] = None
        self._open()

    # -- connection management -------------------------------------------------------

    @property
    def shard_path(self) -> Optional[Path]:
        if self.shard is None:
            return None
        return self.root / "shards" / f"{self.shard}.sqlite"

    def _connect(self, path: Path) -> sqlite3.Connection:
        connection = sqlite3.connect(
            str(path), timeout=_BUSY_TIMEOUT_SECONDS, isolation_level=None
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        return connection

    def _open(self) -> None:
        """Attach the shared main connection and check its schema.

        The schema check runs on every open, reused connection or not, so
        a database that a newer repro rewrote in between is still refused.
        """
        shared = _shared_connections()
        key = str(self.path)
        main = shared.get(key)
        try:
            self._read_conn = main.connection if main is not None else self._connect(self.path)
            self._validate_main()
        except sqlite3.DatabaseError:
            # Not a SQLite file at all (torn write, truncation, random
            # garbage): quarantine the database and start fresh — the
            # store is a cache, so the price is recomputation, never a
            # wrong answer.
            shared.pop(key, None)
            main = None
            self._quarantine_database()
            self._read_conn = self._connect(self.path)
            self._initialize(self._read_conn)
        if main is None:
            # Dropping an entry drops the registry's reference only: a
            # live store that holds the connection keeps it open.
            main = shared[key] = _SharedConnection(self._read_conn, _file_identity(key))
            while len(shared) > _MAX_SHARED_CONNECTIONS:
                shared.popitem(last=False)
        else:
            shared.move_to_end(key)
        self._main = main
        # A shard view opens its shard in _writer, on its first write.
        self._write_conn = self._read_conn if self.shard is None else None

    def _writer(self) -> sqlite3.Connection:
        """The write connection, creating a shard view's shard on first use."""
        self._ensure_process()
        if self._write_conn is None:
            shard_path = self.shard_path
            assert shard_path is not None
            shard_path.parent.mkdir(parents=True, exist_ok=True)
            self._write_conn = self._connect(shard_path)
            self._initialize(self._write_conn)
        return self._write_conn

    def _initialize(self, connection: sqlite3.Connection) -> None:
        for statement in _SCHEMA_STATEMENTS:
            self._retry(lambda s=statement: connection.execute(s))
        self._retry(
            lambda: connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        )
        self._retry(
            lambda: connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('kind', ?)", (self.kind,)
            )
        )

    def _validate_main(self) -> None:
        """Create a fresh schema, or police the version of an existing one."""
        assert self._read_conn is not None
        tables = {
            row[0]
            for row in self._read_conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        if not tables:
            self._initialize(self._read_conn)
            return
        if "meta" not in tables or "entries" not in tables:
            # A SQLite file, but not one of ours: treat as corruption.
            raise sqlite3.DatabaseError("not a repro store database")
        row = self._read_conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        try:
            version = int(row[0]) if row is not None else None
        except (TypeError, ValueError):
            version = None
        if version is None:
            raise sqlite3.DatabaseError("store database has no readable schema version")
        if version > STORE_SCHEMA_VERSION:
            # Never quarantine data from the future: refusing loudly is
            # the only safe answer to a database a newer repro wrote.
            raise StoreError(
                f"{self.kind} at {self.path} has schema v{version}, newer than this "
                f"repro's v{STORE_SCHEMA_VERSION}; refusing to open it"
            )
        if version < STORE_SCHEMA_VERSION:
            raise StoreError(
                f"{self.kind} at {self.path} has schema v{version} "
                f"(current is v{STORE_SCHEMA_VERSION}); "
                "run `python -m repro store migrate` to upgrade it in place"
            )

    def _quarantine_database(self) -> None:
        # Not closed: another live store may share the connection.
        self._read_conn = None
        target = self.path.with_name(self.path.name + QUARANTINE_SUFFIX)
        try:
            os.replace(self.path, target)
        except OSError:
            try:
                self.path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
        for suffix in ("-wal", "-shm"):
            sidecar = self.path.with_name(self.path.name + suffix)
            try:
                sidecar.unlink()
            except OSError:
                pass
        if self.statistics is not None:
            self.statistics.corrupt_entries += 1
            self.statistics.quarantined += 1

    def _ensure_process(self) -> None:
        """Reopen after a fork: SQLite connections must not cross processes.

        The forked child drops the parent's buffered writes — the parent
        still holds (and will flush) its own copy, and replaying them from
        the child would at best be redundant ``INSERT OR REPLACE`` traffic.
        """
        if os.getpid() == self._pid:
            return
        self._pid = os.getpid()
        self._pending.clear()
        self._touched.clear()
        _inherited.append((self._main, self._write_conn))
        self._main = self._read_conn = self._write_conn = None
        self._open()

    def _retry(self, operation: Callable[[], T]) -> T:
        """Run one statement, absorbing SQLITE_BUSY with jittered backoff.

        The built-in busy timeout already blocks for
        :data:`_BUSY_TIMEOUT_SECONDS`; the loop on top spreads N
        colliding writers out instead of letting them re-stampede the
        lock in sync.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise StoreError(f"{self.kind} at {self.path}: {exc}") from exc
                if attempt >= _BUSY_RETRIES:
                    raise StoreError(
                        f"{self.kind} at {self.path} is locked after "
                        f"{attempt} retries: {exc}"
                    ) from exc
                if self.statistics is not None:
                    self.statistics.busy_retries += 1
                delay = _BUSY_BACKOFF_SECONDS * (2**attempt) * (0.5 + random.random())
                time.sleep(delay)
                attempt += 1

    # -- raw entry I/O ---------------------------------------------------------------

    def read(self, digest: str) -> Optional[str]:
        pending = self._pending.get(digest)
        if pending is not None:
            return pending
        if os.getpid() != self._pid:
            self._ensure_process()
        # Happy path first, no retry-closure allocation: warm fleet runs
        # are read-dominated, and WAL readers essentially never block.
        try:
            row = self._read_conn.execute(  # type: ignore[union-attr]
                "SELECT payload, mtime FROM entries WHERE digest=?", (digest,)
            ).fetchone()
        except sqlite3.OperationalError:
            row = self._retry(
                lambda: self._read_conn.execute(
                    "SELECT payload, mtime FROM entries WHERE digest=?", (digest,)
                ).fetchone()
            )
        if row is None:
            return None
        # Touches batch with the writes: gc's age horizon only needs the
        # mtime eventually, and a per-read UPDATE would turn every warm
        # read into a write lock.  Fresh entries skip the queue entirely
        # (see _TOUCH_GRANULARITY_SECONDS).
        now = wall_clock()
        if now - row[1] > _TOUCH_GRANULARITY_SECONDS:
            self._touched[digest] = now
            if len(self._touched) >= self.batch_size:
                self.flush()
        return row[0]

    def write(self, digest: str, text: str) -> None:
        if os.getpid() != self._pid:
            self._ensure_process()
        self._pending[digest] = text
        self._touched.pop(digest, None)
        if len(self._pending) >= self.batch_size:
            self.flush()

    def write_many(self, rows: Iterable[Tuple[str, str, float]]) -> int:
        """Bulk insert ``(digest, text, mtime)`` rows in one batch."""
        connection = self._writer()
        materialized = list(rows)
        self._retry(
            lambda: connection.executemany(
                "INSERT OR REPLACE INTO entries (digest, payload, mtime) VALUES (?, ?, ?)",
                materialized,
            )
        )
        return len(materialized)

    def read_many(self, digests: Sequence[str]) -> Dict[str, str]:
        """Bulk read: one chunked ``SELECT ... IN`` instead of N round trips.

        This is where the batched backend earns warm fleet runs: a delta
        re-certification probes one verdict record per pipeline, and
        fetching them hundreds at a time costs one statement per chunk,
        not one per pipeline.
        """
        found: Dict[str, str] = {}
        remaining: List[str] = []
        for digest in digests:
            pending = self._pending.get(digest)
            if pending is not None:
                found[digest] = pending
            else:
                remaining.append(digest)
        if not remaining:
            return found
        if os.getpid() != self._pid:
            self._ensure_process()
        now = wall_clock()
        # Stay well under SQLite's default 999-parameter limit per statement.
        for start in range(0, len(remaining), 400):
            chunk = remaining[start:start + 400]
            marks = ",".join("?" * len(chunk))
            rows = self._retry(
                lambda c=chunk, m=marks: self._read_conn.execute(
                    f"SELECT digest, payload, mtime FROM entries "
                    f"WHERE digest IN ({m})",
                    c,
                ).fetchall()
            )
            for digest, payload, mtime in rows:
                found[digest] = payload
                if now - mtime > _TOUCH_GRANULARITY_SECONDS:
                    self._touched[digest] = now
        if len(self._touched) >= self.batch_size:
            self.flush()
        return found

    def quarantine(self, digest: str) -> None:
        """Drop a corrupt entry (row removal *is* the quarantine for rows).

        Unlike files there is no rename-aside for a single row; the
        payload is garbage JSON inside a healthy database, so deletion
        loses nothing worth a post-mortem.
        """
        self._pending.pop(digest, None)
        self._touched.pop(digest, None)
        connection = self._writer()
        self._retry(
            lambda: connection.execute("DELETE FROM entries WHERE digest=?", (digest,))
        )

    def contains(self, digest: str) -> bool:
        if digest in self._pending:
            return True
        if os.getpid() != self._pid:
            self._ensure_process()
        try:
            row = self._read_conn.execute(  # type: ignore[union-attr]
                "SELECT 1 FROM entries WHERE digest=?", (digest,)
            ).fetchone()
        except sqlite3.OperationalError:
            row = self._retry(
                lambda: self._read_conn.execute(
                    "SELECT 1 FROM entries WHERE digest=?", (digest,)
                ).fetchone()
            )
        return row is not None

    # -- maintenance -----------------------------------------------------------------

    def count(self) -> int:
        self.flush()
        assert self._read_conn is not None
        return self._retry(
            lambda: self._read_conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        )[0]

    def size_bytes(self) -> int:
        """Bytes held by live payloads (debris and index overhead excluded)."""
        self.flush()
        assert self._read_conn is not None
        return self._retry(
            lambda: self._read_conn.execute(
                "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM entries"
            ).fetchone()
        )[0]

    def clear(self) -> int:
        removed = self.count()  # flushes first, so buffered writes count too
        connection = self._writer()
        self._retry(lambda: connection.execute("DELETE FROM entries"))
        return removed

    def gc(self, older_than_seconds: Optional[float] = None) -> GcResult:
        self.flush()
        connection = self._writer()
        result = GcResult()
        now = wall_clock()
        for path in self.root.glob(f"*{QUARANTINE_SUFFIX}"):
            result.bytes_freed += _size_of(path)
            path.unlink(missing_ok=True)
            result.removed_debris += 1
        # Orphaned shard databases: crashed workers whose shards were
        # never merged.  Anything older than a minute cannot belong to a
        # live pool (merge-on-join runs the moment the pool exits).
        for path in self.root.glob("shards/*"):
            mtime = _mtime_of(path)
            if mtime is not None and now - mtime > 60:
                result.bytes_freed += _size_of(path)
                path.unlink(missing_ok=True)
                result.removed_debris += 1
        if older_than_seconds is not None:
            horizon = now - older_than_seconds
            freed = self._retry(
                lambda: connection.execute(
                    "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                    "FROM entries WHERE mtime < ?",
                    (horizon,),
                ).fetchone()
            )
            result.removed_entries = freed[0]
            result.bytes_freed += freed[1]
            self._retry(
                lambda: connection.execute("DELETE FROM entries WHERE mtime < ?", (horizon,))
            )
        result.kept_entries = self.count()
        if result.removed_entries:
            # Return the space to the filesystem; safe here because gc is
            # an explicit maintenance call, not a hot-path operation.
            self._retry(lambda: connection.execute("VACUUM"))
        return result

    # -- metrics ---------------------------------------------------------------------

    def load_metrics(self) -> dict:
        self._ensure_process()
        assert self._read_conn is not None
        row = self._retry(
            lambda: self._read_conn.execute(
                "SELECT value FROM meta WHERE key='metrics'"
            ).fetchone()
        )
        if row is None:
            return {}
        try:
            payload = json.loads(row[0])
        except ValueError:
            return {}
        return payload if isinstance(payload, dict) else {}

    def record_metrics(self, counters: dict) -> dict:
        """Fold one run's counters into the totals, atomically.

        The read-fold-write runs inside one ``BEGIN IMMEDIATE``
        transaction, so concurrent recorders serialize instead of losing
        increments — strictly better than the JSON sidecar's
        last-writer-wins.
        """
        connection = self._writer()

        def _transact() -> dict:
            connection.execute("BEGIN IMMEDIATE")
            try:
                row = connection.execute(
                    "SELECT value FROM meta WHERE key='metrics'"
                ).fetchone()
                try:
                    totals = json.loads(row[0]) if row is not None else {}
                except ValueError:
                    totals = {}
                if not isinstance(totals, dict):
                    totals = {}
                totals = _fold_metrics(totals, counters)
                connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('metrics', ?)",
                    (json.dumps(totals, sort_keys=True),),
                )
                connection.execute("COMMIT")
                return totals
            except BaseException:
                connection.execute("ROLLBACK")
                raise

        return self._retry(_transact)

    # -- lifecycle / sharding --------------------------------------------------------

    def flush(self) -> None:
        """Push buffered writes and mtime touches in two batched statements."""
        self._ensure_process()
        if self._pending:
            connection = self._writer()
            now = wall_clock()
            rows = [(digest, text, now) for digest, text in self._pending.items()]
            self._retry(
                lambda: connection.executemany(
                    "INSERT OR REPLACE INTO entries (digest, payload, mtime) "
                    "VALUES (?, ?, ?)",
                    rows,
                )
            )
            self._pending.clear()
        if self._touched and self.shard is None:
            # Touch refreshes only make sense against the main database
            # (a shard view's reads came from main, which it must not
            # write); shard-view touches are simply dropped.
            connection = self._writer()
            rows = [(mtime, digest) for digest, mtime in self._touched.items()]
            self._retry(
                lambda: connection.executemany(
                    "UPDATE entries SET mtime=? WHERE digest=?", rows
                )
            )
        self._touched.clear()

    def close(self) -> None:
        """Flush, and close a shard view's shard.

        The main connection stays open for the next store this process
        opens on the root; it closes once neither the registry nor a live
        store holds it.
        """
        try:
            self.flush()
        finally:
            if self.shard is not None and self._write_conn is not None:
                try:
                    self._write_conn.close()
                except sqlite3.Error:  # pragma: no cover - already broken
                    pass
                self._write_conn = None

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            if os.getpid() == self._pid:
                self.close()
        except Exception:
            pass

    def merge_shards(self, only=None) -> int:
        """Fold ``shards/*.sqlite`` into the main database, then delete them.

        One ``ATTACH`` + ``INSERT OR REPLACE ... SELECT`` per shard — the
        whole shard lands in a single statement, which is the point of
        sharding: merge-on-join scales with the number of *workers*, not
        the number of entries.  ``only`` restricts the fold to the named
        shard tags (the scheduler's incremental per-task merge); missing
        shards — a task that wrote nothing never creates its file — are
        silently skipped.
        """
        if self.shard is not None:
            raise StoreError("merge_shards must run on the main store, not a shard view")
        self.flush()
        assert self._write_conn is not None
        merged = 0
        if only is None:
            shard_paths = sorted(self.root.glob("shards/*.sqlite"))
        else:
            shard_paths = [
                path
                for tag in only
                if (path := self.root / "shards" / f"{tag}.sqlite").exists()
            ]
        for shard_path in shard_paths:
            try:
                self._retry(
                    lambda p=shard_path: self._write_conn.execute(
                        "ATTACH DATABASE ? AS shard", (str(p),)
                    )
                )
            except (StoreError, sqlite3.DatabaseError):
                continue  # torn shard from a crashed worker: gc sweeps it
            try:
                cursor = self._retry(
                    lambda: self._write_conn.execute(
                        "INSERT OR REPLACE INTO entries "
                        "SELECT digest, payload, mtime FROM shard.entries"
                    )
                )
                merged += max(cursor.rowcount, 0)
            except (StoreError, sqlite3.DatabaseError):
                continue  # not a store shard: leave it for gc
            finally:
                self._retry(lambda: self._write_conn.execute("DETACH DATABASE shard"))
            for suffix in ("", "-wal", "-shm"):
                try:
                    shard_path.with_name(shard_path.name + suffix).unlink()
                except OSError:
                    pass
        return merged


# -- migration --------------------------------------------------------------------


def holds_json_layout(root: Path) -> bool:
    """Whether ``root`` holds the legacy JSON layout and no SQLite store yet."""
    if (root / SQLITE_FILENAME).exists():
        return False
    if (root / LEGACY_METRICS_NAME).exists():
        return True
    return next(root.glob("??/*.json*"), None) is not None


@dataclass
class MigrationResult:
    """What :func:`migrate_store` did to one store root."""

    root: str
    action: str  # "json-to-sqlite" | "upgraded" | "up-to-date" | "initialized"
    from_version: Optional[int] = None
    to_version: int = STORE_SCHEMA_VERSION
    entries: int = 0

    def summary(self) -> str:
        if self.action == "json-to-sqlite":
            return f"migrated {self.entries} JSON entries to SQLite v{self.to_version}"
        if self.action == "upgraded":
            return (
                f"upgraded SQLite schema v{self.from_version} -> v{self.to_version} "
                f"({self.entries} entries)"
            )
        if self.action == "initialized":
            return f"initialized empty SQLite store (schema v{self.to_version})"
        return f"already SQLite v{self.to_version} ({self.entries} entries)"


def _migrate_v1_to_v2(connection: sqlite3.Connection) -> None:
    """v1 -> v2: per-entry mtimes (age-horizon gc) + in-database metrics.

    Existing entries are stamped with the migration time — the most
    conservative age (nothing becomes instantly evictable), matching how
    a restored-from-backup JSON store would look.
    """
    columns = {row[1] for row in connection.execute("PRAGMA table_info(entries)")}
    if "mtime" not in columns:
        connection.execute("ALTER TABLE entries ADD COLUMN mtime REAL NOT NULL DEFAULT 0")
    connection.execute("UPDATE entries SET mtime=? WHERE mtime=0", (wall_clock(),))


#: Registered in-place upgrades: version N -> N+1.
_SQLITE_MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {
    1: _migrate_v1_to_v2,
}


def _import_json_layout(root: Path, kind: str) -> int:
    """Import a legacy JSON layout into SQLite, then delete it; returns entries imported.

    Entry mtimes carry over, so gc age horizons survive, and the metrics
    sidecar moves into the ``meta`` table.  The JSON files are removed
    only after the SQLite writes are committed.
    """
    rows: List[Tuple[str, str, float]] = []
    for path in sorted(root.glob("??/*.json")):
        mtime = _mtime_of(path)
        if mtime is None:
            continue  # vanished under a concurrent writer
        try:
            rows.append((path.stem, path.read_text(), mtime))
        except OSError:
            continue
    try:
        metrics = json.loads((root / LEGACY_METRICS_NAME).read_text())
    except (OSError, ValueError):
        metrics = None
    backend = SqliteBackend(root, kind=kind)
    backend.write_many(rows)
    if isinstance(metrics, dict) and metrics:
        # Seed the totals verbatim (record_metrics would add a run).
        backend._retry(
            lambda: backend._writer().execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('metrics', ?)",
                (json.dumps(metrics, sort_keys=True),),
            )
        )
    backend.close()
    for path in root.glob("??/*"):
        path.unlink(missing_ok=True)
    for bucket in root.glob("??"):
        try:
            bucket.rmdir()
        except OSError:  # pragma: no cover - non-empty: a racing writer refilled it
            pass
    (root / LEGACY_METRICS_NAME).unlink(missing_ok=True)
    return len(rows)


def migrate_store(root, kind: str = "store") -> MigrationResult:
    """Migrate one store root to the current SQLite schema, in place.

    * Legacy JSON layout -> SQLite: every entry is bulk-inserted (mtimes
      preserved, so gc age horizons survive), the metrics sidecar moves
      into the ``meta`` table, and the JSON files are removed only after
      the SQLite database is fully written.
    * SQLite v(N) -> v(N+1): registered upgrades run stepwise inside one
      transaction per step.
    * A schema from a *newer* repro raises :class:`StoreError` — refusing
      unknown future versions loudly beats guessing at their layout.
    """
    root = Path(root).expanduser()
    root.mkdir(parents=True, exist_ok=True)
    if holds_json_layout(root):
        return MigrationResult(
            str(root), "json-to-sqlite", entries=_import_json_layout(root, kind)
        )
    if not (root / SQLITE_FILENAME).exists():
        SqliteBackend(root, kind=kind).close()
        return MigrationResult(str(root), "initialized")

    # SQLite already: inspect the version with a raw connection (the
    # backend class itself refuses to open old versions).
    path = root / SQLITE_FILENAME
    connection = sqlite3.connect(str(path), timeout=_BUSY_TIMEOUT_SECONDS)
    try:
        try:
            row = connection.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"{kind} at {path} is not a readable store database ({exc}); "
                "quarantine it by opening the store, then re-run migration"
            ) from exc
        try:
            version = int(row[0]) if row is not None else None
        except (TypeError, ValueError):
            version = None
        if version is None:
            raise StoreError(
                f"{kind} at {path} has no readable schema version; "
                "quarantine it by opening the store, then re-run migration"
            )
        if version > STORE_SCHEMA_VERSION:
            raise StoreError(
                f"{kind} at {path} has schema v{version}, newer than this repro's "
                f"v{STORE_SCHEMA_VERSION}; refusing to touch it"
            )
        from_version = version
        while version < STORE_SCHEMA_VERSION:
            upgrade = _SQLITE_MIGRATIONS.get(version)
            if upgrade is None:  # pragma: no cover - would be a registration bug
                raise StoreError(f"no registered migration from schema v{version}")
            connection.execute("BEGIN IMMEDIATE")
            try:
                upgrade(connection)
                version += 1
                connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(version),),
                )
                connection.execute("COMMIT")
            except BaseException:
                connection.execute("ROLLBACK")
                raise
        entries = connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        action = "up-to-date" if from_version == STORE_SCHEMA_VERSION else "upgraded"
        return MigrationResult(
            str(root), action, from_version=from_version, entries=entries
        )
    finally:
        connection.close()
