"""Content-addressed on-disk stores for Step-1 summaries (and friends).

The paper's cost model prices each element's symbolic execution **once**;
the in-process :class:`repro.verify.cache.SummaryCache` already reuses
summaries within one run.  The store extends that amortization across
*processes and runs*: a summary computed by any worker (or any previous
invocation) is persisted under a content hash and reloaded instead of
recomputed.

Keys are derived from everything the summary depends on: a structural
fingerprint of the element's IR program, the contents of the tables that
program declares static (in concrete static-table mode, where they are
baked into the summary terms), the input packet length, the
summary-shaping engine options (see :func:`summary_key`), and the
serialization format version.  A summary's stored text carries no
timing, so it too depends only on what symbolic execution read.

:class:`Store` is the one class behind every tier.  It keeps
``digest -> text`` entries plus cumulative metrics in one SQLite
database per root, ``<root>/store.sqlite``: WAL journal, writes buffered
and flushed as ``INSERT OR REPLACE`` batches, lock contention absorbed
by a busy timeout plus a jittered-backoff retry.  Pool workers add no
entries: they open their stores *read-only*, which buffers writes
without ever flushing them, and each task ships what it wrote in its
result for the parent to write (:meth:`Store.merge_shards`).  A process
shares one connection per database file between every store it opens
on that root (:mod:`repro.orchestrator.backends`).  Every tier decodes
entry text through one path, :meth:`Store._decode`: an entry that does
not decode is deleted and read as a miss.

The schema is versioned in the database itself.  A database this code
cannot read (a torn write, a file that is not a store, or an older
schema) is quarantined aside and the root starts empty; a database from
a *newer* repro is refused loudly.

:class:`SummaryStore` specializes the store for element summaries,
:class:`QueryStore` for sliced solver-query verdicts (the query cache's
L3 tier), :class:`repro.orchestrator.verdicts.VerdictStore` for
per-pipeline verdict records and :class:`repro.orchestrator.risk.RiskStore`
for the scheduler's risk history.  Summaries and verdict records each
decode through one process-wide memo (:class:`_DecodeMemo`), so an
unchanged entry is decoded once per process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar, Union

from ..dataplane.element import Element
from ..obs.stats import StatisticsMixin
from ..obs.trace import clock, wall_clock
from ..dataplane.fingerprint import configuration_fingerprint, program_fingerprint
from ..symbex.engine import StaticTableMode, SymbexOptions
from ..symbex.segment import ElementSummary
from .backends import (
    _MAX_SHARED_CONNECTIONS,
    _SharedConnection,
    _file_identity,
    _inherited,
    _shared_connections,
)
from .errors import StoreError
from .serialize import FORMAT_VERSION, dumps_summary, loads_summary

__all__ = [
    "GcResult",
    "QueryStore",
    "SQLITE_FILENAME",
    "STORE_SCHEMA_VERSION",
    "Store",
    "StoreStatistics",
    "SummaryStore",
    "program_fingerprint",  # re-exported from repro.dataplane.fingerprint
    "summaries_decoded",
    "summary_key",
]

#: The single-file SQLite database holding every entry of a store root.
SQLITE_FILENAME = "store.sqlite"

#: Current SQLite store schema: ``entries`` rows carry a per-entry mtime
#: (gc age horizons) and ``meta`` holds the cumulative metrics.  A
#: database with any other version is not read (see :class:`Store`).
STORE_SCHEMA_VERSION = 2

#: Suffix given to quarantined (unreadable) databases; gc sweeps them.
QUARANTINE_SUFFIX = ".corrupt"

#: Writes buffered before an automatic flush (one INSERT OR REPLACE batch).
DEFAULT_BATCH_SIZE = 256

#: Read-touch granularity: an entry's mtime is only refreshed when it is
#: staler than this.  Gc age horizons are measured in days, so
#: hour-level precision loses nothing — and it keeps warm re-reads of
#: recently-touched entries from queueing mtime UPDATEs at all, which
#: would otherwise cost more than the reads themselves.
_TOUCH_GRANULARITY_SECONDS = 3600.0

#: Seconds SQLite itself blocks on a locked database before returning
#: SQLITE_BUSY; the jittered retry loop sits on top of this.
_BUSY_TIMEOUT_SECONDS = 5.0
_BUSY_RETRIES = 6
_BUSY_BACKOFF_SECONDS = 0.05

_SCHEMA_STATEMENTS = (
    "CREATE TABLE IF NOT EXISTS entries ("
    " digest TEXT PRIMARY KEY,"
    " payload TEXT NOT NULL,"
    " mtime REAL NOT NULL)",
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
)

T = TypeVar("T")


def summary_key(element: Element, input_length: int, options: SymbexOptions) -> str:
    """The store digest for one (element configuration, input length, options) job.

    Besides the element's configuration fingerprint, the digest covers the
    engine options that shape summary *content*: the static-table mode,
    the solver conflict budget (a starved budget keeps branches a roomier
    one prunes), and the state-merging policy (merged summaries carry
    ite-lifted segments and upper-bound instruction counts, so modes must
    not share entries).
    Path/time budgets are excluded: blowing one raises instead of
    producing a summary, so it can never poison the store.
    """
    material = "\x1f".join(
        (
            f"v{FORMAT_VERSION}",
            configuration_fingerprint(
                element,
                include_static_tables=options.static_table_mode == StaticTableMode.CONCRETE,
            ),
            str(input_length),
            options.static_table_mode,
            f"conflicts={options.solver_max_conflicts}",
            f"merge={options.merge}:{options.merge_max_ites}",
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class StoreStatistics(StatisticsMixin):
    """Disk-tier traffic counters.

    ``io_seconds`` is measured with the monotonic :func:`repro.obs.clock`
    like every other duration in the repo — wall clock appears in the
    store layer only where entry mtimes force it (gc age horizons).
    ``quarantined`` counts entries that did not decode and databases that
    could not be read, each removed once.  ``busy_retries`` counts SQLite
    lock collisions absorbed by the jittered-backoff retry loop.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    bytes_written: int = 0
    busy_retries: int = 0
    #: Per-entry round trips a bulk :meth:`Store.read_entries` call avoided
    #: relative to N single reads (``len(digests) - 1`` per call) — the
    #: work batched discovery/delta lookups save over the naive loop.
    round_trips_saved: int = 0
    io_seconds: float = 0.0


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


def _fold_metrics(totals: dict, counters: dict) -> dict:
    """Key-sum one run's numeric counters into the cumulative totals."""
    for key, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        totals[key] = totals.get(key, 0) + value
    totals["runs"] = int(totals.get("runs", 0)) + 1
    return totals


def _connect(path: Path) -> sqlite3.Connection:
    connection = sqlite3.connect(str(path), timeout=_BUSY_TIMEOUT_SECONDS, isolation_level=None)
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    return connection


class Store:
    """One content-addressed store tier over ``<root>/store.sqlite``.

    Subclasses supply the digest computation, the payload encoding and
    the decoder their loaders hand to :meth:`_load`; this class runs the
    SQL.  ``readonly`` opens the store the way a pool worker must: it
    reads the database and keeps it up as every reader does (mtime
    touches, quarantined rows), but its writes stay buffered until
    :meth:`take_writes` hands them over, so only the parent adds entries.
    The connection is shared within the process and thread (see
    :mod:`repro.orchestrator.backends`); a store inherited through
    ``fork`` transparently reopens on first use in the child.

    Internal flushes (at the batch size, and before a count, merge or
    gc) and the finalizer call the private ``_flush``:
    perfbench's ledger wraps the public methods by name, and so charges
    that time to the call that caused it.
    """

    #: Human label used in error messages ("summary store", "verdict store").
    kind = "store"

    def __init__(self, root: Union[str, Path], readonly: bool = False) -> None:
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create {self.kind} at {self.root}: {exc}") from exc
        self.statistics = StoreStatistics()
        self.readonly = readonly
        self.batch_size = DEFAULT_BATCH_SIZE
        self.path = self.root / SQLITE_FILENAME
        self._pid = os.getpid()
        self._pending: Dict[str, str] = {}
        self._touched: Dict[str, float] = {}
        self._main: Optional[_SharedConnection] = None
        self._conn: Optional[sqlite3.Connection] = None
        self._open()

    # -- connections -----------------------------------------------------------------

    def _open(self) -> None:
        """Attach the shared connection and check its schema.

        The schema check runs on every open, reused connection or not, so
        a database that a newer repro rewrote in between is still refused.
        """
        shared = _shared_connections()
        key = str(self.path)
        main = shared.get(key)
        try:
            self._conn = main.connection if main is not None else _connect(self.path)
            self._validate_main()
        except sqlite3.DatabaseError:
            # Torn, foreign or older than this schema: quarantine the
            # database and start fresh — the store is a cache, so the
            # price is recomputation, never a wrong answer.
            shared.pop(key, None)
            main = None
            self._quarantine_database()
            self._conn = _connect(self.path)
            self._initialize(self._conn)
        if main is None:
            # Dropping an entry drops the registry's reference only: a
            # live store that holds the connection keeps it open.
            main = shared[key] = _SharedConnection(self._conn, _file_identity(key))
            while len(shared) > _MAX_SHARED_CONNECTIONS:
                shared.popitem(last=False)
        else:
            shared.move_to_end(key)
        self._main = main

    def _connection(self) -> sqlite3.Connection:
        """The connection, reopened first if this store crossed a fork."""
        self._ensure_process()
        assert self._conn is not None
        return self._conn

    def _initialize(self, connection: sqlite3.Connection) -> None:
        for statement in _SCHEMA_STATEMENTS:
            self._retry(lambda s=statement: connection.execute(s))
        for key, value in (("schema_version", str(STORE_SCHEMA_VERSION)), ("kind", self.kind)):
            self._retry(
                lambda k=key, v=value: connection.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)", (k, v)
                )
            )

    def _validate_main(self) -> None:
        """Create a fresh schema, or check the version of an existing one.

        Raises ``sqlite3.DatabaseError`` for a database to quarantine and
        :class:`StoreError` for one to refuse.
        """
        assert self._conn is not None
        tables = {
            row[0]
            for row in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        if not tables:
            self._initialize(self._conn)
            return
        if "meta" not in tables or "entries" not in tables:
            raise sqlite3.DatabaseError("not a repro store database")
        row = self._conn.execute(
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
            raise sqlite3.DatabaseError(f"store database has older schema v{version}")

    def _quarantine_database(self) -> None:
        # Not closed: another live store may share the connection.
        self._conn = None
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
        _inherited.append(self._main)
        self._main = self._conn = None
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
                self.statistics.busy_retries += 1
                delay = _BUSY_BACKOFF_SECONDS * (2**attempt) * (0.5 + random.random())
                time.sleep(delay)
                attempt += 1

    def _rows(self, sql: str, parameters: Sequence = ()) -> list:
        """Every row one read returns from the database.

        Happy path first, with no retry closure: warm fleet runs are
        read-dominated, and WAL readers essentially never block.
        """
        if os.getpid() != self._pid:
            self._ensure_process()
        connection = self._conn
        assert connection is not None
        try:
            return connection.execute(sql, parameters).fetchall()
        except sqlite3.OperationalError:
            return self._retry(lambda: connection.execute(sql, parameters).fetchall())

    # -- raw entry I/O ---------------------------------------------------------------

    def read_entry(self, digest: str) -> Optional[str]:
        """The entry's raw text, or ``None`` (counted as a miss) when absent.

        A successful read refreshes the entry's mtime, so :meth:`gc`'s
        age horizon means "not *touched* for N days" — a store that is
        read every night never loses its warm entries to eviction.
        """
        started = clock()
        text = self._pending.get(digest)
        if text is None:
            rows = self._rows("SELECT payload, mtime FROM entries WHERE digest=?", (digest,))
            if rows:
                text, mtime = rows[0]
                self._touch(digest, mtime, wall_clock())
                if len(self._touched) >= self.batch_size:
                    self._flush()
        self.statistics.io_seconds += clock() - started
        if text is None:
            self.statistics.misses += 1
        return text

    def read_entries(self, digests) -> dict:
        """Bulk read: present entries as ``{digest: text}``; absences count as misses.

        One chunked ``SELECT ... IN`` per 400 digests instead of N round
        trips — a delta re-certification probes one verdict record per
        pipeline, and fetching them hundreds at a time costs one
        statement per chunk.
        """
        digests = list(digests)
        started = clock()
        found: Dict[str, str] = {}
        remaining: List[str] = []
        for digest in digests:
            pending = self._pending.get(digest)
            if pending is not None:
                found[digest] = pending
            else:
                remaining.append(digest)
        now = wall_clock()
        # Stay well under SQLite's default 999-parameter limit per statement.
        for start in range(0, len(remaining), 400):
            chunk = remaining[start:start + 400]
            marks = ",".join("?" * len(chunk))
            for digest, payload, mtime in self._rows(
                f"SELECT digest, payload, mtime FROM entries WHERE digest IN ({marks})", chunk
            ):
                found[digest] = payload
                self._touch(digest, mtime, now)
        if len(self._touched) >= self.batch_size:
            self._flush()
        self.statistics.io_seconds += clock() - started
        self.statistics.misses += sum(1 for digest in digests if digest not in found)
        self.statistics.round_trips_saved += max(0, len(digests) - 1)
        return found

    def _touch(self, digest: str, mtime: float, now: float) -> None:
        # Touches batch with the writes: gc's age horizon only needs the
        # mtime eventually, and a per-read UPDATE would turn every warm
        # read into a write lock.  Fresh entries skip the queue entirely
        # (see _TOUCH_GRANULARITY_SECONDS).
        if now - mtime > _TOUCH_GRANULARITY_SECONDS:
            self._touched[digest] = now

    def write_entry(self, digest: str, text: str) -> None:
        """Persist an entry (batched until the next flush).

        A read-only store only buffers it, for :meth:`take_writes`.
        """
        started = clock()
        if os.getpid() != self._pid:
            self._ensure_process()
        self._pending[digest] = text
        self._touched.pop(digest, None)
        if len(self._pending) >= self.batch_size and not self.readonly:
            self._flush()
        self.statistics.io_seconds += clock() - started
        self.statistics.puts += 1
        self.statistics.bytes_written += len(text)

    def take_writes(self) -> Dict[str, str]:
        """Hand over the buffered writes as ``{digest: text}`` and forget them.

        A pool task ships these in its result, and the parent writes them
        with :meth:`merge_shards`: a task's writes exist nowhere else, so
        a crashed attempt leaves nothing behind.
        """
        writes, self._pending = self._pending, {}
        return writes

    def quarantine_entry(self, digest: str) -> None:
        """Delete an entry that does not decode, so warm runs stop re-parsing it.

        The garbage payload sits inside a healthy database, so there is
        nothing worth keeping aside: the digest reads as a plain miss —
        and parses nothing — from now on, for a read-only store too.
        """
        self._pending.pop(digest, None)
        self._touched.pop(digest, None)
        connection = self._connection()
        self._retry(lambda: connection.execute("DELETE FROM entries WHERE digest=?", (digest,)))
        self.statistics.quarantined += 1

    # -- decoding --------------------------------------------------------------------

    def _decode(self, digest: str, text: str, decode: Callable[[str, str], T]) -> Optional[T]:
        """``decode(digest, text)``, or ``None`` for an entry it cannot read.

        Every tier's loaders come through here.  A half-written or
        stale-format entry counts as a miss and is quarantined, so the
        next warm run does not parse the same garbage again; the
        recompute overwrites the digest with a good entry.
        """
        try:
            value = decode(digest, text)
        except Exception:
            self.quarantine_entry(digest)
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return value

    def _load(self, digest: str, decode: Callable[[str, str], T]) -> Optional[T]:
        """The decoded entry, or ``None`` when it is absent or does not decode."""
        text = self.read_entry(digest)
        if text is None:
            return None
        return self._decode(digest, text, decode)

    def _load_many(self, digests, decode: Callable[[str, str], T]) -> Dict[str, T]:
        """Bulk :meth:`_load`: ``{digest: value}`` for every entry that decodes.

        One chunked read instead of a round trip per entry; hits, misses
        and quarantines are counted per entry exactly as :meth:`_load`
        counts them.
        """
        values: Dict[str, T] = {}
        for digest, text in self.read_entries(digests).items():
            value = self._decode(digest, text, decode)
            if value is not None:
                values[digest] = value
        return values

    # -- lifecycle -------------------------------------------------------------------

    def flush(self) -> None:
        """Push any buffered writes to disk."""
        started = clock()
        self._flush()
        self.statistics.io_seconds += clock() - started

    def _flush(self) -> None:
        """Push buffered writes and mtime touches in two batched statements.

        A read-only store keeps its writes buffered and pushes its touches.
        """
        self._ensure_process()
        if self._pending and not self.readonly:
            self._insert(self._pending)
            self._pending.clear()
        if self._touched:
            connection = self._connection()
            touches = [(mtime, digest) for digest, mtime in self._touched.items()]
            self._retry(
                lambda: connection.executemany(
                    "UPDATE entries SET mtime=? WHERE digest=?", touches
                )
            )
            self._touched.clear()

    def _insert(self, entries: Dict[str, str]) -> None:
        connection = self._connection()
        now = wall_clock()
        rows = [(digest, text, now) for digest, text in entries.items()]
        self._retry(
            lambda: connection.executemany(
                "INSERT OR REPLACE INTO entries (digest, payload, mtime) VALUES (?, ?, ?)",
                rows,
            )
        )

    def close(self) -> None:
        """Flush (a read-only store keeps its writes for :meth:`take_writes`).

        The connection stays open for the next store this process opens
        on the same root; it closes once neither the registry nor a live
        store holds it.
        """
        self._flush()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            if os.getpid() == self._pid:
                self._flush()
        except Exception:
            pass

    def merge_shards(self, entries: Dict[str, str]) -> int:
        """Write the entries one pool task shipped (its shard); returns how many.

        ``entries`` is what the task's read-only store handed over
        (:meth:`take_writes`).  They land in one ``INSERT OR REPLACE``
        batch, committed before this returns, so work the scheduler
        unblocks next reads them from the database.
        """
        if self.readonly:
            raise StoreError(f"{self.kind} at {self.root} is read-only; the parent merges")
        started = clock()
        self._flush()
        self._insert(entries)
        self.statistics.io_seconds += clock() - started
        return len(entries)

    # -- maintenance -----------------------------------------------------------------

    def __len__(self) -> int:
        self._flush()
        return self._rows("SELECT COUNT(*) FROM entries")[0][0]

    def size_bytes(self) -> int:
        """Total bytes held by live payloads (debris and index overhead excluded)."""
        self._flush()
        return self._rows("SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM entries")[0][0]

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = len(self)  # flushes first, so buffered writes count too
        connection = self._connection()
        self._retry(lambda: connection.execute("DELETE FROM entries"))
        return removed

    def gc(self, older_than_seconds: Optional[float] = None) -> GcResult:
        """Sweep the store root.

        Always removes debris: quarantined ``.corrupt`` databases.  With
        ``older_than_seconds``, additionally evicts live entries whose
        modification time is older than the horizon — the store is a
        cache, so eviction costs recomputation, never correctness.
        Debris unlinked by a concurrent sweep is tolerated.
        """
        self._flush()
        connection = self._connection()
        result = GcResult()
        for path in self.root.glob(f"*{QUARANTINE_SUFFIX}"):
            result.bytes_freed += _size_of(path)
            path.unlink(missing_ok=True)
            result.removed_debris += 1
        if older_than_seconds is not None:
            horizon = wall_clock() - older_than_seconds
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
        result.kept_entries = len(self)
        if result.removed_entries:
            # Return the space to the filesystem; safe here because gc is
            # an explicit maintenance call, not a hot-path operation.
            self._retry(lambda: connection.execute("VACUUM"))
        return result

    # -- persisted tier metrics ------------------------------------------------------

    def load_metrics(self) -> dict:
        """The accumulated cross-run counters, or ``{}`` when none were recorded."""
        rows = self._rows("SELECT value FROM meta WHERE key='metrics'")
        if not rows:
            return {}
        try:
            payload = json.loads(rows[0][0])
        except ValueError:
            return {}
        return payload if isinstance(payload, dict) else {}

    def record_metrics(self, counters: dict) -> dict:
        """Fold one run's counters into the store's cumulative totals.

        Numeric values key-sum into the stored ones (the totals are
        cumulative across runs).  The read-fold-write runs inside one
        ``BEGIN IMMEDIATE`` transaction, so concurrent recorders
        serialize instead of losing increments.
        """
        connection = self._connection()

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


#: How many decoded summaries a process keeps, the least recently used
#: evicted first.  For scale: ``fleet_catalog(12)`` stores 9 summaries,
#: of 1.5 to 20 KB of text each.
_MAX_DECODED_SUMMARIES = 256


class _DecodeMemo(Generic[T]):
    """Values decoded from one tier's store text, shared by every load in the process.

    A warm pass would otherwise decode every entry on every load: a
    summary re-interns each of its terms, a verdict record rebuilds its
    result tree.  An entry is keyed by store digest and served only while
    the text just read from the store equals the text it was decoded
    from, so a rewritten entry is decoded again; a deleted, cleared or
    quarantined one reads as a miss before the memo is asked, and text
    that does not decode never enters.  Only store text enters, including
    the summary text a pool worker shipped, which the scheduler decodes as
    it arrives, so a load never hands out an object that a cache or a
    certification in this process computed, and that its caller may
    still mutate.  The memo keeps at most ``bound`` entries, evicting the
    least recently used, under a lock that fork children replace.  Fork
    children inherit the memo, so pool workers start with what the parent
    decoded.  Every later load shares the returned object: nobody may
    mutate it.
    """

    def __init__(self, decode: Callable[[str], T], bound: int) -> None:
        self._decode = decode
        self.bound = bound
        self._entries: "OrderedDict[str, Tuple[str, T]]" = OrderedDict()
        self._lock = threading.Lock()
        #: Memo misses: entries this process decoded.
        self.decoded = 0

    def decode(self, digest: str, text: str) -> T:
        """The value ``text`` encodes; raises what the tier's decoder raises."""
        with self._lock:
            held = self._entries.pop(digest, None)
            if held is not None and held[0] == text:
                value = held[1]
            else:
                value = self._decode(text)
                self.decoded += 1
            if len(self._entries) >= self.bound:
                self._entries.popitem(last=False)
            self._entries[digest] = (text, value)
            return value

    def after_fork(self) -> None:
        # Another thread of the parent may have held the lock at the fork.
        self._lock = threading.Lock()


# The decoder looks ``loads_summary`` up on every decode, so a wrapper
# installed on this module's name (perfbench's ledger) sees each one.
_decoded_summaries: _DecodeMemo[ElementSummary] = _DecodeMemo(
    lambda text: loads_summary(text), _MAX_DECODED_SUMMARIES
)
os.register_at_fork(after_in_child=lambda: _decoded_summaries.after_fork())


def summaries_decoded() -> int:
    """How many summaries this process has decoded from store text.

    A load the memo serves does not count, so the difference across a
    piece of work is what it decoded.  Verdict records decode through
    a memo of their own and never count here.
    """
    return _decoded_summaries.decoded


class SummaryStore(Store):
    """Content-addressed persistence for element summaries.

    Loads decode through the process-wide memo above: every load still
    reads the entry (refreshing its mtime) and counts its hit, miss or
    quarantine, but an entry whose text is unchanged is not decoded twice.
    """

    kind = "summary store"

    # -- keyed by element ----------------------------------------------------------

    def load(
        self, element: Element, input_length: int, options: SymbexOptions
    ) -> Optional[ElementSummary]:
        """Return the stored summary for the job, or ``None`` on a miss."""
        return self.load_digest(summary_key(element, input_length, options))

    def save(
        self,
        element: Element,
        input_length: int,
        options: SymbexOptions,
        summary: ElementSummary,
    ) -> str:
        """Persist a summary; returns the digest it was stored under."""
        digest = summary_key(element, input_length, options)
        self.save_digest(digest, summary)
        return digest

    # -- keyed by digest (workers compute keys once and ship them around) -----------

    def load_digest(self, digest: str) -> Optional[ElementSummary]:
        return self._load(digest, _decoded_summaries.decode)

    def load_digests(self, digests) -> dict:
        """Bulk :meth:`load_digest`: ``{digest: summary}`` for every loadable entry.

        One chunked query instead of a round trip per job — at catalog
        scale the per-call overhead dominates warm discovery.
        """
        return self._load_many(digests, _decoded_summaries.decode)

    def save_digest(self, digest: str, summary: ElementSummary) -> None:
        self.write_entry(digest, dumps_summary(summary))


def _payload_from_text(digest: str, text: str) -> dict:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("query-store entry is not an object")
    return payload


class QueryStore(Store):
    """Content-addressed persistence for sliced solver-query verdicts.

    The **L3 tier** of :class:`repro.smt.qcache.QueryCache`: entries are
    keyed by a *structural* slice fingerprint (term uids are
    process-local; the fingerprint survives any process), and the payload
    carries the verdict, plus a model for a SAT slice.  A
    warm fleet re-certification answers every solver question from here
    the same way the summary store lets it skip symbolic execution.

    Payload versioning lives in the qcache layer (``PAYLOAD_VERSION``
    inside the payload); this class only guards the payload's JSON
    well-formedness, quarantining garbage exactly like the other tiers.
    """

    kind = "query store"

    def contains(self, digest: str) -> bool:
        """Entry-existence probe, without reading or counting a hit.

        The cache uses it to skip re-persisting entries its model-reuse
        tier re-derived — on a warm run every slice answer is already on
        disk, and an existence probe is far cheaper than a rewrite."""
        if digest in self._pending:
            return True
        return bool(self._rows("SELECT 1 FROM entries WHERE digest=?", (digest,)))

    def load_payload(self, digest: str) -> Optional[dict]:
        """The stored payload dict, or ``None`` (a miss) when absent/corrupt."""
        return self._load(digest, _payload_from_text)

    def save_payload(self, digest: str, payload: dict) -> None:
        self.write_entry(digest, json.dumps(payload, sort_keys=True, separators=(",", ":")))
