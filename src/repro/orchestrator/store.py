"""Content-addressed on-disk stores for Step-1 summaries (and friends).

The paper's cost model prices each element's symbolic execution **once**;
the in-process :class:`repro.verify.cache.SummaryCache` already reuses
summaries within one run.  The store extends that amortization across
*processes and runs*: a summary computed by any worker (or any previous
invocation) is persisted under a content hash and reloaded instead of
recomputed.

Keys are derived from everything the summary depends on: the element's
configuration key, a structural fingerprint of its IR program, the
contents of its static tables (in concrete static-table mode, where they
are baked into the summary terms), the input packet length, the
static-table mode, and the serialization format version.

:class:`Store` is the façade every tier shares: digest-keyed entries, a
statistics block, corrupt-entry quarantine, garbage collection.  The
bytes live in one batched SQLite database per store root
(:mod:`repro.orchestrator.backends`: WAL journal, sharded worker writes,
merge-on-join, one main connection per root and process).

:class:`SummaryStore` specializes the façade for element summaries
(decoding each unchanged entry once per process), :class:`QueryStore`
for sliced solver-query verdicts (the query cache's L3 tier), and
:class:`repro.orchestrator.verdicts.VerdictStore` for per-pipeline
verdict records.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from ..dataplane.element import Element
from ..obs.stats import StatisticsMixin
from ..obs.trace import clock
from ..dataplane.fingerprint import configuration_fingerprint, program_fingerprint
from ..symbex.engine import StaticTableMode, SymbexOptions
from ..symbex.segment import ElementSummary
from .backends import GcResult, SqliteBackend, holds_json_layout, migrate_store
from .errors import StoreError
from .serialize import FORMAT_VERSION, dumps_summary, loads_summary

__all__ = [
    "GcResult",
    "QueryStore",
    "Store",
    "StoreStatistics",
    "SummaryStore",
    "program_fingerprint",  # re-exported from repro.dataplane.fingerprint
    "summaries_decoded",
    "summary_key",
]


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
    ``busy_retries`` counts SQLite lock collisions absorbed by the
    jittered-backoff retry loop.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt_entries: int = 0
    quarantined: int = 0
    bytes_written: int = 0
    busy_retries: int = 0
    #: Per-entry round trips a bulk :meth:`Store.read_entries` call avoided
    #: relative to N single reads (``len(digests) - 1`` per call) — the
    #: work batched discovery/delta lookups save over the naive loop.
    round_trips_saved: int = 0
    io_seconds: float = 0.0


class Store:
    """Shared façade for the content-addressed store tiers.

    Subclasses supply the digest computation and the payload
    encode/decode; raw entry bytes go through ``self.backend``, a
    :class:`~repro.orchestrator.backends.SqliteBackend`.  ``shard`` opens
    it in its worker view — reads from the main database, writes to a
    private ``shards/<shard>.sqlite`` (created on the first write) that
    the parent folds in via :meth:`merge_shards`.  A root that still
    holds the legacy JSON layout is imported into SQLite the first time
    a store opens it (:func:`~repro.orchestrator.backends.migrate_store`).
    """

    #: Human label used in error messages ("summary store", "verdict store").
    kind = "store"

    def __init__(self, root: Union[str, Path], shard: Optional[str] = None) -> None:
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create {self.kind} at {self.root}: {exc}") from exc
        self.statistics = StoreStatistics()
        if holds_json_layout(self.root):
            # Written before SQLite was the only backend: import it once.
            migrate_store(self.root, kind=self.kind)
        self.backend = SqliteBackend(
            self.root, kind=self.kind, statistics=self.statistics, shard=shard
        )

    # -- raw entry I/O ---------------------------------------------------------------

    def read_entry(self, digest: str) -> Optional[str]:
        """The entry's raw text, or ``None`` (counted as a miss) when absent.

        A successful read refreshes the entry's mtime, so :meth:`gc`'s
        age horizon means "not *touched* for N days" — a store that is
        read every night never loses its warm entries to eviction.
        """
        started = clock()
        text = self.backend.read(digest)
        self.statistics.io_seconds += clock() - started
        if text is None:
            self.statistics.misses += 1
            return None
        return text

    def read_entries(self, digests) -> dict:
        """Bulk read: present entries as ``{digest: text}``; absences count as misses.

        One chunked query per 400 digests — callers holding many digests
        (delta-mode verdict lookup) should prefer this over N
        :meth:`read_entry` calls.
        """
        digests = list(digests)
        started = clock()
        found = self.backend.read_many(digests)
        self.statistics.io_seconds += clock() - started
        self.statistics.misses += sum(1 for digest in digests if digest not in found)
        self.statistics.round_trips_saved += max(0, len(digests) - 1)
        return found

    def write_entry(self, digest: str, text: str) -> None:
        """Persist an entry (batched until the next flush)."""
        started = clock()
        self.backend.write(digest, text)
        self.statistics.io_seconds += clock() - started
        self.statistics.puts += 1
        self.statistics.bytes_written += len(text)

    def quarantine_entry(self, digest: str) -> None:
        """Delete a corrupt entry so warm runs stop re-parsing garbage.

        The garbage payload sits inside a healthy database, so there is
        nothing worth keeping aside: the digest reads as a plain miss —
        and parses nothing — from now on.
        """
        self.backend.quarantine(digest)
        self.statistics.corrupt_entries += 1
        self.statistics.quarantined += 1

    # -- lifecycle -------------------------------------------------------------------

    def flush(self) -> None:
        """Push any buffered writes to disk."""
        started = clock()
        self.backend.flush()
        self.statistics.io_seconds += clock() - started

    def close(self) -> None:
        """Flush, and close a shard view's private shard.

        The main connection stays open for the next store this process
        opens on the same root.
        """
        self.backend.close()

    def merge_shards(self, only=None) -> int:
        """Fold worker shards into the main store; returns entries merged.

        Without ``only``, folds every shard — which must run after the
        worker pool has joined (no live shard writers).  With ``only`` (a
        sequence of shard tags), folds exactly those shards: the
        scheduler's incremental merge path, safe while *other* shards
        still have live writers because each task flushes and closes its
        private shard before its result is reported.
        """
        started = clock()
        merged = self.backend.merge_shards(only=only)
        self.statistics.io_seconds += clock() - started
        return merged

    # -- maintenance -----------------------------------------------------------------

    def __len__(self) -> int:
        return self.backend.count()

    def size_bytes(self) -> int:
        """Total bytes held by live entries (quarantine/debris excluded)."""
        return self.backend.size_bytes()

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.backend.clear()

    def gc(self, older_than_seconds: Optional[float] = None) -> GcResult:
        """Sweep the store root.

        Always removes debris — quarantined ``.corrupt`` databases and
        orphaned shard files from crashed writers (only those older than
        a minute, so in-flight writes are never torn).  With
        ``older_than_seconds``, additionally evicts live entries whose
        modification time is older than the horizon — the store is a
        cache, so eviction costs recomputation, never correctness.
        Debris unlinked by a concurrent sweep is tolerated.
        """
        return self.backend.gc(older_than_seconds)

    # -- persisted tier metrics ------------------------------------------------------

    def load_metrics(self) -> dict:
        """The accumulated cross-run counters, or ``{}`` when none were recorded."""
        return self.backend.load_metrics()

    def record_metrics(self, counters: dict) -> dict:
        """Fold one run's counters into the store's cumulative totals.

        Numeric values key-sum into the stored ones (the totals are
        cumulative across runs).  The fold runs inside one transaction,
        so concurrent recorders lose no increment.
        """
        return self.backend.record_metrics(counters)


#: How many decoded summaries a process keeps, the least recently used
#: evicted first.  For scale: ``fleet_catalog(12)`` stores 9 summaries,
#: of 1.5 to 20 KB of text each.
_MAX_DECODED_SUMMARIES = 256


class _DecodedSummaries:
    """Summaries decoded from store text, shared by every load in the process.

    Decoding re-interns each of a summary's terms, which a warm pass
    would otherwise pay for every entry on every load.  An entry is keyed
    by store digest and served only while the text just read from the
    store equals the text it was decoded from, so a rewritten entry is
    decoded again; a deleted, cleared or quarantined one reads as a miss
    before the memo is asked.  Only store text enters, including the text
    a pool worker stored, which the scheduler decodes as it arrives, so a
    load never hands out the object a cache in this process computed.
    Fork children inherit the memo, so pool workers start with what the
    parent decoded.  Every later load shares the returned object: nobody
    may mutate it.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, Tuple[str, ElementSummary]]" = OrderedDict()
        self._lock = threading.Lock()
        #: Memo misses: summaries this process decoded.
        self.decoded = 0

    def decode(self, digest: str, text: str) -> ElementSummary:
        """The summary ``text`` encodes; raises what :func:`loads_summary` raises."""
        with self._lock:
            held = self._entries.pop(digest, None)
            if held is not None and held[0] == text:
                summary = held[1]
            else:
                summary = loads_summary(text)
                self.decoded += 1
            if len(self._entries) >= _MAX_DECODED_SUMMARIES:
                self._entries.popitem(last=False)
            self._entries[digest] = (text, summary)
            return summary

    def after_fork(self) -> None:
        # Another thread of the parent may have held the lock at the fork.
        self._lock = threading.Lock()


_decoded = _DecodedSummaries()
os.register_at_fork(after_in_child=lambda: _decoded.after_fork())


def summaries_decoded() -> int:
    """How many summaries this process has decoded from store text.

    A load the memo serves does not count, so the difference across a
    piece of work is what it decoded.
    """
    return _decoded.decoded


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
        text = self.read_entry(digest)
        if text is None:
            return None
        try:
            summary = _decoded.decode(digest, text)
        except Exception:
            # A half-written or stale-format entry reads as a miss — and is
            # quarantined, so the *next* warm run doesn't re-parse the same
            # garbage; the recompute overwrites the digest with a good entry.
            self.quarantine_entry(digest)
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return summary

    def load_digests(self, digests) -> dict:
        """Bulk :meth:`load_digest`: ``{digest: summary}`` for every loadable entry.

        One chunked backend query instead of a round trip per job — at
        catalog scale the per-call overhead dominates warm discovery.
        Hits, misses and quarantines are counted per entry exactly as the
        one-at-a-time path counts them, so differential comparisons
        between the loops stay exact.
        """
        summaries = {}
        for digest, text in self.read_entries(digests).items():
            try:
                summaries[digest] = _decoded.decode(digest, text)
            except Exception:
                self.quarantine_entry(digest)
                self.statistics.misses += 1
                continue
            self.statistics.hits += 1
        return summaries

    def save_digest(self, digest: str, summary: ElementSummary) -> None:
        self.write_entry(digest, dumps_summary(summary))


class QueryStore(Store):
    """Content-addressed persistence for sliced solver-query verdicts.

    The **L3 tier** of :class:`repro.smt.qcache.QueryCache`: entries are
    keyed by a *structural* slice fingerprint (term uids are
    process-local; the fingerprint survives any process), and the payload
    carries the verdict plus a SAT model or a minimized unsat core.  A
    warm fleet re-certification answers every solver question from here
    the same way the summary store lets it skip symbolic execution.

    Payload versioning lives in the qcache layer (``PAYLOAD_VERSION``
    inside the payload); this class only guards the payload's JSON
    well-formedness, quarantining garbage exactly like the other tiers.
    """

    kind = "query store"

    def contains(self, digest: str) -> bool:
        """Entry-existence probe, without reading or counting a hit.

        The cache uses it to skip re-persisting entries its in-memory
        shortcut tiers re-derived — on a warm run every slice answer is
        already on disk, and an existence probe is far cheaper than a
        rewrite."""
        return self.backend.contains(digest)

    def load_payload(self, digest: str) -> Optional[dict]:
        """The stored payload dict, or ``None`` (a miss) when absent/corrupt."""
        text = self.read_entry(digest)
        if text is None:
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("query-store entry is not an object")
        except Exception:
            self.quarantine_entry(digest)
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return payload

    def save_payload(self, digest: str, payload: dict) -> None:
        self.write_entry(digest, json.dumps(payload, sort_keys=True, separators=(",", ":")))
