"""Worker-process task bodies for the persistent fleet scheduler.

:mod:`repro.orchestrator.scheduler` runs two kinds of task in its fork
workers:

* **Step-1 element summarization** — :func:`_summarize_worker` checks
  the shared :class:`~repro.orchestrator.store.SummaryStore` first,
  otherwise symbolically executes its element, writes the summary
  through, and ships it back as a serialized DAG payload (hash-consed
  terms cannot cross process boundaries by pickling — see
  :mod:`repro.orchestrator.serialize`).
* **Step-2 composition checks** — ``repro.orchestrator.fleet._certify_worker``
  certifies one pipeline against every property.  Its task carries only
  the pipeline's catalog index: the rest of the request travels once per
  worker as a :class:`PoolRun`.  Summaries come from the store, whose
  process-wide decode memo the worker inherits from the parent and keeps
  for the life of the pool, so each is decoded at most once per worker.

Both open the stores the way a worker must (per-task store shards, a
read-only query cache) and ship their observability output back with
the result; this module holds those helpers and their parent-side
counterparts.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..obs.slowlog import slow_solve_log
from ..obs.trace import enable, tracer
from ..smt.qcache import QueryCache, QueryCacheStatistics, build_query_cache
from ..symbex.engine import SymbexOptions, SymbolicEngine
from ..symbex.errors import PathExplosionError
from .serialize import dumps_summary
from .store import QueryStore, SummaryStore, summary_key


def _pool_context():
    """Prefer fork (cheap, inherits the interned-term table read-only copy-on-write)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


#: Result statuses shipped back by the summarization worker.
COMPUTED = "computed"
LOADED = "loaded"
#: The job blew its path/time budget; the payload is the error message.
#: Shipped as data (not an exception) so one exploding element does not
#: tear down its worker — the scheduler stops expanding that branch, and
#: the owning pipelines' own verification reports ``unknown``.
EXPLODED = "exploded"


def worker_query_cache(options: SymbexOptions) -> QueryCache:
    """The query cache a worker process should route through.

    Workers open the persistent L3 tier **read-only**: many forks hitting
    one directory is fine for reads (and for the atomic writes the
    parent does), but a write storm of per-slice entries from every
    worker is not.  Entries a worker could not persist accumulate in
    ``cache.new_entries`` and travel back with its result for the parent
    to merge on join (:func:`merge_query_entries`).
    """
    return build_query_cache(options.query_cache_dir, readonly=True)


#: Process-local shard-name override (see :func:`set_worker_shard_tag`).
_shard_override: Optional[str] = None


def set_worker_shard_tag(tag: Optional[str]) -> None:
    """Override this process's shard name (``None`` restores the pid default).

    The persistent scheduler (:mod:`repro.orchestrator.scheduler`) names
    shards per *task attempt*, not per process: the parent can then merge
    exactly the shard a finished task flushed — incrementally, while the
    same worker is already running its next task — and a crashed attempt's
    half-written shard is never the one a retry writes into.
    """
    global _shard_override
    _shard_override = tag


def worker_shard_tag() -> str:
    """The per-worker store shard name: stable within a process, unique across a pool."""
    return _shard_override or f"w{os.getpid()}"


def worker_summary_store(store_root: Optional[str]) -> Optional[SummaryStore]:
    """Open the shared summary store the way a worker process must.

    Reads hit the main store; writes land in this worker's private
    shard, which the parent folds in as soon as the task's result
    arrives — see :meth:`repro.orchestrator.store.Store.merge_shards`.
    """
    if store_root is None:
        return None
    return SummaryStore(store_root, shard=worker_shard_tag())


@dataclass
class PoolRun:
    """The constants of one pooled run, handed to each worker process once.

    :func:`repro.orchestrator.scheduler.run_scheduled` builds it before
    the pool starts: fork children inherit it (a replacement forked after
    a crash too), a spawn child unpickles it once.  A Step-2 task then
    ships only its index into :attr:`pipelines`.
    """

    pipelines: Sequence[Pipeline]
    properties: Sequence
    input_lengths: Tuple[int, ...]
    options: SymbexOptions
    store_root: Optional[str]
    max_counterexamples: int = 3
    confirm_by_replay: bool = True
    instruction_bounds: bool = False


def merge_query_entries(
    store: Optional[QueryStore], entries: Sequence[Tuple[str, dict]]
) -> None:
    """Merge worker-shipped query-cache entries into the parent's L3 store.

    The writes are batched; the caller flushes ``store`` when it is done.
    """
    if store is None:
        return
    written: set = set()
    for digest, payload in entries:
        if digest not in written:
            written.add(digest)
            store.save_payload(digest, payload)


def drain_observability(query_cache: QueryCache) -> dict:
    """Collect this process's observability output for shipping to a parent.

    Returns a JSON-able dict with up to three keys: ``spans`` (the
    tracer's drained ring buffer), ``slow`` (drained slow-solve records)
    and ``qstats`` (the worker query cache's per-tier counters, which
    are the task's solver work: the parent folds them into the run's
    totals).  Keys
    are omitted when empty, so a disabled run ships ``{}`` — the merged
    result payload gains no observability weight unless something was
    observed.  Fork workers call this right before returning; the spans
    travel back with the result exactly like L3 query-store entries do.
    """
    extras: dict = {}
    trace = tracer()
    if trace.enabled:
        spans = trace.drain()
        if spans:
            extras["spans"] = spans
    slow = slow_solve_log().drain()
    if slow:
        extras["slow"] = slow
    stats = query_cache.statistics.to_dict()
    if any(stats.values()):
        extras["qstats"] = stats
    return extras


def merge_observability(
    extras: Optional[dict], qstats: Optional[QueryCacheStatistics] = None
) -> None:
    """Fold a worker's :func:`drain_observability` payload into this process.

    Spans land in the active tracer (dropped when tracing is off here),
    slow records append to the process slow log, and the per-tier query
    counters merge into ``qstats`` when an accumulator is provided.
    """
    if not extras:
        return
    trace = tracer()
    spans = extras.get("spans")
    if spans and trace.enabled:
        trace.ingest(spans)
    slow = extras.get("slow")
    if slow:
        log = slow_solve_log()
        for record in slow:
            log.add(record)
    if qstats is not None and extras.get("qstats"):
        qstats.merge(QueryCacheStatistics.from_dict(extras["qstats"]))


def _summarize_worker(
    payload: Tuple[Element, int, SymbexOptions, Optional[str]],
) -> Tuple[str, str, List[Tuple[str, dict]], dict]:
    """Compute (or fetch) one summary.

    Returns (status, serialized summary | message, new query-cache
    entries the parent should merge, drained observability extras — see
    :func:`drain_observability`, whose query-cache counters carry the
    job's solver work).
    """
    element, input_length, options, store_root = payload
    if options.trace:
        enable()
    store = worker_summary_store(store_root)
    try:
        if store is not None:
            stored = store.load(element, input_length, options)
            if stored is not None:
                return LOADED, dumps_summary(stored), [], {}
        query_cache = worker_query_cache(options)
        engine = SymbolicEngine(options, query_cache=query_cache)
        try:
            summary = engine.summarize_element(
                element.program,
                input_length,
                tables=element.state.tables(),
                element_name=element.name,
                configuration_key=element.configuration_key(),
            )
        except PathExplosionError as exc:
            # A blown budget yields no summary; the solver work it did
            # still ships in the query-cache counters, as the in-process
            # loop's shared cache counts it too.
            return EXPLODED, str(exc), query_cache.new_entries, drain_observability(query_cache)
        if store is not None:
            store.save(element, input_length, options, summary)
        return (
            COMPUTED,
            dumps_summary(summary),
            query_cache.new_entries,
            drain_observability(query_cache),
        )
    finally:
        if store is not None:
            # Push this job's write into the worker's shard now: the pool
            # may recycle or kill the process before any destructor runs.
            store.close()


def job_digest(element: Element, input_length: int, options: SymbexOptions) -> str:
    """The store digest identifying a Step-1 job (used to dedupe fleet work)."""
    return summary_key(element, input_length, options)
