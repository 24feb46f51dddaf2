"""Worker-process task bodies for the persistent fleet scheduler.

:mod:`repro.orchestrator.scheduler` runs two kinds of task in its fork
workers:

* **Step-1 element summarization** — :func:`_summarize_worker` checks
  the shared :class:`~repro.orchestrator.store.SummaryStore` first,
  otherwise symbolically executes its element and saves the summary,
  which ships back as a serialized DAG payload (hash-consed terms cannot
  cross process boundaries by pickling — see
  :mod:`repro.orchestrator.serialize`).
* **Step-2 composition checks** — ``repro.orchestrator.fleet._certify_worker``
  certifies one pipeline against every property.  Summaries come from
  the store, whose process-wide decode memo the worker inherits from the
  parent and keeps for the life of the pool, so each is decoded at most
  once per worker.

Every task body is called as ``fn(payload, run)``: the payload is the
job, the :class:`PoolRun` the rest of the request.  Both open every store
read-only, and ship what their stores buffered (:func:`take_writes`) and
their observability output in their result; this module holds those
helpers and their parent-side counterparts.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..obs.slowlog import slow_solve_log
from ..obs.trace import enable, tracer
from ..smt.qcache import QueryCache, QueryCacheStatistics
from ..symbex.engine import SymbexOptions, SymbolicEngine
from ..symbex.errors import PathExplosionError
from .serialize import dumps_summary
from .store import QueryStore, SummaryStore


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

    Its persistent L3 tier is opened read-only: solved slices buffer in
    the store and travel back with the task's result (:func:`take_writes`).
    """
    if not options.query_cache_dir:
        return QueryCache()
    return QueryCache(store=QueryStore(options.query_cache_dir, readonly=True))


def take_writes(store: SummaryStore, query_cache: QueryCache) -> Tuple[dict, dict]:
    """A task's store writes for its result: summary rows and L3 query rows.

    Each is ``{digest: text}`` as the task's read-only store buffered it;
    the scheduler writes both into the parent's stores.
    """
    query_store = query_cache.store
    if query_store is None:
        return store.take_writes(), {}
    return store.take_writes(), query_store.take_writes()  # type: ignore[attr-defined]


@dataclass
class PoolRun:
    """The constants of one pooled run, handed to each worker process once.

    :func:`repro.orchestrator.scheduler.run_scheduled` builds it before
    the pool starts: fork children inherit it (a replacement forked after
    a crash too), a spawn child unpickles it once.  A task then ships
    only its job: a Step-1 ``(element, length)`` or a Step-2 index into
    :attr:`pipelines`.
    """

    pipelines: Sequence[Pipeline]
    properties: Sequence
    input_lengths: Tuple[int, ...]
    options: SymbexOptions
    store_root: str
    max_counterexamples: int = 3
    confirm_by_replay: bool = True
    instruction_bounds: bool = False


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
    travel back with the result exactly like the task's store writes do.
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


def _summarize_worker(payload: Tuple[Element, int], run: PoolRun) -> Tuple[str, str, tuple, dict]:
    """Compute (or fetch) one summary.

    Returns (status, serialized summary | message, the task's store
    writes — see :func:`take_writes` —, drained observability extras —
    see :func:`drain_observability`, whose query-cache counters carry the
    job's solver work).
    """
    element, input_length = payload
    options = run.options
    if options.trace:
        enable()
    store = SummaryStore(run.store_root, readonly=True)
    stored = store.load(element, input_length, options)
    if stored is not None:
        return LOADED, dumps_summary(stored), ({}, {}), {}
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
        return EXPLODED, str(exc), take_writes(store, query_cache), drain_observability(query_cache)
    digest = store.save(element, input_length, options, summary)
    writes = take_writes(store, query_cache)
    return COMPUTED, writes[0][digest], writes, drain_observability(query_cache)
