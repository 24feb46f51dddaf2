"""Task bodies for the persistent fleet scheduler, in its workers and its parent.

:mod:`repro.orchestrator.scheduler` runs two kinds of task in its fork
workers, and runs Step-2 tasks that compose nothing in the parent itself:

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
job, the :class:`PoolRun` the rest of the request.  A worker opens its
read-only stores once, on its first task, and keeps them on its copy of
the :class:`PoolRun` (:meth:`PoolRun.stores`).  Each task starts fresh
caches over them (:func:`open_task`), and on every exit hands over what
it wrote and flushes what it touched (:func:`end_task`); its writes and
observability output ship in its result.  A task the parent runs inline
does the same on the parent's own copy (:meth:`PoolRun.parent_copy`),
and leaves the parent's tracer and slow log as they are: it installs no
tracer, and ships only its query-cache counters, since its spans and
slow records are the parent's already.  This module holds those helpers
and their parent-side counterparts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass, field
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
    #: This process's read-only stores, opened by its first task.
    _stores: Optional[Tuple[SummaryStore, Optional[QueryStore]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Set on the parent's own copy only (:meth:`parent_copy`).
    _in_parent: bool = field(default=False, init=False, repr=False, compare=False)

    def parent_copy(self) -> "PoolRun":
        """A copy for the tasks the scheduler runs in the parent itself.

        Its :meth:`stores` are read-only views the parent opens on this
        copy alone, so no worker is ever handed them, and a task run on
        it leaves the parent's tracer and slow log as they are
        (:func:`open_task`, :func:`drain_observability`).
        """
        copy = dataclasses.replace(self)
        copy._in_parent = True
        return copy

    def stores(self) -> Tuple[SummaryStore, Optional[QueryStore]]:
        """This process's read-only summary store and L3 query store (if any).

        Opened on the first task run on this copy and kept for the life
        of the pool (or, on the parent's copy, the run): a store does not
        depend on the task, because each task takes its writes and
        flushes its touches when it ends (:func:`end_task`).  The parent
        calls this only on its :meth:`parent_copy`, so a worker forked
        after a crash opens its own.
        """
        if self._stores is None:
            query_root = self.options.query_cache_dir
            self._stores = (
                SummaryStore(self.store_root, readonly=True),
                QueryStore(query_root, readonly=True) if query_root else None,
            )
        return self._stores


def open_task(run: PoolRun) -> Tuple[SummaryStore, QueryCache]:
    """Start one task: the run's summary store and a fresh query cache.

    The query cache routes through the read-only L3 store.  It is new
    for every task, like the Step-2 summary cache built over the store,
    so a task's counters do not depend on the worker that ran it, or on
    whether the parent ran it.  A traced run's worker installs its own
    tracer here; the parent records onto the caller's, if any.
    """
    if run.options.trace and not run._in_parent:
        enable()
    store, query_store = run.stores()
    return store, QueryCache(store=query_store)


def end_task(run: PoolRun) -> Tuple[dict, dict]:
    """End one task: take its store writes and flush its mtime touches.

    Returns the writes as (summary rows, L3 query rows), each
    ``{digest: text}``, for the task's result; the scheduler writes both
    into the parent's stores.  Every task body calls this on every exit,
    a raised one too, so no row or touch a task buffered outlives it: a
    worker leaves through ``os._exit``, which runs no store finalizer.
    """
    store, query_store = run.stores()
    writes = (store.take_writes(), query_store.take_writes() if query_store is not None else {})
    store.flush()
    if query_store is not None:
        query_store.flush()
    return writes


def drain_observability(query_cache: QueryCache, run: PoolRun) -> dict:
    """Collect a task's observability output for shipping to the parent.

    Returns a JSON-able dict with up to three keys: ``spans`` (the
    tracer's drained ring buffer), ``slow`` (drained slow-solve records)
    and ``qstats`` (the task query cache's per-tier counters, which
    are the task's solver work: the parent folds them into the run's
    totals).  Keys
    are omitted when empty, so a disabled run ships ``{}`` — the merged
    result payload gains no observability weight unless something was
    observed.  Task bodies call this right before returning; the spans
    travel back with the result exactly like the task's store writes do.
    On the parent's copy of ``run`` only ``qstats`` ships: the spans and
    slow records of an inline task are already in the parent's tracer
    and slow log, which are not this task's to drain.
    """
    extras: dict = {}
    if not run._in_parent:
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
    writes — see :func:`end_task` —, drained observability extras —
    see :func:`drain_observability`, whose query-cache counters carry the
    job's solver work).
    """
    element, input_length = payload
    store, query_cache = open_task(run)
    try:
        status, detail = _summarize(element, input_length, run.options, store, query_cache)
    finally:
        writes = end_task(run)
    if status == COMPUTED:
        detail = writes[0][detail]  # ship the text the parent will store
    return status, detail, writes, drain_observability(query_cache, run)


def _summarize(
    element: Element,
    input_length: int,
    options: SymbexOptions,
    store: SummaryStore,
    query_cache: QueryCache,
) -> Tuple[str, str]:
    """``(status, detail)``: the stored text, the budget message, or the new digest."""
    stored = store.load(element, input_length, options)
    if stored is not None:
        return LOADED, dumps_summary(stored)
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
        return EXPLODED, str(exc)
    return COMPUTED, store.save(element, input_length, options, summary)
