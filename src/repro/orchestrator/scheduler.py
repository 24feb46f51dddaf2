"""Persistent dependency-aware fleet scheduler: the engine for ``workers > 1``.

:func:`repro.orchestrator.fleet.certify_fleet` runs one effective worker
as an in-process loop over a shared summary cache, and hands anything
wider to :func:`run_scheduled`, a job graph over one long-lived pool:

* :class:`JobGraph` — Step-1 summary jobs are nodes keyed by store digest;
  when a summary lands, exactly the pipelines waiting on that digest
  extend their worklists *immediately*, and the moment a pipeline's
  summary set is complete its Step-2 verification job becomes ready.
  Symbolic execution and verification overlap instead of phase-gating.
* **Placement by cost** — a Step-2 task whose pipeline reaches no
  summary with a suspect segment (:func:`has_suspect`, the test the
  verifier applies before it composes) and no budget-blown digest is
  bookkeeping: the verifier composes nothing and asks the solver
  nothing.  The parent runs such a task itself, the same task body over
  read-only views of the run's stores, with no fork and no pickling;
  every other task goes to the pool.  The pool forks only when the first
  pool-placed task reaches the top of the priority heap, so a run whose
  work is all inline forks nothing.
* :class:`PersistentPool` — ``workers`` fork-context processes spawned
  once per run, each fed one task at a time over its own pair of pipes
  (the parent holds the full priority heap, so priorities are honored
  exactly).  The parent pickles and writes each task, and reads each
  result, in its own thread, waiting on every result pipe and every
  worker's process sentinel at once, so no message waits in a feeder
  thread and a dead worker is seen the moment it exits: its task is
  re-queued as a fresh attempt and a replacement worker is forked.
* **Lean tasks** — the run's constants (catalog, properties, options,
  store root, …) travel once per worker as a
  :class:`~repro.orchestrator.workers.PoolRun`, so a task ships only its
  job (a Step-1 ``(element, length)``, a Step-2 catalog index).  Each
  worker opens its read-only stores once, on its first task, and
  decodes each stored summary at most once for the life of the pool
  (the store's decode memo, which the workers inherit from the parent's
  admission probe).  Each Step-2 result is handed to the
  caller's ``on_verified`` hook as it lands (the fleet layer writes its
  verdict record there), once every idle worker has been refilled.
* **One way out of a task** — tasks open every store read-only and
  each ships what it wrote in its result, in a worker or inline.  The
  parent writes a result's summary rows as it arrives (``merge_shards``),
  before admitting the work they unblock, and its L3 rows, first shipped
  wins, after the run.  A crashed attempt's writes never land.
* **Priorities** (:func:`pipeline_ranks`) — catalog order, or, given a
  risk history, the ranking of :mod:`repro.orchestrator.risk`: under
  delta mode the likely-violating few reach a verdict while bulk reuse
  trails.  Inline and pool-placed tasks share the one heap.

Differential guarantee: verdicts equal the in-process loop's — the
scheduler reorders work, it never changes it — and placement is visible
in no result, only in the dispatch, inline and fork counters.
Observability: per-task ``scheduler.task`` spans (an inline task's carry
the parent's pid), :class:`SchedulerStatistics`, and the query-cache
counters every task ships back (folded into the caller's ``qstats``),
which are the run's solver work.
"""

from __future__ import annotations

import heapq
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..obs.stats import StatisticsMixin
from ..obs.trace import clock, tracer
from ..smt.qcache import QueryCacheStatistics
from ..symbex.engine import SymbexOptions
from .errors import OrchestratorError
from . import store as store_module
from .store import SummaryStore, summary_key
from .workers import (
    EXPLODED,
    LOADED,
    PoolRun,
    _pool_context,
    _summarize_worker,
    merge_observability,
)

__all__ = [
    "JobGraph",
    "PersistentPool",
    "ScheduledRun",
    "SchedulerStatistics",
    "pipeline_ranks",
    "run_scheduled",
]

#: Task kinds (also the ``kind`` arg on ``scheduler.task`` spans).
SUMMARY = "summary"
VERIFY = "verify"


@dataclass
class SchedulerStatistics(StatisticsMixin):
    """Work accounting for one scheduled run."""

    MERGE_MAX = ("max_queue_depth", "workers")

    #: The run's worker count, whether or not a pool forked.
    workers: int = 0
    #: Tasks sent to a pool worker (a retried task counts per attempt).
    tasks_dispatched: int = 0
    #: Step-2 tasks the parent ran itself (see :func:`has_suspect`).
    tasks_inline: int = 0
    summary_tasks: int = 0
    #: Step-2 tasks, in workers and inline alike.
    verify_tasks: int = 0
    #: Pools forked for the run: 1, or 0 when every task ran inline.
    pools_forked: int = 0
    workers_spawned: int = 0
    workers_crashed: int = 0
    tasks_retried: int = 0
    #: Summaries Step-2 tasks decoded from store text: transport, not
    #: avoided work (an in-process run reads its shared cache instead).
    #: Counted from the store's decode-memo misses during each task.  A
    #: worker inherits the parent's memo at fork and keeps its own for
    #: the life of the pool, so this is at most workers x distinct
    #: digests, and 0 when the parent's admission probe decoded them all.
    #: An inline task reads the parent's memo, which holds every summary
    #: of the run decoded, so it adds 0.
    step2_store_loads: int = 0
    max_queue_depth: int = 0
    #: Child-measured task execution time, summed across workers.
    worker_busy_seconds: float = 0.0
    #: Parent-measured time workers sat without an assigned task.
    worker_idle_seconds: float = 0.0
    pool_lifetime_seconds: float = 0.0


# -- priorities -----------------------------------------------------------------------


def pipeline_ranks(pipelines: Sequence[Pipeline], risk_history=None) -> List[int]:
    """Per-pipeline priority ranks (0 = most urgent).

    Catalog order, unless a :class:`repro.orchestrator.risk.RiskHistory`
    is given: then pipelines rank by their churn/verdict history, ties
    breaking on catalog index.
    """
    order = risk_history.rank(pipelines) if risk_history is not None else range(len(pipelines))
    ranks = [0] * len(pipelines)
    for position, index in enumerate(order):
        ranks[index] = position
    return ranks


def has_suspect(summary, element_name: str, properties: Sequence) -> bool:
    """Whether any segment of ``summary`` is suspect for any of ``properties``.

    The test :meth:`~repro.verify.pipeline_verifier.PipelineVerifier.verify`
    applies before it composes, so a pipeline none of whose summaries has
    one is proved by Step 1 alone.  The element's name matters because a
    property may exempt an element by name.
    """
    return any(
        target.is_suspect(element_name, segment)
        for segment in summary.segments
        for target in properties
    )


# -- the dependency graph -------------------------------------------------------------


def entry_of(pipeline: Pipeline) -> Element:
    """The pipeline's one entry element; fleet certification needs exactly one."""
    entry = pipeline.sole_entry()
    if entry is None:
        raise OrchestratorError(
            f"pipeline {pipeline.name!r} has {len(pipeline.entry_elements())} entry "
            "elements; fleet certification needs exactly one"
        )
    return entry


class JobGraph:
    """Dependency-aware Step-1/Step-2 job graph over a catalog.

    Summary jobs are keyed by store digest (the fleet-wide dedupe unit);
    each pipeline tracks the set of digests it still needs.  Resolving a
    digest expands exactly the waiting pipelines' downstream jobs — the
    per-pipeline BFS of
    :meth:`repro.verify.pipeline_verifier.PipelineVerifier.element_summaries`,
    without any cross-pipeline barrier — and a pipeline whose need-set
    empties becomes verify-ready.  A digest that blew its budget
    (:meth:`explode`) stops expanding, and its pipelines still verify:
    their own Step-2 pass hits the same budget and reports ``unknown``,
    exactly like the in-process loop.

    The graph is pure bookkeeping (no processes, no store): drive it in
    any completion order — the reachable job set, the summary dict and
    the verify-ready set are order-independent, which is what makes the
    scheduler differentially testable.
    """

    def __init__(
        self,
        pipelines: Sequence[Pipeline],
        input_lengths: Sequence[int],
        options: SymbexOptions,
    ) -> None:
        self.pipelines = list(pipelines)
        self.options = options
        self.summaries: Dict[str, object] = {}
        self.exploded: Set[str] = set()
        #: Pipelines each unresolved digest expands on arrival.
        self._waiters: Dict[str, List[Tuple[int, Element]]] = {}
        #: Unresolved digests gating each pipeline's verification.
        self._needs: List[Set[str]] = [set() for _ in pipelines]
        #: Each pipeline's reached ``(element name, length)`` and its digest.
        self._visited: List[Dict[Tuple[str, int], str]] = [{} for _ in pipelines]
        self._new_jobs: List[Tuple[str, Element, int]] = []
        self._joined: List[Tuple[str, int]] = []
        self._verify_ready: List[int] = []
        self._verify_emitted: Set[int] = set()
        for index, pipeline in enumerate(self.pipelines):
            entry = entry_of(pipeline)
            for length in input_lengths:
                self._enqueue(index, entry, length)
            self._check_ready(index)

    # -- internal transitions --------------------------------------------------------

    def _enqueue(self, index: int, element: Element, length: int) -> None:
        key = (element.name, length)
        if key in self._visited[index]:
            return
        digest = self._visited[index][key] = summary_key(element, length, self.options)
        summary = self.summaries.get(digest)
        if summary is not None:
            self._expand(index, element, summary)
            return
        if digest in self.exploded:
            return  # the branch is dead; verification reports the budget
        waiters = self._waiters.get(digest)
        if waiters is None:
            self._waiters[digest] = [(index, element)]
            self._new_jobs.append((digest, element, length))
        else:
            waiters.append((index, element))
            self._joined.append((digest, index))
        self._needs[index].add(digest)

    def _expand(self, index: int, element: Element, summary) -> None:
        for segment in summary.emit_segments:  # type: ignore[attr-defined]
            downstream = self.pipelines[index].downstream(element, segment.port or 0)
            if downstream is not None:
                self._enqueue(index, downstream[0], len(segment.output_bytes))

    def _check_ready(self, index: int) -> None:
        if not self._needs[index] and index not in self._verify_emitted:
            self._verify_emitted.add(index)
            self._verify_ready.append(index)

    # -- driver interface ------------------------------------------------------------

    def resolve(self, digest: str, summary) -> None:
        """A summary landed: expand every waiting pipeline immediately."""
        self.summaries[digest] = summary
        for index, element in self._waiters.pop(digest, ()):
            self._expand(index, element, summary)
            self._needs[index].discard(digest)
            self._check_ready(index)

    def explode(self, digest: str) -> None:
        """The job blew its budget: stop expanding, unblock its pipelines."""
        self.exploded.add(digest)
        for index, _element in self._waiters.pop(digest, ()):
            self._needs[index].discard(digest)
            self._check_ready(index)

    def reached(self, index: int) -> List[Tuple[str, str]]:
        """``(digest, element name)`` of every summary pipeline ``index`` reached.

        Exploded digests included: once the pipeline is verify-ready, what
        its Step 2 reads.
        """
        return [(digest, name) for (name, _length), digest in self._visited[index].items()]

    def waiting_on(self, digest: str) -> List[int]:
        """Pipeline indices currently blocked on a digest (for priorities)."""
        return [index for index, _element in self._waiters.get(digest, ())]

    def take_new_jobs(self) -> List[Tuple[str, Element, int]]:
        """Drain summary jobs discovered since the last call."""
        jobs, self._new_jobs = self._new_jobs, []
        return jobs

    def take_joined(self) -> List[Tuple[str, int]]:
        """Drain ``(digest, pipeline index)`` late joins to pending jobs.

        A pipeline that starts waiting on a digest whose job already
        exists may carry a better (lower) rank than the job was queued
        with — the driver uses these events to re-prioritize, or a
        high-priority pipeline would inherit the bulk catalog's patience
        for its shared elements.
        """
        joined, self._joined = self._joined, []
        return joined

    def take_verify_ready(self) -> List[int]:
        """Drain pipelines whose summary set completed since the last call."""
        ready, self._verify_ready = self._verify_ready, []
        return ready

    @property
    def settled(self) -> bool:
        """Every discovered job resolved or exploded, every pipeline unblocked."""
        return not self._waiters and all(not needs for needs in self._needs)


# -- the persistent pool --------------------------------------------------------------


@dataclass
class _Task:
    """One unit of pool work (a Step-1 summary or a Step-2 verification)."""

    task_id: int
    kind: str
    key: object  # digest (summary) or pipeline index (verify)
    fn: Callable
    payload: object
    priority: Tuple
    label: str
    attempt: int = 1
    #: Run by the parent itself instead of a pool worker.
    inline: bool = False


def _pool_worker_loop(tasks, results, run: PoolRun, parent_ends) -> None:
    """Worker body: run tasks until the empty stop message arrives.

    ``tasks`` and ``results`` are this worker's ends of its two pipes.
    ``parent_ends`` are the parent's ends of every pool pipe the fork
    copied into this process; closing them leaves each pipe one reader
    and one writer, so a worker's death is end-of-file on its result
    pipe and the parent's is end-of-file on its task pipe.

    A task message is a pickled ``(fn, payload)``; the body is called as
    ``fn(payload, run)`` and the worker sends back one pickled
    ``(ok, started, ended, result or error message)``.  The result is
    pickled here, so an unpicklable result (or payload) fails its task
    like any other error: failures ship as data, and one bad task must
    not tear the worker down.
    """
    for end in parent_ends:
        end.close()
    while True:
        try:
            message = tasks.recv_bytes()
        except EOFError:
            return  # the parent is gone
        if not message:
            return  # shutdown
        started = clock()
        try:
            fn, payload = pickle.loads(message)
            result = fn(payload, run)
            message = pickle.dumps((True, started, clock(), result), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - shipped as data, see docstring
            message = pickle.dumps((False, started, clock(), f"{type(exc).__name__}: {exc}"))
        try:
            results.send_bytes(message)
        except OSError:
            return  # the parent stopped reading: the pool is shutting down


class _WorkerHandle:
    """Parent-side record of one pool process and the parent's ends of its pipes."""

    __slots__ = ("process", "tasks", "results", "current", "idle_since")

    def __init__(self, process, tasks, results) -> None:
        self.process = process
        self.tasks = tasks
        self.results = results
        self.current: Optional[_Task] = None
        self.idle_since: Optional[float] = clock()


class PersistentPool:
    """``workers`` fork-context processes, spawned once, fed task-by-task.

    Each worker owns two one-way pipes, one for its tasks and one for
    its results, and holds at most one task: the parent dispatches
    exactly one task to exactly one idle worker, so the parent-side
    priority heap is honored precisely.  The parent pickles and writes
    each task in its own thread, so a task that cannot be pickled fails
    :meth:`dispatch` with :class:`OrchestratorError`.  :meth:`next_event`
    waits on every result pipe and every worker's process sentinel at
    once.  A worker that dies, or is killed in the middle of writing its
    result, is reaped as soon as it exits: its task is surfaced as a
    ``("crashed", task)`` event for the driver to re-queue, and a
    replacement process is forked so capacity never decays.  ``run`` is
    handed to every worker at start, replacements included.
    """

    def __init__(self, workers: int, statistics: SchedulerStatistics, run: PoolRun) -> None:
        self.statistics = statistics
        self._run = run
        self._context = _pool_context()
        self._workers: List[_WorkerHandle] = []
        self._closed = False
        self._started = clock()
        statistics.pools_forked += 1
        for _ in range(max(1, workers)):
            self._spawn()

    def _spawn(self) -> None:
        task_reader, task_writer = self._context.Pipe(duplex=False)
        result_reader, result_writer = self._context.Pipe(duplex=False)
        parent_ends = [task_writer, result_reader]
        for handle in self._workers:
            parent_ends += [handle.tasks, handle.results]
        process = self._context.Process(
            target=_pool_worker_loop,
            args=(task_reader, result_writer, self._run, parent_ends),
            daemon=True,
        )
        process.start()
        task_reader.close()
        result_writer.close()
        self._workers.append(_WorkerHandle(process, task_writer, result_reader))
        self.statistics.workers_spawned += 1

    # -- capacity --------------------------------------------------------------------

    def _idle_worker(self) -> Optional[_WorkerHandle]:
        for handle in self._workers:
            if handle.current is None and handle.process.is_alive():
                return handle
        return None

    @property
    def has_idle(self) -> bool:
        return self._idle_worker() is not None

    @property
    def busy_count(self) -> int:
        return sum(handle.current is not None for handle in self._workers)

    # -- dispatch / events -----------------------------------------------------------

    def dispatch(self, task: _Task) -> None:
        """Send ``task`` to an idle worker.

        Raises :class:`OrchestratorError` naming the task when it cannot
        be pickled; the driver's ``with`` block then shuts the pool down.
        """
        handle = self._idle_worker()
        if handle is None:  # caller checked has_idle; defensive
            raise OrchestratorError("dispatch with no idle worker")
        try:
            message = pickle.dumps((task.fn, task.payload), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise OrchestratorError(
                f"scheduler {task.kind} task {task.label!r} cannot be sent to a worker: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if handle.idle_since is not None:
            self.statistics.worker_idle_seconds += clock() - handle.idle_since
            handle.idle_since = None
        handle.current = task
        self.statistics.tasks_dispatched += 1
        try:
            handle.tasks.send_bytes(message)
        except OSError:
            pass  # the worker just died: next_event reaps it and returns the task

    def _reap(self, handle: _WorkerHandle) -> Optional[_Task]:
        """Replace a dead worker; returns the task it held, if any."""
        handle.process.join()
        handle.tasks.close()
        handle.results.close()
        self._workers.remove(handle)
        self.statistics.workers_crashed += 1
        self._spawn()
        return handle.current

    def next_event(self):
        """Block until a worker reports or dies; returns one of two event tuples.

        ``("result", pid, task, ok, started, ended, payload)`` for a
        completed task; ``("crashed", task)`` when a worker died holding a
        task (a replacement is already forked; the driver re-queues the
        task).  A worker's death shows as its process sentinel firing or
        as end-of-file on its result pipe, whichever is seen first.  A
        result the worker wrote in full before it died is still delivered
        first, and its death is then reaped with no task lost.
        """
        # Imported here, as the pool's pipes import it: a serial run never
        # loads it (six modules, about 0.4 MB of a process's peak memory).
        from multiprocessing.connection import wait

        while True:
            watched: Dict[Any, _WorkerHandle] = {}
            for handle in self._workers:
                watched[handle.results] = watched[handle.process.sentinel] = handle
            ready = wait(list(watched))
            handle = watched[ready[0]]
            if handle.process.sentinel in ready:
                handle.process.join()  # exited: every end it held is closed
            try:
                ok, started, ended, payload = handle.results.recv()
            except (EOFError, OSError):  # died between or in the middle of messages
                lost = self._reap(handle)
                if lost is not None:
                    return ("crashed", lost)
                continue
            task, handle.current = handle.current, None
            handle.idle_since = clock()
            return ("result", handle.process.pid, task, ok, started, ended, payload)

    # -- teardown --------------------------------------------------------------------

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        now = clock()
        for handle in self._workers:
            if handle.idle_since is not None:
                self.statistics.worker_idle_seconds += now - handle.idle_since
                handle.idle_since = None
            try:
                handle.tasks.send_bytes(b"")  # the stop message
            except OSError:  # pragma: no cover - the worker already died
                pass
            # A worker still running a task (the run failed) then gets a
            # broken pipe for its result instead of blocking on it.
            handle.results.close()
        for handle in self._workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - wedged worker
                handle.process.terminate()
                handle.process.join(timeout=5)
            handle.tasks.close()
        self._workers.clear()
        self.statistics.pool_lifetime_seconds = clock() - self._started

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- the driver -----------------------------------------------------------------------


@dataclass
class ScheduledRun:
    """What a scheduled pass produced, in the shape the fleet layer folds."""

    #: Resolved summaries by digest (exploded digests excluded) — the
    #: ``distinct_summary_jobs`` population.
    summaries: Dict[str, object] = field(default_factory=dict)
    computed: int = 0
    loaded: int = 0
    #: Step-2 results by catalog index: ``(certification, misses)``, where
    #: ``misses`` counts summaries the task had to compute itself.
    step2: Dict[int, tuple] = field(default_factory=dict)
    #: Catalog indices in verification *completion* order — what risk
    #: ranking reorders, and what the bench asserts on.
    verify_order: List[int] = field(default_factory=list)
    #: L3 rows (``{digest: text}``) the tasks shipped, first shipped kept.
    query_rows: Dict[str, str] = field(default_factory=dict)
    statistics: SchedulerStatistics = field(default_factory=SchedulerStatistics)


def run_scheduled(
    pipelines: Sequence[Pipeline],
    properties: Sequence,
    input_lengths: Sequence[int],
    options: SymbexOptions,
    workers: int,
    store: SummaryStore,
    max_counterexamples: int = 3,
    confirm_by_replay: bool = True,
    instruction_bounds: bool = False,
    risk_history=None,
    qstats: Optional[QueryCacheStatistics] = None,
    summary_worker: Optional[Callable] = None,
    verify_worker: Optional[Callable] = None,
    on_verified: Optional[Callable[[int, Any], None]] = None,
) -> ScheduledRun:
    """Drive the whole catalog through one persistent pool and the parent.

    The public entry is ``certify_fleet(workers=N)``; this function is
    the scheduler itself, exposed so tests and benches can run it with a
    worker count the fleet layer's cpu clamp would refuse.  ``summary_worker``
    and ``verify_worker`` override the task callables (module-level,
    picklable, called as ``fn(payload, run)`` like the ones they replace)
    — the crash tests inject a self-killing wrapper this way.  The summary
    rows tasks ship land in ``store`` before the work they unblock is
    admitted; their L3 rows are left in :attr:`ScheduledRun.query_rows`.

    A Step-2 task that composes nothing (see the module docstring) runs
    in the parent on :meth:`~repro.orchestrator.workers.PoolRun.parent_copy`
    and lands like a worker's result.  It is not retried: if it raises,
    the run fails with the message a failed pool task gives.

    ``qstats`` (optional) accumulates the query-cache counters each task
    ships back, Step-1 and Step-2 alike: the run's solver work.

    ``on_verified(index, certification)`` is called once per pipeline as
    its Step-2 result lands, after every idle worker has been refilled
    and before the driver blocks on the next event, so work done there
    (the fleet layer's verdict-record writes) never starves the pool.

    Priority: tasks carry ``(rank, stage, seq)`` keys — a summary job
    inherits the best rank among the pipelines waiting on it at admission
    time, a verification job its pipeline's rank — so with a
    ``risk_history`` the highest-risk pipeline's entire dependency chain,
    then its verdict, preempt the bulk of the catalog.  The parent runs
    an inline top task itself; a pool-placed one waits for an idle
    worker, holding back everything below it.
    """
    from .fleet import _certify_worker  # deferred: fleet imports this module

    summary_fn = summary_worker or _summarize_worker
    verify_fn = verify_worker or _certify_worker
    ranks = pipeline_ranks(pipelines, risk_history)
    graph = JobGraph(pipelines, input_lengths, options)
    run = ScheduledRun()
    stats = run.statistics
    stats.workers = workers
    trace = tracer()
    constants = PoolRun(
        pipelines=list(pipelines),
        properties=list(properties),
        input_lengths=tuple(input_lengths),
        options=options,
        store_root=str(store.root),
        max_counterexamples=max_counterexamples,
        confirm_by_replay=confirm_by_replay,
        instruction_bounds=instruction_bounds,
    )
    #: What inline tasks run on: its read-only store views are opened in
    #: the parent and never handed to a worker.
    parent_run = constants.parent_copy()
    #: :func:`has_suspect` per ``(digest, element name)``, each asked once.
    suspect: Dict[Tuple[str, str], bool] = {}

    heap: List[Tuple[Tuple, int, _Task]] = []
    #: Summary tasks still queued, by digest — late joiners re-prioritize
    #: these (a stale heap entry is skipped at pop time, lazy-deletion
    #: style: an entry is live only while its key equals task.priority).
    pending_summaries: Dict[str, _Task] = {}
    started_ids: Set[int] = set()
    #: Verified catalog indices not yet handed to ``on_verified``.
    landed: List[int] = []
    queued = 0
    seq = 0
    task_ids = iter(range(1, 1 << 30))
    started = clock()
    last_summary_end = started

    def _push(task: _Task, requeue: bool = False) -> None:
        nonlocal seq, queued
        seq += 1
        heapq.heappush(heap, (task.priority, seq, task))
        if not requeue:
            queued += 1
            stats.max_queue_depth = max(stats.max_queue_depth, queued)

    def _composes_nothing(index: int) -> bool:
        """Whether pipeline ``index``'s Step 2 is bookkeeping (the placement rule)."""
        for digest, name in graph.reached(index):
            if digest in graph.exploded:
                return False  # its Step 2 re-runs symbex until the budget runs out
            key = (digest, name)
            if key not in suspect:
                suspect[key] = has_suspect(graph.summaries[digest], name, properties)
            if suspect[key]:
                return False
        return True

    def _admit() -> None:
        """Turn graph progress into heap entries until discovery quiesces."""
        while True:
            jobs = graph.take_new_jobs()
            if not jobs:
                break
            # Satellite of the same disease the scheduler cures: probe the
            # warm store once per admission batch, not once per job.
            stored = store.load_digests([digest for digest, _e, _l in jobs])
            for digest, element, length in jobs:
                summary = stored.get(digest)
                if summary is not None:
                    run.loaded += 1
                    graph.resolve(digest, summary)  # may surface more jobs
                    continue
                rank = min(
                    (ranks[index] for index in graph.waiting_on(digest)),
                    default=len(ranks),
                )
                task = _Task(
                    task_id=next(task_ids),
                    kind=SUMMARY,
                    key=digest,
                    fn=summary_fn,
                    payload=(element, length),
                    priority=(rank, 0),
                    label=f"{element.name}@{length}",
                )
                pending_summaries[digest] = task
                _push(task)
        # A later discovery can hang a better-ranked pipeline on a job
        # queued under a worse rank; hoist the still-pending task.
        for digest, index in graph.take_joined():
            task = pending_summaries.get(digest)
            if task is not None and ranks[index] < task.priority[0]:
                task.priority = (ranks[index], 0)
                _push(task, requeue=True)
        for index in graph.take_verify_ready():
            _push(
                _Task(
                    task_id=next(task_ids),
                    kind=VERIFY,
                    key=index,
                    fn=verify_fn,
                    payload=index,
                    priority=(ranks[index], 1),
                    label=pipelines[index].name,
                    inline=_composes_nothing(index),
                )
            )

    def _write_rows(rows) -> None:
        """Write a result's summary rows now, keep its L3 rows for the end."""
        summary_rows, query_rows = rows
        if summary_rows:
            store.merge_shards(summary_rows)
        for digest, text in query_rows.items():
            run.query_rows.setdefault(digest, text)

    def _finish_summary(task: _Task, payload) -> None:
        nonlocal last_summary_end
        status, text, rows, extras = payload
        merge_observability(extras, qstats)
        _write_rows(rows)
        last_summary_end = clock()
        if status == EXPLODED:
            graph.explode(task.key)
            return
        if status == LOADED:
            run.loaded += 1
        else:
            run.computed += 1
        # The store now holds this same text under this digest, so the
        # next run's admission probe finds it in the decode memo.
        graph.resolve(task.key, store_module._decoded.decode(task.key, text))

    def _finish_verify(task: _Task, payload) -> None:
        certification, misses, store_loads, rows, extras = payload
        merge_observability(extras, qstats)
        _write_rows(rows)
        stats.step2_store_loads += store_loads
        run.step2[task.key] = (certification, misses)
        run.verify_order.append(task.key)
        landed.append(task.key)

    def _report_landed() -> None:
        if on_verified is not None:
            for index in landed:
                on_verified(index, run.step2[index][0])
        landed.clear()

    def _failed(task: _Task, message: str) -> OrchestratorError:
        return OrchestratorError(f"scheduler {task.kind} task {task.label!r} failed: {message}")

    def _land(task: _Task, pid: int, task_started: float, ended: float, payload) -> None:
        """A task's result, from a worker or inline: record it, admit what it unblocks."""
        if trace.enabled:
            trace.record_span(
                "scheduler.task",
                "scheduler",
                task_started,
                ended,
                kind=task.kind,
                label=task.label,
                pid=pid,
                attempt=task.attempt,
            )
        if task.kind == SUMMARY:
            _finish_summary(task, payload)
        else:
            _finish_verify(task, payload)
        _admit()

    def _run_inline(task: _Task) -> None:
        stats.tasks_inline += 1
        task_started = clock()
        try:
            payload = task.fn(task.payload, parent_run)
        except Exception as exc:
            raise _failed(task, f"{type(exc).__name__}: {exc}") from exc
        _land(task, os.getpid(), task_started, clock(), payload)

    _admit()
    pool: Optional[PersistentPool] = None
    try:
        while True:
            while heap:
                priority, _seq, task = heap[0]
                if task.task_id in started_ids or priority != task.priority:
                    heapq.heappop(heap)  # stale entry: started, or re-prioritized
                    continue
                if not task.inline:
                    if pool is None:  # the first pool-placed task forks the pool
                        pool = PersistentPool(workers, stats, constants)
                    if not pool.has_idle:
                        break
                heapq.heappop(heap)
                started_ids.add(task.task_id)
                queued -= 1
                if task.kind == SUMMARY:
                    pending_summaries.pop(task.key, None)
                    stats.summary_tasks += 1
                else:
                    stats.verify_tasks += 1
                if task.inline:
                    _run_inline(task)
                else:
                    pool.dispatch(task)
            _report_landed()  # every idle worker is busy again: write now
            if pool is None or not pool.busy_count:
                if queued:  # pragma: no cover - every worker died and respawn failed
                    raise OrchestratorError("scheduler has queued tasks but no workers")
                break
            event = pool.next_event()
            if event[0] == "crashed":
                lost = event[1]
                stats.tasks_retried += 1
                lost.attempt += 1
                started_ids.discard(lost.task_id)
                if lost.kind == SUMMARY:
                    pending_summaries[lost.key] = lost
                _push(lost)
                continue
            _event, pid, task, ok, task_started, ended, payload = event
            if not ok:
                raise _failed(task, payload)
            stats.worker_busy_seconds += ended - task_started
            _land(task, pid, task_started, ended, payload)
    finally:
        if pool is not None:
            pool.shutdown()
    if not graph.settled or len(run.step2) != len(pipelines):  # pragma: no cover
        raise OrchestratorError("scheduler finished with unresolved work")
    run.summaries = graph.summaries
    if trace.enabled and (run.computed or run.loaded):
        # One fleet.summarize span over Step 1: admission to the last
        # Step-1 resolution (Step 2 overlaps it — that is the point).
        trace.record_span(
            "fleet.summarize",
            "fleet",
            started,
            last_summary_end,
            jobs=len(run.summaries),
            computed=run.computed,
            loaded=run.loaded,
        )
    return run
