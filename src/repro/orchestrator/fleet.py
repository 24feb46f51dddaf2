"""Fleet-scale certification: verify a catalog of pipelines as one batch.

The paper's app-store use case (§2) certifies one candidate element
against one pipeline.  At fleet scale an operator holds a *catalog* of
pipelines that share most of their elements (every variant starts with the
same CheckIPHeader, routes through the same IPLookup configuration, …).
:func:`certify_fleet` exploits that sharing the same way the verifier
exploits sharing within one pipeline: Step 1 is deduplicated across the
whole catalog by store digest, so an element appearing in twenty
pipelines is symbolically executed once — and zero times on a warm
:class:`~repro.orchestrator.store.SummaryStore`.

One engine runs the work on every worker count:
:func:`repro.orchestrator.scheduler.run_scheduled` drives Step-1 summary
jobs and per-pipeline Step-2 checks through the parent and at most one
persistent pool.  The parent runs its tasks through one
:class:`~repro.verify.cache.SummaryCache` for the whole run, so an
element shared by twenty pipelines is summarized once and every later
use is an in-memory hit.  On one worker the parent runs every task; on
more, it runs the Step-2 checks that compose nothing, and pool workers,
which read the stores read-only and ship their writes back, run the rest.

Merging is deterministic: certifications come back in catalog order, and
every worker count gives the same verdicts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dataplane.fingerprint import pipeline_fingerprint
from ..dataplane.pipeline import Pipeline
from ..obs.stats import StatisticsMixin
from ..obs.trace import NullTracer, Tracer, active, clock, tracer
from ..smt.qcache import QueryCacheStatistics
from ..symbex.engine import StaticTableMode, SymbexOptions
from ..verify.cache import SummaryCache
from ..verify.pipeline_verifier import PipelineVerifier
from ..verify.properties import Property
from ..verify.report import InstructionBoundResult, VerificationResult
from .scheduler import SchedulerStatistics, entry_of, run_scheduled
from .store import QueryStore, SummaryStore, summaries_decoded
from .verdicts import VerdictStore, element_slots, property_set_fingerprint, verdict_key
from .workers import PoolRun, drain_observability, end_task, open_task

#: Provenance labels: the certification was verified on this run, ...
FRESH = "fresh"
#: ... or reused from the verdict store because the pipeline's fingerprint
#: (and the whole verification request) was unchanged.
DELTA_REUSED = "delta-reused"


@dataclass
class PipelineCertification:
    """One pipeline's verdicts against every requested property."""

    pipeline_name: str
    results: List[VerificationResult] = field(default_factory=list)
    instruction_bound: Optional[InstructionBoundResult] = None
    #: :data:`FRESH` when verified on this run, :data:`DELTA_REUSED` when
    #: served from the verdict store.  Reused certifications' statistics
    #: count the work of the run that originally computed them (and no
    #: seconds: stored records carry none), so the fleet-level counters
    #: deliberately exclude them.
    provenance: str = FRESH
    #: Why this pipeline was (or was not) re-verified, as human-readable
    #: impact provenance ("element lookup: contents of static table
    #: 'routes' changed", "unchanged configuration", ...).  Filled by the
    #: change-impact engine; plain ``certify_fleet`` leaves it empty.
    impact_causes: List[str] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return all(result.proved for result in self.results)

    @property
    def reused(self) -> bool:
        return self.provenance == DELTA_REUSED

    def __repr__(self) -> str:
        verdicts = ", ".join(f"{r.property_name}={r.verdict}" for r in self.results)
        return f"PipelineCertification({self.pipeline_name!r}, {verdicts})"

    def to_dict(self) -> dict:
        return {
            "pipeline_name": self.pipeline_name,
            "results": [result.to_dict() for result in self.results],
            "instruction_bound": (
                self.instruction_bound.to_dict() if self.instruction_bound else None
            ),
            "provenance": self.provenance,
            "impact_causes": list(self.impact_causes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineCertification":
        bound = payload.get("instruction_bound")
        return cls(
            pipeline_name=payload["pipeline_name"],
            results=[VerificationResult.from_dict(r) for r in payload.get("results", [])],
            instruction_bound=InstructionBoundResult.from_dict(bound) if bound else None,
            provenance=payload.get("provenance", FRESH),
            impact_causes=list(payload.get("impact_causes", [])),
        )

    def reused_as(self, pipeline_name: str) -> "PipelineCertification":
        """This stored record, served to the catalog's pipeline ``pipeline_name``.

        Verdict records are content-addressed by fingerprint, which
        normalizes names out, so a renamed or identical pipeline hits a
        record stored under another name.  The copy takes the current
        name, provenance :data:`DELTA_REUSED` and no impact causes, and
        it shares nothing mutable with this record, which the verdict
        store's decode memo hands to every later load, or with another
        copy: every list, dict, result, counterexample and statistics
        object is new.  Built field by field, parsing no JSON.
        """
        bound = self.instruction_bound
        return PipelineCertification(
            pipeline_name,
            [result.renamed(pipeline_name) for result in self.results],
            bound.renamed(pipeline_name) if bound is not None else None,
            DELTA_REUSED,
        )


@dataclass
class FleetStatistics(StatisticsMixin):
    """Aggregate work accounting for one fleet run."""

    #: Merging two runs keeps the larger pool, not the sum — see
    #: :attr:`repro.obs.stats.StatisticsMixin.MERGE_MAX`.
    MERGE_MAX = ("workers",)

    pipelines: int = 0
    properties_checked: int = 0
    workers: int = 1
    element_instances: int = 0
    distinct_summary_jobs: int = 0
    #: Actual Step-1 symbolic executions performed (0 on a warm store).
    summaries_computed: int = 0
    #: Step-1 discovery jobs served from the on-disk store instead of being
    #: computed — the work a warm store *avoided*.
    store_hits: int = 0
    solver_checks: int = 0
    #: CDCL searches across the whole run (0 on a warm run backed by the
    #: persistent L3 query cache), and slice questions the query cache's
    #: tiers answered — both read once from the run's folded query-cache
    #: statistics, Step 1 and Step 2 alike.
    sat_core_calls: int = 0
    qcache_hits: int = 0
    #: Step-1 path accounting: terminal states reached, sibling pairs
    #: collapsed by the ite-lifting merge pass, ite terms that lifting
    #: introduced, and candidate pairs the merge policy rejected.
    paths_explored: int = 0
    paths_merged: int = 0
    ites_introduced: int = 0
    merge_rejected: int = 0
    composed_paths_checked: int = 0
    counterexamples: int = 0
    #: Delta-mode split: pipelines verified on this run vs. served whole
    #: from the verdict store.  Reused pipelines contribute *nothing* to
    #: the work counters above — zero symbolic executions, zero solver
    #: checks — which is the whole point of the tier.
    verdicts_fresh: int = 0
    verdicts_reused: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class FleetReport:
    """The merged result of certifying a catalog."""

    certifications: List[PipelineCertification] = field(default_factory=list)
    statistics: FleetStatistics = field(default_factory=FleetStatistics)
    #: Scheduler-side accounting (tasks in workers and inline, pool forks,
    #: idle time, retries, Step-2 store rehydrations) whenever some
    #: pipeline was certified, on any worker count, forked or not;
    #: ``None`` when every verdict was reused.
    scheduler: Optional[SchedulerStatistics] = None

    @property
    def certified(self) -> List[PipelineCertification]:
        return [c for c in self.certifications if c.certified]

    @property
    def rejected(self) -> List[PipelineCertification]:
        return [c for c in self.certifications if not c.certified]

    def verdicts(self) -> List[Tuple[str, str, str]]:
        """Flat (pipeline, property, verdict) rows — the comparable core of a run."""
        return [
            (certification.pipeline_name, result.property_name, result.verdict)
            for certification in self.certifications
            for result in certification.results
        ]

    def summary(self) -> str:
        stats = self.statistics
        scheduler = self.scheduler
        lines = [
            f"fleet      : {stats.pipelines} pipelines x {stats.properties_checked} properties "
            f"({stats.workers} workers)"
            + (
                f", {stats.verdicts_reused} reused / {stats.verdicts_fresh} fresh"
                if stats.verdicts_reused
                else ""
            ),
            f"step 1     : {stats.element_instances} element instances -> "
            f"{stats.distinct_summary_jobs} distinct jobs, "
            f"{stats.summaries_computed} computed, {stats.store_hits} from store",
            f"merge      : {stats.paths_explored} paths explored, "
            f"{stats.paths_merged} merged "
            f"({stats.ites_introduced} ites, {stats.merge_rejected} rejected)",
            f"step 2     : {stats.composed_paths_checked} composed paths, "
            f"{stats.solver_checks} solver checks, "
            f"{stats.sat_core_calls} SAT-core calls "
            f"({stats.qcache_hits} query-cache hits)"
            + (
                f", {scheduler.step2_store_loads} store rehydrations"
                if scheduler is not None and scheduler.step2_store_loads
                else ""
            ),
        ]
        if scheduler is not None:
            lines.append(
                f"scheduler  : {scheduler.tasks_dispatched} tasks in workers, "
                f"{scheduler.tasks_inline} inline; pools forked {scheduler.pools_forked}, "
                f"retries {scheduler.tasks_retried}"
            )
        lines += [
            f"verdict    : {len(self.certified)} certified / {len(self.rejected)} rejected, "
            f"{stats.counterexamples} counterexamples",
            f"time       : {stats.elapsed_seconds:.2f}s",
        ]
        for certification in self.rejected:
            failing = [r for r in certification.results if not r.proved]
            for result in failing:
                lines.append(
                    f"  rejected {certification.pipeline_name}: {result.property_name} "
                    f"is {result.verdict}"
                )
        return "\n".join(lines)


def _certify_one(
    pipeline: Pipeline,
    properties: Sequence[Property],
    input_lengths: Sequence[int],
    cache: SummaryCache,
    max_counterexamples: int,
    confirm_by_replay: bool,
    with_instruction_bound: bool,
) -> PipelineCertification:
    verifier = PipelineVerifier(pipeline, options=cache.options, cache=cache)
    certification = PipelineCertification(pipeline_name=pipeline.name)
    with tracer().span("fleet.pipeline", "fleet", pipeline=pipeline.name) as span:
        for target_property in properties:
            certification.results.append(
                verifier.verify(
                    target_property,
                    input_lengths=list(input_lengths),
                    max_counterexamples=max_counterexamples,
                    confirm_by_replay=confirm_by_replay,
                )
            )
        if with_instruction_bound:
            certification.instruction_bound = verifier.instruction_bound(
                input_lengths=list(input_lengths), find_witness=False
            )
        span.set(certified=certification.certified)
    return certification


def _certify_worker(
    index: int, run: PoolRun
) -> Tuple[PipelineCertification, int, int, tuple, dict]:
    """A pool worker's Step-2 task: certify ``run.pipelines[index]`` from the shared store.

    Returns (certification, summaries the task computed itself, summaries
    it decoded from store text, the task's store writes, drained
    observability extras).  A summary this process decoded before, or
    a worker inherited decoded from the parent, is read from the store
    but not decoded again (see :class:`repro.orchestrator.store.SummaryStore`).
    The task builds a fresh summary cache and query cache over the
    worker's read-only stores, which stay open for the life of the pool;
    the summaries it had to compute and the slices it solved ride back
    with the result for the parent to write (see
    :func:`repro.orchestrator.workers.end_task`).  The parent runs its
    own Step-2 tasks through :func:`_certify_one` over the run's cache
    instead (see :func:`repro.orchestrator.scheduler.run_scheduled`).
    """
    store, query_cache = open_task(run)
    cache = SummaryCache(run.options, store=store, query_cache=query_cache)
    decoded = summaries_decoded()
    try:
        certification = _certify_one(
            run.pipelines[index],
            run.properties,
            run.input_lengths,
            cache,
            run.max_counterexamples,
            run.confirm_by_replay,
            run.instruction_bounds,
        )
    finally:
        writes = end_task(run)
    return (
        certification,
        cache.statistics.misses,
        summaries_decoded() - decoded,
        writes,
        drain_observability(query_cache),
    )


def certify_fleet(
    pipelines: Sequence[Pipeline],
    properties: Sequence[Property],
    input_lengths: Sequence[int] = (64,),
    workers: int = 1,
    store: Optional[Union[SummaryStore, str]] = None,
    options: Optional[SymbexOptions] = None,
    max_counterexamples: int = 3,
    confirm_by_replay: bool = True,
    instruction_bounds: bool = False,
    verdict_store: Optional[Union[VerdictStore, str]] = None,
    query_store: Optional[Union[QueryStore, str]] = None,
    trace: Union[bool, Tracer, NullTracer, None] = None,
    risk_history=None,
) -> FleetReport:
    """Certify every pipeline in the catalog against every property.

    Both steps run through the dependency-aware scheduler
    (:mod:`repro.orchestrator.scheduler`): Step-2 verification overlaps
    Step-1 symbex, and the parent runs its tasks through one summary
    cache for the whole run.  The effective worker count is
    ``min(requested, os.cpu_count())`` — forking a pool on a host without
    the cores to run it is strictly slower than serial.  One effective
    worker runs every task in the parent and forks nothing; more run
    each Step-2 check that composes nothing in the parent (no fork, no
    pickling) and everything else in at most one pool for the whole
    run.  A ``store`` (path or :class:`SummaryStore`) persists summaries
    across runs — pass the same store twice and the second run performs
    no symbolic execution for an unchanged catalog.  The scheduler reads
    and writes summaries there; an ephemeral one is created when none is
    given and some pipeline needs certifying.

    Work runs in catalog order, or — given a ``risk_history`` (a
    :class:`repro.orchestrator.risk.RiskHistory`) — by churn/verdict
    history, riskiest first, on every worker count.  Either way only the
    order (and the wall clock) moves, never a verdict.

    A ``query_store`` (path or :class:`QueryStore`) persists the query
    cache's L3 tier: sliced solver verdicts and SAT models survive
    across runs, so a warm re-certification performs **zero
    SAT-core calls** for unchanged pipelines — the solver-level analogue
    of the summary store's zero-symbex warm path.  Each worker opens it
    read-only once and ships each task's new entries back for the parent
    to write.

    A ``verdict_store`` (path or :class:`VerdictStore`) turns the run into
    **delta mode**: pipelines whose fingerprint x property-set record
    exists are served whole from the store (labelled
    :data:`DELTA_REUSED`; zero symbolic executions, zero solver checks)
    and only the remainder — changed or never-seen pipelines — is
    verified (labelled :data:`FRESH`) and written back.  Verdicts are
    identical to a cold full pass: the record key covers everything a
    verdict depends on.

    ``trace`` turns on span tracing (:mod:`repro.obs`) for the run:
    ``True`` installs a fresh :class:`~repro.obs.trace.Tracer` scoped to
    this call, or pass your own tracer to accumulate across calls.  Fork
    workers record onto their own (inherited, pid-cleared) buffers and
    ship their spans back with their results; the merged trace holds
    each span exactly once, on one shared monotonic timeline.  With
    ``trace`` unset the run inherits whatever tracer is already active —
    usually the no-op singleton, which costs nothing.
    """
    if isinstance(trace, (Tracer, NullTracer)):
        scope: contextlib.AbstractContextManager = active(trace)
    elif trace:
        scope = active(Tracer())
    else:
        scope = contextlib.nullcontext()
    with scope:
        return _certify_fleet(
            pipelines,
            properties,
            input_lengths,
            workers,
            store,
            options,
            max_counterexamples,
            confirm_by_replay,
            instruction_bounds,
            verdict_store,
            query_store,
            risk_history,
        )


def _certify_fleet(
    pipelines: Sequence[Pipeline],
    properties: Sequence[Property],
    input_lengths: Sequence[int],
    workers: int,
    store: Optional[Union[SummaryStore, str]],
    options: Optional[SymbexOptions],
    max_counterexamples: int,
    confirm_by_replay: bool,
    instruction_bounds: bool,
    verdict_store: Optional[Union[VerdictStore, str]],
    query_store: Optional[Union[QueryStore, str]],
    risk_history=None,
) -> FleetReport:
    """The certification body, running under whatever tracer is active."""
    started = clock()
    options = options or SymbexOptions()
    trace = tracer()
    if trace.enabled and not options.trace:
        # Workers learn the parent is tracing through the options they are
        # forked with; summary/verdict store keys deliberately exclude it.
        options = dataclasses.replace(options, trace=True)
    # More workers than cores is pure overhead (fork + store round trips
    # with no parallelism underneath: 0.87x on a 1-CPU host); clamp to
    # the machine, and one effective worker means no pool at all.
    workers = max(1, min(workers, os.cpu_count() or 1))
    for pipeline in pipelines:
        # Both memoised on the pipeline until its graph changes.
        pipeline.validate()
        entry_of(pipeline)  # fail fast on ambiguous catalogs, in any mode
    report = FleetReport()
    report.statistics.pipelines = len(pipelines)
    report.statistics.properties_checked = len(properties)
    report.statistics.workers = workers
    report.statistics.element_instances = sum(len(p.elements) for p in pipelines)

    if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
        store = SummaryStore(store)
    if isinstance(verdict_store, (str,)) or hasattr(verdict_store, "__fspath__"):
        verdict_store = VerdictStore(verdict_store)
    if isinstance(query_store, (str,)) or hasattr(query_store, "__fspath__"):
        query_store = QueryStore(query_store)
    elif query_store is None and options.query_cache_dir:
        # Each tier is opened once per call, here, and passed down.
        query_store = QueryStore(options.query_cache_dir)
    if query_store is not None:
        # The L3 tier travels as an engine option so worker processes and
        # every engine the caches spawn see the same directory.  The key
        # functions (summary_key, verdict_key) deliberately ignore it.
        options = dataclasses.replace(options, query_cache_dir=str(query_store.root))

    # Delta mode: serve unchanged pipelines straight from the verdict store.
    merged: Dict[int, PipelineCertification] = {}
    record_keys: List[Optional[str]] = [None] * len(pipelines)
    if verdict_store is not None:
        include_tables = options.static_table_mode == StaticTableMode.CONCRETE
        property_set = property_set_fingerprint(properties)
        for index, pipeline in enumerate(pipelines):
            record_keys[index] = verdict_key(
                pipeline_fingerprint(pipeline, include_static_tables=include_tables),
                properties,
                input_lengths,
                options,
                max_counterexamples,
                confirm_by_replay,
                instruction_bounds,
                slots=element_slots(pipeline, properties),
                property_set=property_set,
            )
        # One bulk read instead of a round trip per pipeline: a warm
        # fleet lookup is a handful of chunked queries, not
        # len(pipelines) of them.
        records = verdict_store.load_records(
            [key for key in record_keys if key is not None]
        )
        for index, pipeline in enumerate(pipelines):
            record = records.get(record_keys[index])
            if record is not None:
                # Loaded records are shared (the store's decode memo), and
                # identical pipelines share a digest: each index gets a
                # copy of its own, under its own name.
                merged[index] = record.reused_as(pipeline.name)
    fresh_indices = [index for index in range(len(pipelines)) if index not in merged]
    fresh_pipelines = [pipelines[index] for index in fresh_indices]
    report.statistics.verdicts_reused = len(merged)
    report.statistics.verdicts_fresh = len(fresh_pipelines)

    ephemeral: Optional[tempfile.TemporaryDirectory] = None
    if store is None and fresh_pipelines:
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-fleet-store-")
        store = SummaryStore(ephemeral.name)

    #: Which catalog index's record each key holds.  Identical pipelines
    #: share a key, and the later one in catalog order keeps it, in
    #: whatever order the pool reports their results.
    recorded: Dict[str, int] = {}

    def _record(index: int, certification: PipelineCertification) -> None:
        certification.provenance = FRESH
        key = record_keys[index]
        if verdict_store is None or key is None or recorded.get(key, -1) > index:
            return
        # Unknown verdicts are never recorded (see VerdictStore.save_record).
        if verdict_store.save_record(key, certification):
            recorded[key] = index

    fresh_certifications: List[PipelineCertification] = []
    # Fleet-wide per-tier query-cache counters, the run's one count of
    # solver work: the parent's cache and every pool task fold in here.
    fleet_qstats = QueryCacheStatistics()
    try:
        if fresh_pipelines:
            assert store is not None
            # The scheduler: Step-2 verification overlapping Step-1 symbex,
            # each pool task's summaries written as its result arrives, and
            # each verdict record written as its pipeline's result lands.
            scheduled = run_scheduled(
                fresh_pipelines,
                properties,
                input_lengths,
                options,
                workers,
                store,
                max_counterexamples=max_counterexamples,
                confirm_by_replay=confirm_by_replay,
                instruction_bounds=instruction_bounds,
                risk_history=risk_history,
                qstats=fleet_qstats,
                query_store=query_store,
                on_verified=lambda position, certification: _record(
                    fresh_indices[position], certification
                ),
            )
            report.scheduler = scheduled.statistics
            report.statistics.distinct_summary_jobs = len(scheduled.summaries)
            report.statistics.summaries_computed = scheduled.computed
            report.statistics.store_hits = scheduled.loaded
            for position in range(len(fresh_pipelines)):
                certification, misses = scheduled.step2[position]
                fresh_certifications.append(certification)
                # Step-2 misses are real symbolic executions (lengths Step 1
                # could not discover, e.g. past an exploded element).
                report.statistics.summaries_computed += misses
            if query_store is not None and scheduled.query_rows:
                query_store.merge_shards(scheduled.query_rows)
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()

    merged.update(zip(fresh_indices, fresh_certifications))
    report.certifications = [merged[index] for index in range(len(pipelines))]
    report.statistics.sat_core_calls = fleet_qstats.sat_core_calls
    report.statistics.qcache_hits = fleet_qstats.hits

    for certification in report.certifications:
        if certification.reused:
            # Reused records' statistics describe the run that computed
            # them; this run did no work for these pipelines.
            continue
        for result in certification.results:
            report.statistics.solver_checks += result.statistics.solver_checks
            report.statistics.paths_explored += result.statistics.paths_explored
            report.statistics.paths_merged += result.statistics.paths_merged
            report.statistics.ites_introduced += result.statistics.ites_introduced
            report.statistics.merge_rejected += result.statistics.merge_rejected
            report.statistics.composed_paths_checked += result.statistics.composed_paths_checked
            report.statistics.counterexamples += len(result.counterexamples)
    if query_store is not None and (fleet_qstats.checks or fleet_qstats.slices):
        # Persist the per-tier counters so hit rates accumulate across
        # runs (`repro store stats` reads them back).  The merge pass's
        # counters ride along so the store surfaces path-merging work too.
        metrics = fleet_qstats.to_dict()
        metrics.update(
            paths_explored=report.statistics.paths_explored,
            paths_merged=report.statistics.paths_merged,
            ites_introduced=report.statistics.ites_introduced,
            merge_rejected=report.statistics.merge_rejected,
        )
        query_store.record_metrics(metrics)
    # Deterministic durability point: push every batched write to disk
    # before the report is returned — callers may exit, fork, or re-open
    # the roots immediately.
    for tier in (store, verdict_store, query_store):
        if tier is not None and not isinstance(tier, str):
            tier.flush()
    ended = clock()
    report.statistics.elapsed_seconds = ended - started
    if trace.enabled:
        trace.record_span(
            "fleet.certify",
            "fleet",
            started,
            ended,
            pipelines=len(pipelines),
            properties=len(properties),
            workers=workers,
            fresh=report.statistics.verdicts_fresh,
            reused=report.statistics.verdicts_reused,
        )
    return report
