#!/usr/bin/env python3
"""The verifier's benchmark: cold, warm and delta certification, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_serial --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``fleet_serial``   -- ``fleet_catalog(12)`` with one worker: cold passes in
  fresh stores, warm passes (summary and query stores warm, no verdict
  store), and the six single-change deltas of ``repro.workloads.churn``.
* ``churn_serial``   -- a seeded, cumulative stream of operator changes, each
  re-certified against warm stores; unchanged re-certification; and a cold
  pass of the current catalog whose verdicts must equal the deltas'.
* ``scale_parallel`` -- ``store_scale_catalog(1000)`` with two workers: cold
  passes, unchanged re-certification and single-pipeline replacements.

Every timed operation is bracketed by a reference loop and reported at a
fixed reference speed (``reference.py``).  With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1`` the units of work in
``TRACED_UNITS`` run with the layer wrappers of ``ledger.py`` installed
and the last line holds their per-layer ledger.  The line before it holds
raw seconds, reference seconds and the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter as clock
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_serial", "churn_serial", "scale_parallel")

#: Units of work per workload.  A unit is the smallest slice of a run that
#: contains every kind of timed operation, so each metric sees the whole run.
FLEET_COUNT = 12
FLEET_WARM_BATCH = 8
CHURN_WARM_BATCH = 20
SCALE_COUNT = 1000
SCALE_WARM_BATCH = 2
SCALE_DELTAS = 4
#: Units (with their set-up probes) over which ``peak_rss_mb`` is measured.
RSS_UNITS = 3
#: Units that run traced with ``--trace 1``; ``trace.overhead_s`` compares
#: each with the untraced unit before it.  A fixed set, so the per-layer
#: figures cover the same work however fast the host runs.  Unit 0 pays the
#: process's first-use costs, so it is neither traced nor compared.
TRACED_UNITS = (2, 4)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source under {ROOT / 'src' / 'repro'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def filesystem_of(path: Path) -> str:
    """The type of the filesystem holding ``path``, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3 or len(fields[1]) <= len(best):
                    continue
                if str(path).startswith(fields[1]):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


class Timings:
    """Timed operations, each followed by a reference point, and their normalised seconds.

    Every operation is reported at the reference speed given by the median
    of its nearest points (``reference.normalised``): the ``WINDOW`` points
    before it and as many after it.  A single few-millisecond point can
    read a third fast while the operation beside it runs at the usual
    speed; the median of its neighbours follows the host's speed without
    following such a point.

    A point has a one-core value, spun in this process, and, when the
    workload certifies on two workers, a two-core value spun by both
    helpers at once.  An operation is normalised by the kind that matches
    it: the two-core value when it ran a worker pool.  Operations of one
    batch form a single sample: the mean of their normalised seconds.
    """

    WINDOW = 6

    def __init__(self, cores: int) -> None:
        from perfbench.reference import OneCoreReference, TwoCoreReference

        self.one = OneCoreReference()
        self.two = TwoCoreReference() if cores > 1 else None
        self.refs = {False: [], True: []}
        self._point()
        self.ops: list = []
        self._batches = 0

    def _point(self) -> None:
        self.refs[False].append(self.one.measure())
        self.refs[True].append(self.two.measure() if self.two else self.refs[False][-1])

    def close(self) -> None:
        if self.two is not None:
            self.two.close()

    def new_batch(self) -> int:
        self._batches += 1
        return self._batches

    def record(self, metric: str, raw: float, batch=None, parallel: bool = False) -> None:
        """Record an operation that just ended, and the reference point after it."""
        self._point()
        self.ops.append((metric, raw, len(self.refs[False]) - 1, batch, parallel))

    def normalised_seconds(self) -> list:
        """Each operation's seconds at the reference speed, in order."""
        from perfbench.reference import normalised

        return [
            normalised(raw, statistics.median(
                self.refs[parallel][max(0, after - self.WINDOW):after + self.WINDOW]))
            for _metric, raw, after, _batch, parallel in self.ops
        ]

    def series(self, normalised: bool = True) -> dict:
        """Samples per metric: normalised seconds, or the raw ones."""
        seconds = self.normalised_seconds() if normalised else [op[1] for op in self.ops]
        series: dict = {}
        batches: dict = {}
        for (metric, _raw, _after, batch, _parallel), value in zip(self.ops, seconds):
            if batch is None:
                series.setdefault(metric, []).append(value)
            else:
                batches.setdefault((metric, batch), []).append(value)
        for (metric, _batch), values in sorted(batches.items()):
            series.setdefault(metric, []).append(sum(values) / len(values))
        return series


class Outcome:
    """Operations attempted and failed against the known answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


class Run:
    """State shared by the three workloads."""

    def __init__(self, workload: str, seed: int, work: Path, trace: bool) -> None:
        from perfbench import catalogs, ledger

        self.workload = workload
        self.catalogs = catalogs
        self.ledger_module = ledger
        self.rng = random.Random(seed)
        self.seed = seed
        self.work = work
        self.trace = trace
        self.props = catalogs.properties()
        self.outcome = Outcome()
        self.counters: dict = {}
        self.serial = 0
        # Trace mode: the ledger of traced units and their program counters.
        self.ledger = ledger.Ledger()
        #: Each unit's timed operations, as a slice of ``timings.ops``.
        self.units: list = []
        self.traced = False
        self.traced_report_stats: dict = {}
        self.scheduler_cpu = [0.0, 0.0]
        self.ring_overflow = False
        self.timings: Optional[Timings] = None

    def fresh_dir(self) -> Path:
        self.serial += 1
        path = self.work / f"stores-{self.serial}"
        path.mkdir(parents=True)
        return path

    # -- one timed operation ---------------------------------------------------------

    def certify(self, metric: str, call, batch=None, **kwargs):
        """Run and time one certification call; returns (raw seconds, result or None)."""
        from repro.obs.trace import Tracer

        workers = kwargs.get("workers", 1)
        tracer = None
        if self.traced and workers > 1:
            # Worker ledgers travel back as spans on the program's tracer.
            tracer = Tracer()
            kwargs["trace"] = tracer
        cpu = time.process_time()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = clock()
        try:
            if self.traced:
                with self.ledger.root():
                    result = call(**kwargs)
            else:
                result = call(**kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            result = None
            self.outcome.record([f"{type(exc).__name__}: {exc}"])
        raw = clock() - started
        report = getattr(result, "report", result)
        # A pool ran only if something was certified fresh on two workers.
        parallel = report is not None and report.scheduler is not None
        self.timings.record(metric, raw, batch, parallel)
        if result is None:
            return raw, None
        if self.traced and workers > 1:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.scheduler_cpu[0] += time.process_time() - cpu
            self.scheduler_cpu[1] += (after.ru_utime + after.ru_stime) - (
                children.ru_utime + children.ru_stime
            )
            spans = tracer.spans()
            if len(spans) >= tracer.capacity:
                self.ring_overflow = True
            self.ledger_module.ingest_worker_spans(self.ledger, spans)
        self._count(report)
        return raw, result

    def _count(self, report) -> None:
        stats = report.statistics.to_dict()
        if report.scheduler is not None:
            stats["scheduler_tasks"] = report.scheduler.tasks_dispatched
            stats["scheduler_retries"] = report.scheduler.tasks_retried
        for name, value in stats.items():
            if isinstance(value, int) and not isinstance(value, bool):
                self.counters[name] = self.counters.get(name, 0) + value
                if self.traced:
                    self.traced_report_stats[name] = self.traced_report_stats.get(name, 0) + value

    def check(self, report) -> None:
        if report is None:
            return  # already recorded as failed
        # An ``unknown`` verdict never matches the table, so it fails too.
        self.outcome.record(self.catalogs.verdict_mismatches(report))

    # -- units -----------------------------------------------------------------------

    def unit(self, body) -> None:
        """One unit of work; in trace mode the units of TRACED_UNITS run traced."""
        self.traced = self.trace and len(self.units) in TRACED_UNITS
        patches = self.ledger_module.install(self.ledger) if self.traced else None
        first = len(self.timings.ops)
        try:
            body()
        finally:
            if patches is not None:
                self.ledger_module.uninstall(patches)
        self.units.append(slice(first, len(self.timings.ops)))
        self.traced = False


# -- workloads --------------------------------------------------------------------------


class FleetSerial:
    """``fleet_catalog(12)``: the symbex- and SMT-heavy workload."""

    cores = 1
    #: Set-up probes per run.  Each workload spends about 4-5 s of a run on
    #: them; this one's probe (imports and catalog, ~0.6 s) is the shortest.
    setup_probes = 7

    def __init__(self, run: Run, size: int = FLEET_COUNT) -> None:
        from repro.orchestrator import catalog_manifest
        from repro.workloads import fleet_catalog

        self.run = run
        self.size = size
        self.catalog = fleet_catalog(size)
        self.manifest = catalog_manifest(self.catalog)

    def _deltas(self):
        """The six single-change deltas of ``repro.workloads.churn``, seeded."""
        from repro.workloads import CHURN_MUTATIONS, churned_fleet_catalog

        rng = self.run.rng
        kinds = sorted(CHURN_MUTATIONS)
        rng.shuffle(kinds)
        routers = {"routes": (0, 1, 2), "rename": (0, 1, 2), "rewire": (1, 2), "options": (2,)}
        for kind in kinds:
            if kind in routers:
                target = 6 * rng.randrange(self.size // 6) + rng.choice(routers[kind])
            else:
                target = rng.randrange(self.size)
            yield churned_fleet_catalog(self.size, kind, target=target)

    def __call__(self) -> None:
        from repro.orchestrator import certify_fleet, recertify

        run, lengths = self.run, self.run.catalogs.INPUT_LENGTHS
        root = run.fresh_dir()
        stores = dict(store=str(root / "s"), query_store=str(root / "q"))
        gc.collect()
        _raw, cold = run.certify(
            "cold_s", certify_fleet, pipelines=self.catalog, properties=run.props,
            input_lengths=lengths, verdict_store=str(root / "v"), **stores,
        )
        run.check(cold)
        gc.collect()
        batch = run.timings.new_batch()
        for _ in range(FLEET_WARM_BATCH):
            _raw, warm = run.certify(
                "warm_s", certify_fleet, batch=batch, pipelines=self.catalog,
                properties=run.props, input_lengths=lengths, **stores,
            )
            run.check(warm)
        for catalog in self._deltas():
            _raw, result = run.certify(
                "delta", recertify, pipelines=catalog, properties=run.props,
                baseline=self.manifest, input_lengths=lengths, verdict_store=str(root / "v"),
                **stores,
            )
            run.check(result and result.report)
        shutil.rmtree(root)


class ChurnSerial:
    """A closed loop of operator changes, each re-certified against warm stores."""

    cores = 1
    setup_probes = 3

    def __init__(self, run: Run, size: int = FLEET_COUNT, changes: Optional[int] = None) -> None:
        from repro.orchestrator import recertify

        self.run = run
        # One deck of changes per unit: every unit applies the same mix.
        self.changes = run.catalogs.DECK_SIZE if changes is None else changes
        self.stream = run.catalogs.ChurnStream(run.seed, size)
        self.root = run.fresh_dir()
        self.stores = dict(
            store=str(self.root / "s"), verdict_store=str(self.root / "v"),
            query_store=str(self.root / "q"),
        )
        base = recertify(
            self.stream.catalog(), run.props, input_lengths=run.catalogs.INPUT_LENGTHS,
            **self.stores,
        )
        run.check(base.report)
        self.manifest = base.manifest
        self.last = base.report
        self.kinds: dict = {}

    def __call__(self) -> None:
        from repro.orchestrator import certify_fleet, recertify

        run, lengths = self.run, self.run.catalogs.INPUT_LENGTHS
        gc.collect()
        for _ in range(self.changes):
            kind = self.stream.step()
            raw, result = run.certify(
                "delta", recertify, pipelines=self.stream.catalog(), properties=run.props,
                baseline=self.manifest, input_lengths=lengths, **self.stores,
            )
            if result is not None:
                self.manifest, self.last = result.manifest, result.report
                run.check(result.report)
            self.kinds.setdefault(kind, []).append(raw)
        catalog = self.stream.catalog()
        batch = run.timings.new_batch()
        for _ in range(CHURN_WARM_BATCH):
            _raw, result = run.certify(
                "warm_s", recertify, batch=batch, pipelines=catalog, properties=run.props,
                baseline=self.manifest, input_lengths=lengths, **self.stores,
            )
            run.check(result and result.report)
        # A cold pass of the current catalog in fresh stores: its verdicts
        # must equal the delta path's, or a store key misses a field.
        root = run.fresh_dir()
        gc.collect()
        _raw, cold = run.certify(
            "cold_s", certify_fleet, pipelines=catalog, properties=run.props,
            input_lengths=lengths, store=str(root / "s"), query_store=str(root / "q"),
            verdict_store=str(root / "v"),
        )
        run.check(cold)
        if cold is not None and self.last is not None:
            differ = [
                f"delta {a} != cold {b}"
                for a, b in zip(self.last.verdicts(), cold.verdicts()) if a != b
            ]
            if len(self.last.verdicts()) != len(cold.verdicts()):
                differ.append("delta and cold passes certified different catalogs")
            run.outcome.record(differ)
        shutil.rmtree(root)


class ScaleParallel:
    """``store_scale_catalog(1000)`` on two workers: scheduler, store and IPC bound."""

    cores = 2
    workers = 2
    setup_probes = 3

    def __init__(self, run: Run, size: int = SCALE_COUNT, deltas: int = SCALE_DELTAS) -> None:
        from repro.orchestrator import catalog_manifest
        from repro.workloads import store_scale_catalog

        self.run = run
        self.deltas = deltas
        self.catalog = store_scale_catalog(size)
        self.manifest = catalog_manifest(self.catalog)

    def __call__(self) -> None:
        from repro.orchestrator import certify_fleet, recertify

        run, lengths = self.run, self.run.catalogs.INPUT_LENGTHS
        root = run.fresh_dir()
        stores = dict(
            store=str(root / "s"), verdict_store=str(root / "v"), query_store=str(root / "q"),
            workers=self.workers,
        )
        gc.collect()
        _raw, cold = run.certify(
            "cold_s", certify_fleet, pipelines=self.catalog, properties=run.props,
            input_lengths=lengths, **stores,
        )
        run.check(cold)
        gc.collect()
        batch = run.timings.new_batch()
        for _ in range(SCALE_WARM_BATCH):
            _raw, result = run.certify(
                "warm_s", recertify, batch=batch, pipelines=self.catalog, properties=run.props,
                baseline=self.manifest, input_lengths=lengths, **stores,
            )
            run.check(result and result.report)
        catalog, manifest = self.catalog, self.manifest
        for _ in range(self.deltas):
            catalog = run.catalogs.scale_replacement(run.rng, catalog)
            _raw, result = run.certify(
                "delta", recertify, pipelines=catalog, properties=run.props, baseline=manifest,
                input_lengths=lengths, **stores,
            )
            if result is not None:
                manifest = result.manifest
                run.check(result.report)
        shutil.rmtree(root)


WORKLOAD_CLASSES = {
    "fleet_serial": FleetSerial,
    "churn_serial": ChurnSerial,
    "scale_parallel": ScaleParallel,
}


# -- set-up time ------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, work: Path) -> int:
    """Child mode: the workload's set-up only (imports, catalogs, base certification)."""
    _import_program()
    run = Run(workload, seed, work, trace=False)
    WORKLOAD_CLASSES[workload](run)
    return 0 if run.outcome.failed == 0 else 1


def time_setup(workload: str, seed: int, work: Path) -> float:
    probe_work = work / f"probe-{seed}"
    started = clock()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--work", str(probe_work)],
        cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    raw = clock() - started
    shutil.rmtree(probe_work, ignore_errors=True)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    return raw


# -- metrics ----------------------------------------------------------------------------


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def peak_rss_mb() -> float:
    """The larger ``ru_maxrss`` of this process and its largest waited-for child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def end_to_end(timings: Timings, peak_mb: float) -> dict:
    samples = timings.series()
    return {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "cold_s": (statistics.median(samples["cold_s"]), "s"),
        "warm_s": (statistics.median(samples["warm_s"]), "s"),
        "delta_p50_s": (statistics.median(samples["delta"]), "s"),
        "delta_p90_s": (percentile_90(samples["delta"]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


#: ledger layer -> per-layer metric name.
SELF_TIME_METRICS = {
    "symbex.engine": "symbex.engine.self_s",
    "symbex.merge": "symbex.merge.self_s",
    "smt.context": "smt.context.self_s",
    "smt.qcache": "smt.qcache.self_s",
    "smt.model": "smt.model.self_s",
    "smt.terms.free_vars": "smt.terms.free_vars_s",
    "smt.interval": "smt.interval.self_s",
    "smt.slicing": "smt.slicing.self_s",
    "smt.simplify": "smt.simplify.self_s",
    "smt.bitblast": "smt.bitblast.self_s",
    "smt.satcore": "smt.satcore.self_s",
    "verify.pipeline": "verify.pipeline.self_s",
    "verify.composition": "verify.composition.self_s",
    "dataplane.driver": "dataplane.driver.self_s",
    "dataplane.fingerprint": "dataplane.fingerprint.self_s",
    "orchestrator.fleet": "orchestrator.fleet.self_s",
    "orchestrator.impact": "orchestrator.impact.self_s",
    "orchestrator.store.open": "orchestrator.store.open_s",
    "orchestrator.store.read": "orchestrator.store.read_s",
    "orchestrator.store.write": "orchestrator.store.write_s",
    "orchestrator.serialize": "orchestrator.serialize.self_s",
    "orchestrator.verdicts": "orchestrator.verdicts.self_s",
    "orchestrator.scheduler": "orchestrator.scheduler.self_s",
    "orchestrator.scheduler.pool": "orchestrator.scheduler.pool_s",
    "orchestrator.scheduler.dispatch": "orchestrator.scheduler.dispatch_s",
    "orchestrator.scheduler.wait": "orchestrator.scheduler.wait_s",
    "orchestrator.scheduler.merge": "orchestrator.scheduler.merge_s",
    "unattributed": "unattributed_s",
}

#: ledger call count -> per-layer metric name.
COUNT_METRICS = {
    "symbex.engine.elements": "symbex.engine.elements",
    "symbex.engine.exploded": "symbex.engine.exploded",
    "smt.model.calls": "smt.model.calls",
    "smt.terms.intern_calls": "smt.terms.intern_calls",
    "smt.satcore.calls": "smt.satcore.calls",
    "orchestrator.store.puts": "orchestrator.store.puts",
    "orchestrator.store.quarantined": "orchestrator.store.quarantined",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger_check(run: Run) -> list:
    """Ledger integrity: the sum, the cross-checked counts, no dropped spans."""
    ledger, stats = run.ledger, run.traced_report_stats
    problems = []
    total = sum(ledger.seconds.values())
    wall = ledger.wall + ledger.worker_wall
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"self times sum to {total!r} s, traced wall is {wall!r} s")
    pairs = [
        ("smt.satcore.calls", "sat_core_calls"),
        ("symbex.engine.elements", "summaries_computed"),
        ("orchestrator.scheduler.dispatched", "scheduler_tasks"),
    ]
    for counted, reported in pairs:
        extra = ledger.counts.get("symbex.engine.exploded", 0) if counted.startswith("symbex") else 0
        if ledger.counts.get(counted, 0) != stats.get(reported, 0) + extra:
            problems.append(
                f"wrapper count {counted}={ledger.counts.get(counted, 0)} but the program "
                f"reports {reported}={stats.get(reported, 0)}"
            )
    if run.ring_overflow:
        problems.append("the tracer's ring buffer filled up; worker ledger spans may be lost")
    return problems


def per_layer(run: Run, timings: Timings) -> dict:
    from perfbench.reference import normalised

    ledger, stats = run.ledger, run.traced_report_stats
    units = len(TRACED_UNITS)
    # Ledger seconds are normalised by the run's median one-core point.
    factor = normalised(1.0, statistics.median(timings.refs[False]))
    # A unit's wall sums its operations' normalised seconds: the host's
    # speed differs from one unit to the next by more than tracing costs.
    seconds = timings.normalised_seconds()
    walls = [sum(seconds[unit]) for unit in run.units]
    metrics = {}
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = (ledger.seconds.get(layer, 0.0) * factor / units, "s")
    for counted, name in COUNT_METRICS.items():
        metrics[name] = (ledger.counts.get(counted, 0) / units, "count")
    counts = ledger.counts
    metrics.update({
        "symbex.engine.paths": (stats.get("paths_explored", 0) / units, "count"),
        "symbex.merge.accept_ratio": (_ratio(
            stats.get("paths_merged", 0),
            stats.get("paths_merged", 0) + stats.get("merge_rejected", 0)), "ratio"),
        "smt.qcache.hit_ratio": (_ratio(
            counts.get("smt.qcache.hits", 0), counts.get("smt.qcache.slices", 0)), "ratio"),
        "verify.composition.paths": (stats.get("composed_paths_checked", 0) / units, "count"),
        "verify.solver_checks": (stats.get("solver_checks", 0) / units, "count"),
        "orchestrator.store.hit_ratio": (_ratio(
            counts.get("orchestrator.store.found", 0),
            counts.get("orchestrator.store.reads", 0)), "ratio"),
        "orchestrator.verdicts.reuse_ratio": (_ratio(
            stats.get("verdicts_reused", 0), stats.get("pipelines", 0)), "ratio"),
        "orchestrator.scheduler.parent_cpu_s": (run.scheduler_cpu[0] * factor / units, "s"),
        "orchestrator.scheduler.worker_cpu_s": (run.scheduler_cpu[1] * factor / units, "s"),
        "orchestrator.scheduler.tasks": (stats.get("scheduler_tasks", 0) / units, "count"),
        "orchestrator.scheduler.retries": (stats.get("scheduler_retries", 0) / units, "count"),
        "trace.wall_s": (ledger.wall * factor / units, "s"),
        "trace.worker_wall_s": (ledger.worker_wall * factor / units, "s"),
        "trace.overhead_s": (statistics.mean(
            walls[index] - walls[index - 1] for index in TRACED_UNITS), "s"),
    })
    return metrics


# -- running a workload -----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 units=None, size=None) -> dict:
    """Run one workload; returns the result line plus details.

    ``units`` fixes the number of units instead of the time budget (the
    benchmark's own tests use it for exact-repeat checks); ``size``
    shrinks the catalog for those quick runs.
    """
    _import_program()
    run = Run(workload, seed, work, trace)
    cls = WORKLOAD_CLASSES[workload]
    body = cls(run) if size is None else cls(run, size)
    timings = run.timings = Timings(cls.cores)
    try:
        probes = 0 if trace else min(cls.setup_probes, units or cls.setup_probes)
        started = clock()
        done = 0
        peak_mb = 0.0
        while True:
            run.unit(body)
            done += 1
            if probes and done <= probes:
                timings.record("setup_s", time_setup(workload, seed, work))
            if done <= RSS_UNITS:
                # The high-water mark creeps up with every unit, and the
                # number of units depends on the host's speed: memory is
                # measured over a fixed amount of work.
                peak_mb = peak_rss_mb()
            finished = done >= units if units is not None else clock() - started >= seconds
            if finished and done >= probes and (not trace or done > max(TRACED_UNITS)):
                break
    finally:
        timings.close()
    problems = ledger_check(run) if trace else []
    correct = run.outcome.failed == 0 and not problems
    measured = per_layer(run, timings) if trace else end_to_end(timings, peak_mb)
    details = {
        "workload": workload,
        "seed": seed,
        "store_filesystem": filesystem_of(work),
        "reference_s": {
            f"{cores}_core": {
                "median": statistics.median(timings.refs[cores > 1]),
                "min": min(timings.refs[cores > 1]),
                "max": max(timings.refs[cores > 1]),
            }
            for cores in sorted({1, cls.cores})
        },
        "reference_points": len(timings.refs[False]),
        "raw_median_s": {
            k: statistics.median(v) for k, v in timings.series(normalised=False).items()
        },
        "samples": {k: len(v) for k, v in timings.series(normalised=False).items()},
        "counters": run.counters,
        "problems": (run.outcome.problems + problems)[:10],
    }
    if workload == "churn_serial":
        details["changes_by_kind"] = {
            kind: {"count": len(raws), "median_raw_s": statistics.median(raws)}
            for kind, raws in sorted(body.kinds.items())
        }
    if trace:
        details["ledger_counts"] = dict(sorted(run.ledger.counts.items()))
    return {
        "details": details,
        "result": {
            "correct": correct,
            "attempted": run.outcome.attempted,
            "failed": run.outcome.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in measured.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except FileNotFoundError as exc:
        return _fail(str(exc))
    if args.setup_probe:
        work = Path(args.work)
        try:
            return setup_probe(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps({"perfbench": outcome["details"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
