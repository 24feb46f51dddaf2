"""Per-layer self time, measured from outside the program.

:func:`install` wraps public entry points of the program's modules (every
binding of each function, so a ``from … import`` copy is wrapped too) and
charges the time spent inside each to a layer named after its module
under ``src/repro/``.  A layer's *self* time is the time inside its
entry points minus the time inside other wrapped entry points they call,
so the self times of all layers, plus the self time of the root frames
the benchmark opens around each operation (``unattributed``), add up to
the wall time of those operations exactly.

Fork workers inherit the wrappers.  A worker starts an empty ledger,
treats each task it runs as a root, and before the program ships the
task's observability output back (``drain_observability``) it records
its totals as one span on the program's tracer; the parent reads those
spans back with :func:`ingest_worker_spans`.

Hot entry points (``mk_term``, ``Model.evaluate``, ``free_variables``)
are aggregated into counters and sums here, never recorded as spans, so
the tracer's bounded ring buffer cannot drop them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter as clock
from typing import Dict, List, Optional

ROOT_LAYER = "unattributed"
SPAN_NAME = "perfbench.ledger"


class Ledger:
    """Self seconds per layer and call counts, for one process."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: Elapsed time of bottom-most frames: the wall the seconds split.
        self.wall = 0.0
        self.worker_wall = 0.0
        self.stack: List[list] = []
        self.in_worker = False

    def clear(self) -> None:
        self.seconds = {}
        self.counts = {}
        self.wall = 0.0
        self.worker_wall = 0.0
        self.stack = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def leave(self, layer: str, frame: list) -> None:
        end = clock()
        self.stack.pop()
        elapsed = end - frame[0]
        self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed
        else:
            self.wall += elapsed

    @contextmanager
    def root(self):
        """A root frame around one operation the benchmark times."""
        frame = [clock(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.leave(ROOT_LAYER, frame)

    def ship(self, tracer) -> None:
        """Worker side: record the totals so far as one span, then reset.

        Called with only the task's root frame open; the root is closed
        up to now and reopened, so shipped records always balance.
        """
        if len(self.stack) != 1:
            return
        frame = self.stack[0]
        now = clock()
        elapsed = now - frame[0]
        self.seconds[ROOT_LAYER] = self.seconds.get(ROOT_LAYER, 0.0) + elapsed - frame[1]
        self.wall += elapsed
        frame[0], frame[1] = now, 0.0
        tracer.record_span(
            SPAN_NAME, "perfbench", now, now,
            seconds=self.seconds, counts=self.counts, wall=self.wall,
        )
        self.seconds, self.counts, self.wall = {}, {}, 0.0

    def ingest(self, args: dict) -> None:
        """Parent side: fold one shipped worker record in."""
        for layer, seconds in args["seconds"].items():
            self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
        for name, amount in args["counts"].items():
            self.count(name, amount)
        self.worker_wall += args["wall"]


_ACTIVE: Optional[Ledger] = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.clear()
        _ACTIVE.in_worker = True


os.register_at_fork(after_in_child=_after_fork_in_child)


# -- wrappers ---------------------------------------------------------------------------


def _timed(fn, layer: str, calls: Optional[str] = None):
    if inspect.isgeneratorfunction(fn):
        return _timed_generator(fn, layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ledger = _ACTIVE
        if calls is not None:
            ledger.count(calls)
        frame = [clock(), 0.0]
        ledger.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.leave(layer, frame)

    return wrapper


def _timed_generator(fn, layer: str):
    """Charge the time of each resumption: a generator's work happens there."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        generator = fn(*args, **kwargs)
        try:
            while True:
                ledger = _ACTIVE
                frame = [clock(), 0.0]
                ledger.stack.append(frame)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    ledger.leave(layer, frame)
                yield item
        finally:
            generator.close()

    return wrapper


def _counted(fn, calls: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = _ACTIVE.counts
        counts[calls] = counts.get(calls, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _summarize_element(fn):
    from repro.symbex.errors import PathExplosionError

    timed = _timed(fn, "symbex.engine", "symbex.engine.elements")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return timed(*args, **kwargs)
        except PathExplosionError:
            _ACTIVE.count("symbex.engine.exploded")
            raise

    return wrapper


def _qcache_check(fn):
    timed = _timed(fn, "smt.qcache")

    @functools.wraps(fn)
    def wrapper(cache, *args, **kwargs):
        stats = cache.statistics
        hits, slices = stats.hits, stats.slices
        try:
            return timed(cache, *args, **kwargs)
        finally:
            _ACTIVE.count("smt.qcache.hits", stats.hits - hits)
            _ACTIVE.count("smt.qcache.slices", stats.slices - slices)

    return wrapper


def _read_entry(fn):
    timed = _timed(fn, "orchestrator.store.read")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        text = timed(*args, **kwargs)
        _ACTIVE.count("orchestrator.store.reads")
        if text is not None:
            _ACTIVE.count("orchestrator.store.found")
        return text

    return wrapper


def _read_entries(fn):
    timed = _timed(fn, "orchestrator.store.read")

    @functools.wraps(fn)
    def wrapper(store, digests, *args, **kwargs):
        digests = list(digests)
        found = timed(store, digests, *args, **kwargs)
        _ACTIVE.count("orchestrator.store.reads", len(digests))
        _ACTIVE.count("orchestrator.store.found", len(found))
        return found

    return wrapper


def _drain_observability(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _ACTIVE.in_worker:
            from repro.obs.trace import tracer

            _ACTIVE.ship(tracer())
        return fn(*args, **kwargs)

    return wrapper


def _timer(layer, calls=None):
    return lambda fn: _timed(fn, layer, calls)


_STORE = "repro.orchestrator.store"
_SCHEDULER = "repro.orchestrator.scheduler"
_FINGERPRINT = "repro.dataplane.fingerprint"

#: (module, qualified name, wrapper factory).  Layers are module names
#: under ``src/repro/``; see README.md for the metric each one feeds.
ENTRY_POINTS = [
    ("repro.symbex.engine", "SymbolicEngine.summarize_element", _summarize_element),
    ("repro.symbex.merge", "merge_states", _timer("symbex.merge")),
    ("repro.smt.context", "SolverContext.check_assumptions", _timer("smt.context")),
    ("repro.smt.context", "SolverContext._solve_assumptions", _timer("smt.context")),
    ("repro.smt.qcache", "QueryCache.check", _qcache_check),
    ("repro.smt.model", "Model.evaluate", _timer("smt.model", "smt.model.calls")),
    ("repro.smt.terms", "Term.free_variables", _timer("smt.terms.free_vars")),
    ("repro.smt.terms", "mk_term", lambda fn: _counted(fn, "smt.terms.intern_calls")),
    ("repro.smt.interval", "quick_check", _timer("smt.interval")),
    ("repro.smt.slicing", "partition", _timer("smt.slicing")),
    ("repro.smt.slicing", "arena_order", _timer("smt.slicing")),
    ("repro.smt.slicing", "free_variable_names", _timer("smt.slicing")),
    ("repro.smt.simplify", "simplify", _timer("smt.simplify")),
    ("repro.smt.bitblast", "BitBlaster.blast_bool", _timer("smt.bitblast")),
    ("repro.smt.bitblast", "BitBlaster.blast_bv", _timer("smt.bitblast")),
    ("repro.smt.satcore", "ArraySolver.solve", _timer("smt.satcore", "smt.satcore.calls")),
    ("repro.verify.pipeline_verifier", "PipelineVerifier.verify", _timer("verify.pipeline")),
    ("repro.verify.composition", "CompositionEngine.find_violations",
     _timer("verify.composition")),
    ("repro.dataplane.driver", "PipelineDriver.inject", _timer("dataplane.driver")),
    (_FINGERPRINT, "program_fingerprint", _timer("dataplane.fingerprint")),
    (_FINGERPRINT, "static_table_fingerprints", _timer("dataplane.fingerprint")),
    (_FINGERPRINT, "configuration_fingerprint", _timer("dataplane.fingerprint")),
    (_FINGERPRINT, "element_fingerprint_parts", _timer("dataplane.fingerprint")),
    (_FINGERPRINT, "canonical_elements", _timer("dataplane.fingerprint")),
    (_FINGERPRINT, "wiring_fingerprint", _timer("dataplane.fingerprint")),
    (_FINGERPRINT, "pipeline_fingerprint", _timer("dataplane.fingerprint")),
    ("repro.orchestrator.fleet", "certify_fleet", _timer("orchestrator.fleet")),
    ("repro.orchestrator.impact", "recertify", _timer("orchestrator.impact")),
    ("repro.orchestrator.impact", "catalog_manifest", _timer("orchestrator.impact")),
    ("repro.orchestrator.impact", "diff_manifests", _timer("orchestrator.impact")),
    (_STORE, "Store.__init__", _timer("orchestrator.store.open")),
    (_STORE, "Store.read_entry", _read_entry),
    (_STORE, "Store.read_entries", _read_entries),
    (_STORE, "SummaryStore.load", _timer("orchestrator.store.read")),
    (_STORE, "SummaryStore.load_digest", _timer("orchestrator.store.read")),
    (_STORE, "SummaryStore.load_digests", _timer("orchestrator.store.read")),
    (_STORE, "QueryStore.contains", _timer("orchestrator.store.read")),
    (_STORE, "QueryStore.load_payload", _timer("orchestrator.store.read")),
    (_STORE, "Store.write_entry", _timer("orchestrator.store.write", "orchestrator.store.puts")),
    (_STORE, "Store.flush", _timer("orchestrator.store.write")),
    (_STORE, "Store.close", _timer("orchestrator.store.write")),
    (_STORE, "SummaryStore.save", _timer("orchestrator.store.write")),
    (_STORE, "SummaryStore.save_digest", _timer("orchestrator.store.write")),
    (_STORE, "QueryStore.save_payload", _timer("orchestrator.store.write")),
    (_STORE, "Store.quarantine_entry",
     _timer("orchestrator.store.write", "orchestrator.store.quarantined")),
    (_STORE, "Store.merge_shards", _timer("orchestrator.scheduler.merge")),
    ("repro.orchestrator.serialize", "dumps_summary", _timer("orchestrator.serialize")),
    ("repro.orchestrator.serialize", "loads_summary", _timer("orchestrator.serialize")),
    ("repro.orchestrator.verdicts", "verdict_key", _timer("orchestrator.verdicts")),
    ("repro.orchestrator.verdicts", "VerdictStore.load_record", _timer("orchestrator.verdicts")),
    ("repro.orchestrator.verdicts", "VerdictStore.load_records", _timer("orchestrator.verdicts")),
    ("repro.orchestrator.verdicts", "VerdictStore.save_record", _timer("orchestrator.verdicts")),
    (_SCHEDULER, "run_scheduled", _timer("orchestrator.scheduler")),
    (_SCHEDULER, "PersistentPool.__init__", _timer("orchestrator.scheduler.pool")),
    (_SCHEDULER, "PersistentPool.shutdown", _timer("orchestrator.scheduler.pool")),
    (_SCHEDULER, "PersistentPool.dispatch",
     _timer("orchestrator.scheduler.dispatch", "orchestrator.scheduler.dispatched")),
    (_SCHEDULER, "PersistentPool.next_event", _timer("orchestrator.scheduler.wait")),
    # Worker task bodies: the roots of a worker's ledger.
    ("repro.orchestrator.workers", "_summarize_worker", _timer(ROOT_LAYER)),
    ("repro.orchestrator.fleet", "_certify_worker", _timer(ROOT_LAYER)),
    ("repro.orchestrator.workers", "drain_observability", _drain_observability),
]


class Patches:
    """The installed wrappers, restorable."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def _wrap_everywhere(patches: Patches, module_name: str, qualname: str, factory) -> None:
    module = importlib.import_module(module_name)
    if "." in qualname:
        owner_name, attribute = qualname.split(".")
        owner = getattr(module, owner_name)
        original = owner.__dict__[attribute]
        wrapper = factory(original)
        # Aliases in the class body (``check = check_assumptions``) too.
        for name, value in list(owner.__dict__.items()):
            if value is original:
                patches.replace(owner, name, wrapper)
        return
    original = getattr(module, qualname)
    wrapper = factory(original)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
            continue
        for name, value in list(vars(loaded).items()):
            if value is original:
                patches.replace(loaded, name, wrapper)


def install(ledger: Ledger) -> Patches:
    """Wrap every entry point so calls are charged to ``ledger``."""
    global _ACTIVE
    _ACTIVE = ledger
    patches = Patches()
    try:
        for module_name, qualname, factory in ENTRY_POINTS:
            _wrap_everywhere(patches, module_name, qualname, factory)
    except BaseException:
        patches.restore()
        _ACTIVE = None
        raise
    return patches


def uninstall(patches: Patches) -> None:
    global _ACTIVE
    patches.restore()
    _ACTIVE = None


def ingest_worker_spans(ledger: Ledger, spans) -> int:
    """Fold every worker record found among ``spans``; returns how many."""
    shipped = 0
    for span in spans:
        if span.name == SPAN_NAME and span.pid != os.getpid():
            ledger.ingest(span.args)
            shipped += 1
    return shipped
