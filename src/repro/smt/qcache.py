"""The tiered query cache: memoize sliced satisfiability queries across checks.

Sits between :class:`repro.smt.context.SolverContext` and its CDCL
core.  A query — a list of simplified boolean terms — is partitioned
into independent slices (:mod:`repro.smt.slicing`) and each slice is
answered by the cheapest of three tiers that can:

* **L1 exact** — verdict + model keyed by the slice's sorted term-uid
  tuple.  The dominant hit: sibling paths and composed routes re-ask the
  same slices endlessly.
* **Model reuse** — a model that evaluates the slice to true
  (:mod:`repro.smt.evaluate`) answers SAT without touching a solver:
  first the all-zeros and all-ones probes, then the recently produced
  models, newest first.  A model evaluates each term node once in its
  life (its node memo), so conjuncts that share subterms cost little.
* **L3 persistent** — an on-disk store keyed by a *structural*
  fingerprint of the slice (term uids are process-local; the fingerprint
  is a sha256 over per-term structural digests), so a warm
  re-certification answers every solver question the previous run asked
  with zero SAT-core calls.  The store object is duck-typed
  (``load_payload``/``save_payload``); the concrete
  :class:`repro.orchestrator.store.QueryStore` reuses the shared
  :class:`repro.orchestrator.store.Store` machinery.

Slices that no tier answers are tried with the interval quick check,
and only the rest reach the CDCL core, through the batch the caller's
``make_batch`` callback builds for the query (one search per slice).
The verdict is installed in L1 and L3.  ``unknown`` results
(conflict-budget exhaustion) are never cached.  The cache is therefore
the one place that sees every slice question and every CDCL search, and
its :class:`QueryCacheStatistics` are the solver-work counts every
report reads.

Verdicts compose soundly because slices share no variables: SAT models
union into a model of the whole query, and one UNSAT slice refutes it.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.slowlog import slice_context
from ..obs.stats import StatisticsMixin
from ..obs.trace import clock, tracer
from .evaluate import Value
from .interval import QuickCheckResult, quick_check
from .model import Model
from .slicing import Slice, arena_order, partition
from .terms import Term, mk_and

#: Bump when the persisted payload layout changes; a mismatch reads as a miss.
PAYLOAD_VERSION = 1

#: Verdict strings (shared with ``solver.CheckResult`` — kept literal here
#: to avoid an import cycle with the facades that import this module).
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: One slice's CDCL search: terms -> (status, model-or-None).
SolveFn = Callable[[Sequence[Term]], Tuple[str, Optional[Model]]]

#: The cache's one way to the core: given every slice's term list, return
#: one :data:`SolveFn` per slice.  The solving context encodes the whole
#: slice set in one sweep (per-slice assumption roots) the first time any
#: slice reaches the core.
BatchFn = Callable[[Sequence[Sequence[Term]]], Sequence[SolveFn]]


# -- structural fingerprints ---------------------------------------------------------

_DIGEST_MEMO: Dict[int, str] = {}
_DIGEST_LIMIT = 500_000


def term_digest(term: Term) -> str:
    """A process-independent structural digest of a term, memoized by uid.

    Computed bottom-up over the DAG from (op, sort, value, name, params,
    child digests) — two structurally equal terms digest identically in
    any process, which is what lets the L3 tier outlive term uids.
    """
    cached = _DIGEST_MEMO.get(term.uid)
    if cached is not None:
        return cached
    if len(_DIGEST_MEMO) >= _DIGEST_LIMIT:
        _DIGEST_MEMO.clear()
    stack: List[Tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.uid in _DIGEST_MEMO:
            continue
        if expanded or not node.args:
            sort = "B" if node.sort.is_bool() else f"v{node.width}"
            material = "\x1f".join(
                (
                    node.op,
                    sort,
                    repr(node.value),
                    repr(node.name),
                    ",".join(str(p) for p in node.params),
                    ",".join(_DIGEST_MEMO[arg.uid] for arg in node.args),
                )
            )
            _DIGEST_MEMO[node.uid] = hashlib.sha256(material.encode()).hexdigest()
        else:
            stack.append((node, True))
            for arg in node.args:
                if arg.uid not in _DIGEST_MEMO:
                    stack.append((arg, False))
    return _DIGEST_MEMO[term.uid]


def slice_fingerprint(terms: Sequence[Term]) -> str:
    """Order-independent structural digest of a term set (the L3 key)."""
    material = "\x1f".join(sorted(term_digest(term) for term in terms))
    return hashlib.sha256(material.encode()).hexdigest()


# -- the cache -----------------------------------------------------------------------


@dataclass
class QueryCacheStatistics(StatisticsMixin):
    """Per-tier traffic counters for one :class:`QueryCache`.

    The one count of solver work: reports take deltas of these across
    the call they describe (``sat_core_calls``, ``hits`` and ``solved``
    become a result's ``sat_core_calls``, ``qcache_hits`` and
    ``slices_solved``).
    """

    checks: int = 0
    slices: int = 0
    exact_hits: int = 0
    model_reuse_hits: int = 0
    l3_hits: int = 0
    l3_stores: int = 0
    #: Slices no cache tier answered: the interval quick check decided
    #: them, or a batch callback ran a CDCL search.
    solved: int = 0
    #: CDCL searches the batch callbacks ran, one per slice the quick
    #: check left undecided.  0 on a run the L3 tier answers in full.
    sat_core_calls: int = 0
    unknown_results: int = 0
    #: Wall seconds per tier: the model-reuse candidate loop (hit or
    #: miss), the L3 probe, and the quick check plus the batch callback.
    model_reuse_seconds: float = 0.0
    l3_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def hits(self) -> int:
        """Slice questions the three cache tiers answered (quick check excluded)."""
        return self.exact_hits + self.model_reuse_hits + self.l3_hits


def _restrict(model: Optional[Model], variables: FrozenSet[str]) -> Optional[Model]:
    """Project a model onto exactly a slice's variables (sorted, total).

    Restriction is what makes per-slice models *composable*: the global
    SAT assignment binds every variable the solver has ever seen, and two
    slices' global models may disagree outside their own variables.
    Variables the source model leaves unbound are materialized as 0 —
    the same default :meth:`Model.evaluate` applies, so the projected
    model satisfies exactly what the source did.  (The all-ones probe
    reads them as all ones; :func:`_all_ones` builds its witness.)
    """
    if model is None:
        return None
    data = model.as_dict()
    return Model({name: data.get(name, 0) for name in sorted(variables)})


def _all_ones(query_slice: Slice) -> Model:
    """The all-ones probe's witness over exactly a slice's variables (sorted, total)."""
    ones: Dict[str, Value] = {}
    for term in query_slice.terms:
        for name, var in term.free_variables().items():
            ones[name] = var.sort.mask if var.is_bitvec() else True  # type: ignore[attr-defined]
    return Model(dict(sorted(ones.items())))


@dataclass
class QueryCache:
    """Three-tier verdict/model cache over sliced queries.

    ``store`` (optional) is the persistent L3 tier, written through like
    any cache.  A forked fleet worker hands in a read-only store, which
    keeps the writes for the worker to ship to its parent.
    """

    store: Optional[object] = None
    statistics: QueryCacheStatistics = field(default_factory=QueryCacheStatistics)

    #: L1 size bound; the whole tier is dropped past it (uids are never
    #: reused, so no entry can become wrong — only unreachable).
    L1_LIMIT = 200_000
    #: Recent SAT models kept for the model-reuse tier.
    MODEL_POOL = 32

    def __post_init__(self) -> None:
        self._exact: Dict[Tuple[int, ...], Tuple[str, Optional[Model]]] = {}
        self._models: Deque[Tuple[Model, FrozenSet[str]]] = deque(maxlen=self.MODEL_POOL)
        # The two canned probes live as long as the cache (an L1 reset
        # drops them with the rest), so their node memos carry across
        # slices.
        self._zeros = Model()
        self._ones = Model(fill=-1)

    # -- querying ------------------------------------------------------------------

    def check(
        self, terms: Sequence[Term], make_batch: BatchFn
    ) -> Tuple[str, Optional[Model]]:
        """Decide the conjunction of ``terms`` (simplified, interned booleans).

        Returns ``(status, model)``; SAT always comes with a composed
        model.  ``make_batch`` gets every slice's term list and returns one
        callback per slice; a slice's callback is invoked only if no tier,
        the quick check included, could answer it.  Slices are decided one
        at a time, and the first UNSAT slice decides the query.
        """
        self.statistics.checks += 1
        unique: List[Term] = []
        seen: set = set()
        for term in terms:
            if term.is_true() or term.uid in seen:
                continue
            if term.is_false():
                return UNSAT, None
            seen.add(term.uid)
            unique.append(term)
        if not unique:
            return SAT, Model({})
        slices = partition(unique)
        self.statistics.slices += len(slices)
        solvers = make_batch([query_slice.terms for query_slice in slices])
        # Cheapest slices first: a quick-check or cached UNSAT on a small
        # slice short-circuits before the shared arena is built.
        order = arena_order(slices) if len(slices) > 1 else (0,)
        assignment: Dict[str, object] = {}
        unknown = False
        for index in order:
            status, model = self._check_slice(slices[index], solvers[index])
            if status == UNSAT:
                return UNSAT, None
            if status == UNKNOWN:
                unknown = True
            elif model is not None:
                assignment.update(model.as_dict())
        if unknown:
            return UNKNOWN, None
        return SAT, Model(assignment)  # type: ignore[arg-type]

    # -- per-slice tiers -----------------------------------------------------------

    def _check_slice(self, query_slice: Slice, solve: SolveFn) -> Tuple[str, Optional[Model]]:
        trace = tracer()

        cached = self._exact.get(query_slice.key)
        if cached is not None:
            self.statistics.exact_hits += 1
            if trace.enabled:
                trace.event("qcache.hit", "qcache", tier="exact")
            return cached

        # Any model that happens to evaluate the slice true is a witness —
        # concrete evaluation is far cheaper than any SAT call.  Newest
        # pool entries first: a fork's parent-path model (just installed)
        # usually still satisfies the child's extended slice.  The two
        # canned probes (all-zeros, all-ones) catch the first-ever
        # appearance of the many one-sided comparisons symbex produces.
        statistics = self.statistics
        started = clock()
        for model in self._candidate_models(query_slice):
            if all(model.satisfies(term) for term in query_slice.terms):
                statistics.model_reuse_seconds += clock() - started
                statistics.model_reuse_hits += 1
                if trace.enabled:
                    trace.event("qcache.hit", "qcache", tier="model_reuse")
                if model is self._ones:
                    restricted = _all_ones(query_slice)
                else:
                    restricted = _restrict(model, query_slice.variables)
                self._install(query_slice, SAT, restricted)
                return SAT, restricted
        probed = clock()
        statistics.model_reuse_seconds += probed - started

        digest: Optional[str] = None
        if self.store is not None:
            digest = slice_fingerprint(query_slice.terms)
            loaded = self._load_persisted(query_slice, digest)
            statistics.l3_seconds += clock() - probed
            if loaded is not None:
                if trace.enabled:
                    trace.event("qcache.hit", "qcache", tier="l3")
                return loaded

        if trace.enabled:
            trace.event("qcache.miss", "qcache", slice_terms=len(query_slice.terms))
        # The last tier: the interval quick check, cheap on a slice though
        # useless on whole path conjunctions.
        terms = query_slice.terms
        started = clock()
        quick = quick_check(terms[0] if len(terms) == 1 else mk_and(*terms))
        if quick.status == QuickCheckResult.UNSAT:
            status, model = UNSAT, None
        elif quick.status == QuickCheckResult.SAT:
            status, model = SAT, Model(quick.model)
        else:
            statistics.sat_core_calls += 1
            # Park a lazy fingerprint for the slow-solve log: computed only
            # if the search below actually crosses the threshold.
            with slice_context(lambda: digest or slice_fingerprint(terms)):
                status, model = solve(terms)
        statistics.solve_seconds += clock() - started
        statistics.solved += 1
        if status == UNKNOWN:
            # Budget artifact, not a fact about the slice: never cached.
            statistics.unknown_results += 1
            return UNKNOWN, None
        model = _restrict(model, query_slice.variables)
        self._install(query_slice, status, model, digest=digest)
        return status, model

    def _candidate_models(self, query_slice: Slice):
        """Witness candidates for a slice, cheapest-to-likeliest first."""
        yield self._zeros  # every variable 0/False
        yield self._ones  # every variable all ones/True
        for model, model_vars in reversed(self._models):
            if model_vars & query_slice.variables:
                yield model

    def _load_persisted(
        self, query_slice: Slice, digest: str
    ) -> Optional[Tuple[str, Optional[Model]]]:
        payload = self.store.load_payload(digest)  # type: ignore[union-attr]
        if not isinstance(payload, dict) or payload.get("v") != PAYLOAD_VERSION:
            return None
        status = payload.get("status")
        if status == SAT:
            model = Model(payload.get("model") or {})
            # Defensive: a fingerprint collision would be a soundness hole,
            # so the (cheap) witness check gates the answer.
            if not all(model.satisfies(term) for term in query_slice.terms):
                return None
            self.statistics.l3_hits += 1
            restricted = _restrict(model, query_slice.variables)
            self._install(query_slice, SAT, restricted, persist=False)
            return SAT, restricted
        if status == UNSAT:
            self.statistics.l3_hits += 1
            self._install(query_slice, UNSAT, None, persist=False)
            return UNSAT, None
        return None

    # -- installation --------------------------------------------------------------

    def _install(
        self,
        query_slice: Slice,
        status: str,
        model: Optional[Model],
        digest: Optional[str] = None,
        persist: bool = True,
    ) -> None:
        if len(self._exact) >= self.L1_LIMIT:
            self.__post_init__()
        self._exact[query_slice.key] = (status, model)
        if status == SAT and model is not None and len(model):
            self._models.append((model, frozenset(model.as_dict())))
        if persist and self.store is not None:
            if digest is None:
                digest = slice_fingerprint(query_slice.terms)
            if self.store.contains(digest):  # type: ignore[attr-defined]
                # Model-reuse answers re-derive entries a previous run
                # already persisted; a stat beats a rewrite (and keeps
                # warm runs write-free).
                return
            payload: dict = {"v": PAYLOAD_VERSION, "status": status}
            if status == SAT:
                payload["model"] = dict((model or Model({})).as_dict())
            self.store.save_payload(digest, payload)  # type: ignore[union-attr]
            self.statistics.l3_stores += 1


def build_query_cache(store_dir: Optional[str] = None) -> QueryCache:
    """Construct the query cache an engine/context should route through.

    ``store_dir`` attaches the persistent L3 tier.
    """
    store = None
    if store_dir:
        # Late import: the orchestrator layer sits above smt and imports
        # it; only the concrete on-disk store class lives up there.
        from ..orchestrator.store import QueryStore

        store = QueryStore(store_dir)
    return QueryCache(store=store)
