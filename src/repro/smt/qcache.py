"""The tiered query cache: memoize sliced satisfiability queries across checks.

Sits between :class:`repro.smt.context.SolverContext` and its CDCL
core.  A query —
a list of simplified boolean terms — is partitioned into independent
slices (:mod:`repro.smt.slicing`) and each slice is answered by the
cheapest tier that can:

* **L1 exact** — verdict + model keyed by the slice's sorted term-uid
  tuple.  The dominant hit: sibling paths and composed routes re-ask the
  same slices endlessly.
* **Shortcuts** — an *unsat core* (minimized unsatisfiable subset)
  contained in the query answers UNSAT; a cached SAT entry whose term
  set contains the query answers SAT (its model satisfies every subset);
  and any recently produced model that evaluates the slice to true
  (:mod:`repro.smt.evaluate`) answers SAT — all without touching a
  solver.
* **L3 persistent** — an on-disk store keyed by a *structural*
  fingerprint of the slice (term uids are process-local; the fingerprint
  is a sha256 over per-term structural digests), so a warm
  re-certification answers every solver question the previous run asked
  with zero SAT-core calls.  The store object is duck-typed
  (``load_payload``/``save_payload``); the concrete
  :class:`repro.orchestrator.store.QueryStore` reuses the shared
  :class:`repro.orchestrator.store.Store` machinery.

Slices that no tier answers are tried with the interval quick check,
and only the rest reach the ``solve`` callback the caller provides (one
CDCL search each).  The result — including a greedily minimized unsat
core for UNSAT slices — is installed in every tier.  ``unknown`` results
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
from ..obs.trace import tracer
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

#: A per-slice CDCL search: terms -> (status, model-or-None).
SolveFn = Callable[[Sequence[Term]], Tuple[str, Optional[Model]]]

#: Batched-encoding hook: given every slice's term list, return one
#: :data:`SolveFn` per slice.  The solving context uses it to encode the
#: whole slice set in one sweep (per-slice assumption roots) the first
#: time any slice reaches the core.
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
    unsat_core_hits: int = 0
    superset_sat_hits: int = 0
    model_reuse_hits: int = 0
    l3_hits: int = 0
    l3_stores: int = 0
    #: Slices no cache tier answered: the interval quick check decided
    #: them, or the solve callback ran a CDCL search.
    solved: int = 0
    #: CDCL searches the solve callback ran, one per slice the quick
    #: check left undecided.  0 on a run the L3 tier answers in full.
    sat_core_calls: int = 0
    unknown_results: int = 0
    minimization_tests: int = 0

    @property
    def hits(self) -> int:
        """Slice questions the five cache tiers answered (quick check excluded)."""
        return (
            self.exact_hits
            + self.unsat_core_hits
            + self.superset_sat_hits
            + self.model_reuse_hits
            + self.l3_hits
        )


@dataclass
class _Entry:
    """One cached slice verdict."""

    key_set: FrozenSet[int]
    status: str
    model: Optional[Model] = None


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
    """Multi-tier verdict/model/core cache over sliced queries.

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
    #: Unsat cores are minimized only for slices of at most this many
    #: terms, with at most this many interval deletion tests each.
    MINIMIZE_LIMIT = 12
    MINIMIZE_TESTS = 6

    def __post_init__(self) -> None:
        self._exact: Dict[Tuple[int, ...], _Entry] = {}
        self._sat_by_uid: Dict[int, List[_Entry]] = {}
        self._cores_by_uid: Dict[int, List[FrozenSet[int]]] = {}
        self._models: Deque[Tuple[Model, FrozenSet[str]]] = deque(maxlen=self.MODEL_POOL)
        # The two canned probes live as long as the cache (an L1 reset
        # drops them with the rest), so their per-term verdict memos
        # carry across slices.
        self._zeros = Model()
        self._ones = Model(fill=-1)

    # -- querying ------------------------------------------------------------------

    def check(
        self,
        terms: Sequence[Term],
        solve: SolveFn,
        make_batch: Optional[BatchFn] = None,
    ) -> Tuple[str, Optional[Model]]:
        """Decide the conjunction of ``terms`` (simplified, interned booleans).

        Returns ``(status, model)``; SAT always comes with a composed
        model.  ``solve`` is invoked once per slice no tier, the quick check
        included, could answer.
        ``make_batch`` (optional) replaces the per-slice ``solve`` with
        callbacks sharing one batched encoding; slices are still decided
        sequentially, so cache-tier traffic and the one-UNSAT-slice
        short-circuit are identical either way.
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
        solvers: Optional[Sequence[SolveFn]] = None
        order = range(len(slices))
        if make_batch is not None and len(slices) > 1:
            solvers = make_batch([query_slice.terms for query_slice in slices])
            # Cheapest slices first: a quick-check or cached UNSAT on a
            # small slice short-circuits before the shared arena is built.
            order = arena_order(slices)
        assignment: Dict[str, object] = {}
        unknown = False
        for index in order:
            query_slice = slices[index]
            status, model = self._check_slice(
                query_slice, solvers[index] if solvers is not None else solve
            )
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
        key = query_slice.key
        key_set = frozenset(key)
        trace = tracer()

        entry = self._exact.get(key)
        if entry is not None:
            self.statistics.exact_hits += 1
            if trace.enabled:
                trace.event("qcache.hit", "qcache", tier="exact")
            return entry.status, entry.model

        # A known unsat core contained in the query refutes it.  Cores are
        # indexed under their smallest member, which the query must carry.
        for uid in key:
            for core in self._cores_by_uid.get(uid, ()):
                if core <= key_set:
                    self.statistics.unsat_core_hits += 1
                    if trace.enabled:
                        trace.event("qcache.hit", "qcache", tier="unsat_core")
                    self._install(query_slice, UNSAT, None, core=core)
                    return UNSAT, None

        # A cached SAT term set containing the query satisfies it (every
        # query term was part of the satisfied superset).
        for entry in self._sat_by_uid.get(key[0], ()):
            if key_set <= entry.key_set:
                self.statistics.superset_sat_hits += 1
                if trace.enabled:
                    trace.event("qcache.hit", "qcache", tier="superset_sat")
                model = _restrict(entry.model, query_slice.variables)
                self._install(query_slice, SAT, model)
                return SAT, model

        # Any model that happens to evaluate the slice true is a witness —
        # concrete evaluation is far cheaper than any SAT call.  Newest
        # pool entries first: a fork's parent-path model (just installed)
        # usually still satisfies the child's extended slice.  The two
        # canned probes (all-zeros, all-ones) catch the first-ever
        # appearance of the many one-sided comparisons symbex produces.
        for model in self._candidate_models(query_slice):
            if all(model.satisfies(term) for term in query_slice.terms):
                self.statistics.model_reuse_hits += 1
                if trace.enabled:
                    trace.event("qcache.hit", "qcache", tier="model_reuse")
                if model is self._ones:
                    restricted = _all_ones(query_slice)
                else:
                    restricted = _restrict(model, query_slice.variables)
                self._install(query_slice, SAT, restricted)
                return SAT, restricted

        digest: Optional[str] = None
        if self.store is not None:
            digest = slice_fingerprint(query_slice.terms)
            loaded = self._load_persisted(query_slice, digest)
            if loaded is not None:
                if trace.enabled:
                    trace.event("qcache.hit", "qcache", tier="l3")
                return loaded

        if trace.enabled:
            trace.event("qcache.miss", "qcache", slice_terms=len(query_slice.terms))
        # The last tier: the interval quick check, cheap on a slice though
        # useless on whole path conjunctions.
        terms = query_slice.terms
        quick = quick_check(terms[0] if len(terms) == 1 else mk_and(*terms))
        if quick.status == QuickCheckResult.UNSAT:
            status, model = UNSAT, None
        elif quick.status == QuickCheckResult.SAT:
            status, model = SAT, Model(quick.model)
        else:
            self.statistics.sat_core_calls += 1
            # Park a lazy fingerprint for the slow-solve log: computed only
            # if the search below actually crosses the threshold.
            with slice_context(lambda: digest or slice_fingerprint(terms)):
                status, model = solve(terms)
        self.statistics.solved += 1
        if status == UNKNOWN:
            # Budget artifact, not a fact about the slice: never cached.
            self.statistics.unknown_results += 1
            return UNKNOWN, None
        model = _restrict(model, query_slice.variables)
        core: Optional[FrozenSet[int]] = None
        if status == UNSAT:
            core = self._minimize(query_slice)
        self._install(query_slice, status, model, core=core, digest=digest)
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
            core_digests = set(payload.get("core") or ())
            by_digest = {term_digest(term): term for term in query_slice.terms}
            core = frozenset(
                by_digest[d].uid for d in core_digests if d in by_digest
            ) or frozenset(term.uid for term in query_slice.terms)
            self.statistics.l3_hits += 1
            self._install(query_slice, UNSAT, None, core=core, persist=False)
            return UNSAT, None
        return None

    # -- installation --------------------------------------------------------------

    def _install(
        self,
        query_slice: Slice,
        status: str,
        model: Optional[Model],
        core: Optional[FrozenSet[int]] = None,
        digest: Optional[str] = None,
        persist: bool = True,
    ) -> None:
        if len(self._exact) >= self.L1_LIMIT:
            self.__post_init__()
        entry = _Entry(frozenset(query_slice.key), status, model)
        if query_slice.key not in self._exact:
            self._exact[query_slice.key] = entry
            if status == SAT:
                for uid in query_slice.key:
                    self._sat_by_uid.setdefault(uid, []).append(entry)
                if model is not None and len(model):
                    self._models.append((model, frozenset(model.as_dict())))
        if core:
            anchor = min(core)
            bucket = self._cores_by_uid.setdefault(anchor, [])
            if core not in bucket:
                bucket.append(core)
        if persist and self.store is not None:
            if digest is None:
                digest = slice_fingerprint(query_slice.terms)
            if self.store.contains(digest):  # type: ignore[attr-defined]
                # Shortcut-tier answers re-derive entries a previous run
                # already persisted; a stat beats a rewrite (and keeps
                # warm runs write-free).
                return
            payload: dict = {"v": PAYLOAD_VERSION, "status": status}
            if status == SAT:
                payload["model"] = dict((model or Model({})).as_dict())
            elif core:
                uid_to_term = {term.uid: term for term in query_slice.terms}
                payload["core"] = sorted(
                    term_digest(uid_to_term[uid]) for uid in core if uid in uid_to_term
                )
            self.store.save_payload(digest, payload)  # type: ignore[union-attr]
            self.statistics.l3_stores += 1

    def _minimize(self, query_slice: Slice) -> FrozenSet[int]:
        """Greedy deletion-based minimization of an UNSAT slice, under a budget.

        Deletion tests use interval reasoning only: a term is dropped
        when the quick check *still proves the remainder UNSAT* — never a
        SAT-core call, so minimization cannot erode the optimization's
        own win.  Conservative (an un-droppable-looking term stays in the
        core), which costs shortcut coverage, never soundness: every
        retained core is a genuine unsatisfiable subset.
        """
        terms = list(query_slice.terms)
        if len(terms) <= 1 or len(terms) > self.MINIMIZE_LIMIT:
            return frozenset(term.uid for term in terms)
        tests = 0
        index = 0
        while index < len(terms) and len(terms) > 1 and tests < self.MINIMIZE_TESTS:
            candidate = terms[:index] + terms[index + 1 :]
            goal = candidate[0] if len(candidate) == 1 else mk_and(*candidate)
            tests += 1
            self.statistics.minimization_tests += 1
            if quick_check(goal).status == QuickCheckResult.UNSAT:
                terms = candidate  # the dropped term was not needed
            else:
                index += 1
        return frozenset(term.uid for term in terms)


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
