"""The production solving core: persistent, assumption-based and cached.

A :class:`SolverContext` keeps one CNF, one bit-blaster and one CDCL
solver alive for its whole lifetime, and decides every query through the
**query-optimization layer** (:mod:`repro.smt.qcache`):

* the query is partitioned into variable-independent slices, and each
  slice is answered by the cheapest cache tier that can (exact verdict,
  model reuse, persistent L3, and last the interval quick check);
* only the slices no tier answers reach this context's CDCL core,
  through one batch per query: one assumption solve each;
* every distinct (hash-consed) boolean term is Tseitin-encoded **once**,
  the first time a query's batch needs the core, and a solve passes the
  root literals of its slice as CDCL assumptions instead of asserting
  unit clauses, so the clause database never has to be rebuilt or
  retracted and **learned clauses remain valid across queries**.

:class:`AssumptionChecker` adds the feasibility memo keyed on interned
term uids that the symbex and verify layers share.  The scratch
:class:`repro.smt.solver.Solver` is the reference the tests hold this
path to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.stats import StatisticsMixin
from ..obs.trace import clock
from . import backend
from .bitblast import BitBlaster
from .cnf import CNFBuilder
from .errors import SolverError
from .model import Model, model_from_bits
from .qcache import QueryCache
from .sat import SatResult
from .simplify import simplify
from .solver import CheckResult
from .terms import Term, intern_term


@dataclass
class ContextStatistics(StatisticsMixin):
    """Counters describing the work of one :class:`SolverContext`.

    Solver work (CDCL searches, cache hits, slices solved) is counted by
    the context's :class:`~repro.smt.qcache.QueryCache`, which may be
    shared between contexts; these are the context's own encoding and
    search internals.
    """

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    terms_encoded: int = 0
    literals_reused: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    learned_clauses: int = 0
    #: Root-level bit-blasting passes of the shared blaster (distinct
    #: roots encoded), and the node questions its uid-keyed cache
    #: answered instead — the evidence that shared subterms blast once.
    blast_passes: int = 0
    blast_cache_hits: int = 0
    #: Encode *sweeps* over slice sets: one per query whose batch reaches
    #: the core, covering every slice of the query — so this stays at or
    #: below the query cache's ``sat_core_calls``.
    encode_passes: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0

    #: ``learned_clauses`` is a gauge of the persistent core's clause
    #: database, not a per-run delta — merging takes the larger database.
    MERGE_MAX = ("learned_clauses",)


class SolverContext:
    """A persistent incremental solver over the QF_BV term language.

    Unlike :class:`repro.smt.solver.Solver`, which re-simplifies,
    re-bit-blasts and re-solves the full conjunction on every ``check``,
    a context accumulates state monotonically: the CNF only ever grows
    (with Tseitin definitions, which are unconditionally valid), and the
    SAT solver keeps its learned clauses, variable activities and saved
    phases between calls.
    """

    def __init__(
        self,
        max_conflicts: Optional[int] = 200_000,
        query_cache: Optional[QueryCache] = None,
    ) -> None:
        """``query_cache`` may be shared between contexts (slice verdicts
        then cross them); ``None`` gives this context a fresh one."""
        self._cnf = CNFBuilder()
        self._blaster = BitBlaster(self._cnf)
        self._sat = backend.new_sat_core(self._cnf.num_vars)
        self._clauses_fed = 0
        self._flat_fed = 0
        self._max_conflicts = max_conflicts
        self.query_cache = query_cache if query_cache is not None else QueryCache()
        # Interned-term uid -> (term, root literal).  Holding the term keeps
        # every encoded subterm alive, which keeps the blaster's id-keyed
        # caches sound.
        self._literals: Dict[int, Tuple[Term, int]] = {}
        self._model: Optional[Model] = None
        self.statistics = ContextStatistics()

    # -- solving -------------------------------------------------------------------

    def check_assumptions(self, *terms: Term) -> str:
        """Decide the conjunction of ``terms`` (boolean terms).

        Every term travels as a per-call assumption: nothing is asserted,
        so no call affects the next one's answer.  The query cache's
        slicing replaces prefix bookkeeping, and the persistent encodings
        and learned clauses of this context back every slice that
        actually has to be solved.
        """
        started = clock()
        self.statistics.checks += 1
        self._model = None

        reduced_terms: List[Term] = []
        for term in terms:
            if not isinstance(term, Term) or not term.is_bool():
                raise SolverError(f"only boolean terms can be checked, got {term!r}")
            reduced = simplify(term)
            if reduced.is_true():
                continue
            if reduced.is_false():
                self.statistics.encode_seconds += clock() - started
                return self._finish(CheckResult.UNSAT)
            reduced_terms.append(intern_term(reduced))
        self.statistics.encode_seconds += clock() - started

        solve_started = clock()
        status, model = self.query_cache.check(reduced_terms, self._make_batch)
        self.statistics.solve_seconds += clock() - solve_started
        if status == CheckResult.SAT:
            self._model = model if model is not None else Model({})
        return self._finish(status)

    def _make_batch(self, groups: Sequence[Sequence[Term]]) -> List:
        """The query cache's way to the core: one encode, one solve per slice.

        Nothing is encoded until a slice actually needs the core; then
        *every* slice's root is Tseitin-encoded into the shared CNF and
        the new clauses are streamed to the solver in one
        ``_feed_clauses`` call.  Ite-lifted merge constraints share most
        of their sub-DAG across slices, so the uid-keyed blast cache
        turns the remaining slices' encodings into lookups — one
        bit-blasting pass over the shared subterms instead of one per
        slice.  Each slice is still decided by its own assumption solve.
        A one-slice query gets a one-slice batch: one encode, one search.
        """
        encoded: List[List[int]] = []

        def solve(index: int, _terms: Sequence[Term]) -> Tuple[str, Optional[Model]]:
            if not encoded:
                # One encode sweep covers every slice of the arena.
                self.statistics.encode_passes += 1
                encoded.extend([self._literal(term) for term in terms] for terms in groups)
            return self._solve_assumptions(encoded[index])

        return [partial(solve, index) for index in range(len(groups))]

    def _solve_assumptions(self, literals: List[int]) -> Tuple[str, Optional[Model]]:
        """Run one CDCL search under ``literals`` on the retained CNF.

        The tail of every batch callback; the query cache counts the
        search, and ``solve_seconds`` is the caller's concern
        (``check_assumptions`` times the whole cache interaction instead).
        """
        self._feed_clauses()
        conflicts_before = self._sat.conflicts
        decisions_before = self._sat.decisions
        outcome = self._sat.solve(assumptions=literals, max_conflicts=self._max_conflicts)
        self.statistics.sat_conflicts += self._sat.conflicts - conflicts_before
        self.statistics.sat_decisions += self._sat.decisions - decisions_before
        self.statistics.learned_clauses = self._sat.learned_clause_count
        if outcome == SatResult.SAT:
            return CheckResult.SAT, model_from_bits(
                self._blaster.variable_bits(),
                self._blaster.boolean_variables(),
                self._sat.model(),
            )
        if outcome == SatResult.UNSAT:
            return CheckResult.UNSAT, None
        return CheckResult.UNKNOWN, None

    def model(self) -> Model:
        """Model of the last satisfiable check."""
        if self._model is None:
            raise SolverError("model() is only available after a satisfiable check")
        return self._model

    # -- internals -----------------------------------------------------------------

    def _finish(self, status: str) -> str:
        if status == CheckResult.SAT:
            self.statistics.sat += 1
        elif status == CheckResult.UNSAT:
            self.statistics.unsat += 1
        else:
            self.statistics.unknown += 1
        # Blast counters are gauges of the context's one shared blaster;
        # syncing on every check keeps them current without per-node cost.
        self.statistics.blast_passes = self._blaster.passes
        self.statistics.blast_cache_hits = self._blaster.cache_hits
        return status

    def _literal(self, term: Term) -> int:
        """Root literal of a (simplified, interned) boolean term; encoded once ever."""
        term = intern_term(term)
        cached = self._literals.get(term.uid)
        if cached is not None:
            self.statistics.literals_reused += 1
            return cached[1]
        literal = self._blaster.blast_bool(term)
        self._literals[term.uid] = (term, literal)
        self.statistics.terms_encoded += 1
        return literal

    def _feed_clauses(self) -> None:
        """Hand newly generated CNF clauses (and variables) to the persistent SAT solver."""
        self._sat.reserve(self._cnf.num_vars)
        clauses = self._cnf.clauses
        if self._clauses_fed == len(clauses):
            return
        if not getattr(self._sat, "trail_safe_feed", False):
            # The reference core requires a quiescent solver before new
            # clauses; the array core feeds under a live trail, keeping
            # its cached assumption levels (and their propagations).
            self._sat.cancel()
        stream = getattr(self._sat, "add_clause_stream", None)
        if stream is not None:
            # Bulk path: feed the 0-terminated flat mirror in one call
            # instead of one Python call per clause.
            flat = self._cnf.flat
            stream(flat, self._flat_fed, len(flat))
            self._flat_fed = len(flat)
        else:
            for index in range(self._clauses_fed, len(clauses)):
                self._sat.add_clause(clauses[index])
        self._clauses_fed = len(clauses)


class AssumptionChecker:
    """Feasibility oracle sharing one :class:`SolverContext` across queries.

    Callers hand over whole constraint lists (a path's prefix) plus query
    terms, decided as one conjunction.  The checker memoizes verdicts by
    the *set* of interned term uids, so structurally identical queries
    (however they were reassembled) are solved once.  Verdicts are
    three-valued: ``unknown`` (a spent conflict budget) refutes nothing,
    and each caller decides what it may conclude from one.
    """

    #: Memo entries are dropped wholesale past this size: uids are never
    #: reused, so entries for collected terms can never be hit again.
    MEMO_LIMIT = 100_000

    def __init__(
        self,
        max_conflicts: Optional[int] = 200_000,
        query_cache: Optional[QueryCache] = None,
    ) -> None:
        """``query_cache`` (shared freely between checkers) slices every
        query and reuses verdicts and models across them; ``None`` gives
        the checker its own."""
        self.context = SolverContext(max_conflicts=max_conflicts, query_cache=query_cache)
        self.query_cache = self.context.query_cache
        # Verdicts only — models are not pinned here; a SAT repeat that
        # needs one re-solves on the warm context (or its cache) instead.
        self._memo: Dict[frozenset, str] = {}
        self.memo_hits = 0
        self.checks = 0

    def check(
        self, constraints: Sequence[Term], extra: Sequence[Term] = (), need_model: bool = False
    ) -> Tuple[str, Optional[Model]]:
        """Decide ``constraints ∧ extra``; returns (status, model-or-None).

        Pass ``need_model=True`` when the caller will consume the model of a
        satisfiable check; a memoized SAT verdict then re-solves (cheap on
        the warm context) instead of returning a pinned model.
        """
        self.checks += 1
        key = frozenset(
            intern_term(term).uid for term in list(constraints) + list(extra)
        )
        cached = self._memo.get(key)
        if cached is not None and not (need_model and cached == CheckResult.SAT):
            self.memo_hits += 1
            return cached, None
        status = self.context.check_assumptions(*constraints, *extra)
        model = self.context.model() if need_model and status == CheckResult.SAT else None
        if len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = status
        return status, model

    @property
    def statistics(self) -> ContextStatistics:
        return self.context.statistics
