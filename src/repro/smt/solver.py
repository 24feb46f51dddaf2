"""The scratch solver: the from-nothing reference the production path is checked against.

A :class:`Solver` accumulates boolean assertions (with ``push``/``pop``
scoping), and decides satisfiability by:

1. rewriting the conjunction with the algebraic simplifier,
2. trying the unsigned-interval quick check, and
3. falling back to bit-blasting plus CDCL SAT on a fresh CNF.

Query results are cached by the simplified constraint's hash-consed term
uid — structurally identical queries share one interned term, so the
lookup is an O(1) integer-keyed dict hit with no rendering on the hot
path.

The verifier itself decides every feasibility question through
:class:`repro.smt.context.AssumptionChecker` (slicing, the tiered query
cache and one persistent CDCL context).  This class shares none of that
machinery above the quick check, which is what makes it a useful
reference: the tests compare the production answers against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs.stats import StatisticsMixin
from ..obs.trace import clock
from . import backend
from .bitblast import BitBlaster
from .builder import And
from .errors import SolverError
from .interval import QuickCheckResult, quick_check
from .model import Model, model_from_bits
from .sat import SatResult
from .simplify import simplify
from .terms import TRUE, Term


class CheckResult:
    """Tri-state result of a satisfiability check."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStatistics(StatisticsMixin):
    """Counters describing the work a solver instance has performed."""

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    quick_check_hits: int = 0
    cache_hits: int = 0
    #: Times the CDCL core actually ran a search (quick-check and cache
    #: answers excluded).
    sat_core_calls: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    #: Root-level bit-blasting passes across this solver's (per-check)
    #: blasters, and node questions their uid-keyed caches answered.
    blast_passes: int = 0
    blast_cache_hits: int = 0
    total_time: float = 0.0


@dataclass
class _CachedAnswer:
    status: str
    model: Optional[Model] = None
    #: The goal term itself.  The intern table is weak, so the entry must
    #: pin the term: a structurally identical future goal then reinterns
    #: to this instance (same uid) and the uid-keyed lookup hits.
    goal: Optional[Term] = None


class Solver:
    """Scratch-mode solver facade over the QF_BV term language.

    Each ``check()`` builds a fresh CNF for the current assertion set; the
    per-query cache absorbs exact repetition.  Production callers use the
    persistent :class:`repro.smt.context.SolverContext`, which retains the
    bit-blasted CNF, variable maps and learned clauses across checks; this
    facade is the reference the tests hold it to.
    """

    def __init__(
        self,
        max_conflicts: Optional[int] = 200_000,
        enable_cache: bool = True,
    ) -> None:
        self._assertions: List[Term] = []
        self._scopes: List[int] = []
        self._model: Optional[Model] = None
        self._max_conflicts = max_conflicts
        self._enable_cache = enable_cache
        # Keyed by the simplified goal's interned uid: uids are never
        # reused, so a key can go stale (unreachable) but never collide.
        self._cache: Dict[int, _CachedAnswer] = {}
        self.statistics = SolverStatistics()

    # -- assertion management ------------------------------------------------------

    def add(self, *constraints: Term) -> None:
        """Assert one or more boolean terms."""
        for constraint in constraints:
            if not isinstance(constraint, Term) or not constraint.is_bool():
                raise SolverError(f"only boolean terms can be asserted, got {constraint!r}")
            self._assertions.append(constraint)

    def assertions(self) -> List[Term]:
        return list(self._assertions)

    def push(self) -> None:
        """Open a new assertion scope."""
        self._scopes.append(len(self._assertions))

    def pop(self) -> None:
        """Discard all assertions added since the matching ``push``."""
        if not self._scopes:
            raise SolverError("pop() without a matching push()")
        boundary = self._scopes.pop()
        del self._assertions[boundary:]

    def reset(self) -> None:
        """Drop every assertion and scope."""
        self._assertions.clear()
        self._scopes.clear()
        self._model = None

    # -- solving ---------------------------------------------------------------------

    def check(self, *extra: Term) -> str:
        """Decide satisfiability of the asserted constraints plus ``extra``."""
        started = clock()
        self.statistics.checks += 1
        self._model = None

        goal = simplify(And(*(self._assertions + list(extra)))) if (self._assertions or extra) else TRUE
        key = goal.uid

        if self._enable_cache:
            cached = self._cache.get(key)
            if cached is not None:
                self.statistics.cache_hits += 1
                self._model = cached.model
                self._count(cached.status)
                self.statistics.total_time += clock() - started
                return cached.status

        status, model = self._decide(goal)
        self._model = model
        if self._enable_cache:
            self._cache[key] = _CachedAnswer(status, model, goal)
        self._count(status)
        self.statistics.total_time += clock() - started
        return status

    def is_satisfiable(self, *extra: Term) -> bool:
        """Convenience: True iff ``check`` returns SAT."""
        return self.check(*extra) == CheckResult.SAT

    def is_unsatisfiable(self, *extra: Term) -> bool:
        """Convenience: True iff ``check`` returns UNSAT."""
        return self.check(*extra) == CheckResult.UNSAT

    def model(self) -> Model:
        """Model of the last satisfiable ``check``."""
        if self._model is None:
            raise SolverError("model() is only available after a satisfiable check()")
        return self._model

    # -- internals ---------------------------------------------------------------------

    def _count(self, status: str) -> None:
        if status == CheckResult.SAT:
            self.statistics.sat += 1
        elif status == CheckResult.UNSAT:
            self.statistics.unsat += 1
        else:
            self.statistics.unknown += 1

    def _decide(self, goal: Term) -> tuple[str, Optional[Model]]:
        if goal.is_true():
            return CheckResult.SAT, Model({})
        if goal.is_false():
            return CheckResult.UNSAT, None

        quick = quick_check(goal)
        if quick.status == QuickCheckResult.UNSAT:
            self.statistics.quick_check_hits += 1
            return CheckResult.UNSAT, None
        if quick.status == QuickCheckResult.SAT:
            self.statistics.quick_check_hits += 1
            return CheckResult.SAT, Model(quick.model)

        blaster = BitBlaster()
        blaster.assert_term(goal)
        self.statistics.blast_passes += blaster.passes
        self.statistics.blast_cache_hits += blaster.cache_hits
        sat_solver = backend.new_sat_core(blaster.cnf.num_vars)
        if not _feed_cnf(sat_solver, blaster.cnf):
            return CheckResult.UNSAT, None
        self.statistics.sat_core_calls += 1
        outcome = sat_solver.solve(max_conflicts=self._max_conflicts)
        self.statistics.sat_conflicts += sat_solver.conflicts
        self.statistics.sat_decisions += sat_solver.decisions
        if outcome == SatResult.UNSAT:
            return CheckResult.UNSAT, None
        if outcome == SatResult.UNKNOWN:
            return CheckResult.UNKNOWN, None
        model = model_from_bits(
            blaster.variable_bits(), blaster.boolean_variables(), sat_solver.model()
        )
        return CheckResult.SAT, model


def _feed_cnf(sat_solver, cnf) -> bool:
    """Feed a whole CNF to a fresh SAT core; False on a trivially false clause.

    Uses the core's bulk ``add_clause_stream`` (one call for the whole
    0-terminated flat buffer) when it has one, the per-clause loop
    otherwise.
    """
    sat_solver.reserve(cnf.num_vars)
    stream = getattr(sat_solver, "add_clause_stream", None)
    if stream is not None:
        return stream(cnf.flat)
    for clause in cnf.clauses:
        if not sat_solver.add_clause(clause):
            return False
    return True

