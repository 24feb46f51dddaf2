"""The reference CDCL SAT solver.

Conflict-driven clause learning with two-watched-literal propagation,
VSIDS-style activity-based branching, first-UIP conflict analysis,
non-chronological backjumping, phase saving, and Luby-sequence restarts.

The implementation favours clarity over raw speed.  Production runs the
flat-array :class:`repro.smt.satcore.ArraySolver`, the same algorithm
restructured for CPython; this core is the tests' oracle for it, swapped
in at :func:`repro.smt.backend.new_sat_core`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..obs.slowlog import sat_observer

UNASSIGNED = 0
TRUE = 1
FALSE = -1

#: Conflicts allowed before the first restart; later restarts scale this
#: by the Luby sequence.
RESTART_BASE = 64


def luby(index: int) -> int:
    """The 1-based Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, ...

    Restart limits scaled by this sequence are a well-known universal
    strategy: within a constant factor of the optimal restart schedule
    for any (unknown) runtime distribution, unlike a geometric schedule
    which commits to one growth rate.
    """
    if index < 1:
        raise ValueError("luby() is defined for 1-based indices")
    while True:
        size = 1 << index.bit_length()
        if index == size - 1:
            return size >> 1
        index = index - (size >> 1) + 1


class SatResult:
    """Tri-state result of a SAT call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SATSolver:
    """CDCL solver over clauses of integer literals (DIMACS conventions).

    ``max_learned`` bounds the learned-clause database: past it the solver
    restarts and drops the low-activity half of the non-binary, non-locked
    learned clauses (:meth:`_reduce_learned`).  ``None`` keeps every
    learned clause forever — the historical behaviour.
    """

    def __init__(self, num_vars: int = 0, max_learned: Optional[int] = None) -> None:
        self._num_vars = 0
        # Indexed by variable (1-based); index 0 unused.
        self._assign: List[int] = [UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        # Watch lists indexed by literal encoded as 2*v (positive) / 2*v+1 (negative).
        # Each entry is a mutable [blocker, clause] pair: when the cached
        # blocker literal is already true the clause is satisfied and the
        # walk skips it without dereferencing the clause at all.
        self._watches: List[List[List[object]]] = [[], []]
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        # Learned-clause activities keyed by clause identity; entries are
        # written at learning time and pruned on reduction, so a recycled
        # id can never carry a stale score into a live clause.
        self._learned_act: dict = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagate_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        self.max_learned = max_learned
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.db_reductions = 0
        self._ensure_vars(num_vars)

    # -- public API -------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def reserve(self, num_vars: int) -> None:
        """Grow the variable tables to ``num_vars``.

        Needed by incremental callers whose assumption literals mention
        variables that appear in no clause (a blasted term can reduce to a
        bare input bit).
        """
        self._ensure_vars(num_vars)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause.  Returns False if the formula became trivially unsatisfiable.

        Callers adding clauses to a solver that has already run must
        :meth:`cancel` first; literals decided at the root level are
        simplified away here (they are permanent), which keeps the
        two-watched-literal invariant for incrementally added clauses.
        """
        if not self._ok:
            return False
        seen: set[int] = set()
        clause: List[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_vars(abs(lit))
            value = self._lit_value(lit)
            if value != UNASSIGNED and self._level[abs(lit)] == 0:
                if value == TRUE:
                    return True  # satisfied at the root forever
                continue  # permanently false literal: drop it
            if -lit in seen:
                return True  # tautology: always satisfied, skip
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue_root(clause[0]):
                self._ok = False
                return False
            return True
        self._clauses.append(clause)
        self._watch_clause(clause)
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> str:
        """Solve the formula, optionally under assumptions and a conflict budget.

        Returns one of :class:`SatResult`'s values.  ``UNKNOWN`` is only
        returned when ``max_conflicts`` is exhausted.  The budget applies to
        *this* call: on a persistent solver the conflicts of earlier queries
        do not count against it.
        """
        observer = sat_observer("reference")
        if observer is None:
            return self._solve(assumptions, max_conflicts)
        conflicts = self.conflicts
        decisions = self.decisions
        restarts = self.restarts
        result = self._solve(assumptions, max_conflicts)
        observer.finish(
            result,
            self.conflicts - conflicts,
            self.decisions - decisions,
            self.restarts - restarts,
            assumptions=len(assumptions),
        )
        return result

    def _solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> str:
        if not self._ok:
            return SatResult.UNSAT
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult.UNSAT

        restart_number = 1
        restart_limit = RESTART_BASE * luby(restart_number)
        conflicts_since_restart = 0
        conflict_budget = None if max_conflicts is None else self.conflicts + max_conflicts
        assumptions = list(assumptions)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return SatResult.UNSAT
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._record_learned(learned)
                self._decay_activities()
                if conflict_budget is not None and self.conflicts >= conflict_budget:
                    self._backtrack(0)
                    return SatResult.UNKNOWN
                overfull = (
                    self.max_learned is not None and len(self._learned) >= self.max_learned
                )
                if conflicts_since_restart >= restart_limit or overfull:
                    conflicts_since_restart = 0
                    restart_number += 1
                    restart_limit = RESTART_BASE * luby(restart_number)
                    self.restarts += 1
                    self._backtrack(0)
                    if overfull:
                        self._reduce_learned()
                continue

            # Place assumptions before free decisions.
            placed_all_assumptions = True
            assumption_conflict = False
            for lit in assumptions:
                value = self._lit_value(lit)
                if value == TRUE:
                    continue
                if value == FALSE:
                    assumption_conflict = True
                    break
                self.decisions += 1
                self._new_decision_level()
                self._enqueue(lit, None)
                placed_all_assumptions = False
                break
            if assumption_conflict:
                self._backtrack(0)
                return SatResult.UNSAT
            if not placed_all_assumptions:
                continue

            lit = self._pick_branch()
            if lit is None:
                return SatResult.SAT
            self.decisions += 1
            self._new_decision_level()
            self._enqueue(lit, None)

    def model(self) -> List[bool]:
        """Return the satisfying assignment as a list indexed by variable (index 0 unused)."""
        return [value == TRUE for value in self._assign]

    def cancel(self) -> None:
        """Undo all decisions and assumptions, keeping clauses and heuristics.

        Incremental callers must cancel before adding clauses so that watch
        initialisation and root-level unit enqueueing see only the permanent
        (level-0) assignment.
        """
        self._backtrack(0)

    @property
    def learned_clause_count(self) -> int:
        """Learned clauses currently retained (reused by later incremental calls)."""
        return len(self._learned)

    def value(self, var: int) -> bool:
        """Truth value of a variable in the current model (False if unassigned)."""
        return self._assign[var] == TRUE

    # -- internal machinery -------------------------------------------------------------

    def _ensure_vars(self, count: int) -> None:
        while self._num_vars < count:
            self._num_vars += 1
            self._assign.append(UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._watches.append([])
            self._watches.append([])

    @staticmethod
    def _lit_index(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _lit_value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value if lit > 0 else -value

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _watch_clause(self, clause: List[int]) -> None:
        # Each watcher caches the *other* watched literal as its blocker.
        self._watches[self._lit_index(-clause[0])].append([clause[1], clause])
        self._watches[self._lit_index(-clause[1])].append([clause[0], clause])

    def _enqueue_root(self, lit: int) -> bool:
        value = self._lit_value(lit)
        if value == FALSE:
            return False
        if value == TRUE:
            return True
        return self._enqueue(lit, None)

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        var = abs(lit)
        value = self._lit_value(lit)
        if value != UNASSIGNED:
            return value == TRUE
        self._assign[var] = TRUE if lit > 0 else FALSE
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation.  Returns a conflicting clause or None."""
        while self._propagate_head < len(self._trail):
            lit = self._trail[self._propagate_head]
            self._propagate_head += 1
            self.propagations += 1
            watch_list = self._watches[self._lit_index(lit)]
            index = 0
            while index < len(watch_list):
                entry = watch_list[index]
                # A true blocker means the clause is satisfied: skip it
                # without even dereferencing the clause.
                if self._lit_value(entry[0]) == TRUE:
                    index += 1
                    continue
                clause = entry[1]
                # Normalise so that clause[1] is the falsified watch (-lit).
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == TRUE:
                    entry[0] = first  # refresh the blocker for next time
                    index += 1
                    continue
                # Look for a new literal to watch.
                found = False
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if self._lit_value(candidate) != FALSE:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watches[self._lit_index(-clause[1])].append([first, clause])
                        watch_list[index] = watch_list[-1]
                        watch_list.pop()
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                if self._lit_value(first) == FALSE:
                    self._propagate_head = len(self._trail)
                    return clause
                entry[0] = first
                self._enqueue(first, clause)
                index += 1
        return None

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP conflict analysis.  Returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        reason: Optional[List[int]] = conflict
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            assert reason is not None
            if id(reason) in self._learned_act:
                self._learned_act[id(reason)] += self._cla_inc
            for reason_lit in reason:
                if lit is not None and reason_lit == lit:
                    continue
                var = abs(reason_lit)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_activity(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(reason_lit)
            # Find the next literal on the trail to resolve on.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            lit = self._trail[trail_index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                learned[0] = -lit
                break
            reason = self._reason[var]

        if len(learned) == 1:
            backjump_level = 0
        else:
            # Backjump to the second-highest level in the learned clause.
            levels = sorted((self._level[abs(lit)] for lit in learned[1:]), reverse=True)
            backjump_level = levels[0]
            # Move a literal of that level into the first watch position.
            for position in range(1, len(learned)):
                if self._level[abs(learned[position])] == backjump_level:
                    learned[1], learned[position] = learned[position], learned[1]
                    break
        return learned, backjump_level

    def _record_learned(self, learned: List[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        self._learned.append(learned)
        self._learned_act[id(learned)] = self._cla_inc
        self._watch_clause(learned)
        self._enqueue(learned[0], learned)

    def _reduce_learned(self) -> None:
        """Drop the low-activity half of the learned-clause database.

        Called at decision level 0 only.  Binary clauses (cheap to keep,
        expensive to relearn) and clauses locked as the reason of a root
        assignment survive every sweep; the rest are ranked by bump
        activity.  Watch lists are rebuilt from the retained clauses —
        their watch positions still satisfy the two-watched invariant
        under the unchanged root assignment.
        """
        locked = {
            id(self._reason[abs(lit)])
            for lit in self._trail
            if self._reason[abs(lit)] is not None
        }
        keep: List[List[int]] = []
        candidates: List[List[int]] = []
        for clause in self._learned:
            if len(clause) <= 2 or id(clause) in locked:
                keep.append(clause)
            else:
                candidates.append(clause)
        candidates.sort(key=lambda clause: self._learned_act[id(clause)], reverse=True)
        keep.extend(candidates[: len(candidates) // 2])
        self._learned = keep
        self._learned_act = {id(clause): self._learned_act[id(clause)] for clause in keep}
        for watch_list in self._watches:
            del watch_list[:]
        for clause in self._clauses:
            self._watch_clause(clause)
        for clause in self._learned:
            self._watch_clause(clause)
        self.db_reductions += 1

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        for position in range(len(self._trail) - 1, boundary - 1, -1):
            var = abs(self._trail[position])
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._propagate_head = len(self._trail)
        self._propagate_head = boundary

    def _pick_branch(self) -> Optional[int]:
        best_var = 0
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == UNASSIGNED and self._activity[var] > best_activity:
                best_var = var
                best_activity = self._activity[var]
        if best_var == 0:
            return None
        return best_var if self._phase[best_var] else -best_var

    def _bump_activity(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay


def solve_clauses(
    clauses: Iterable[Sequence[int]],
    num_vars: int = 0,
    assumptions: Sequence[int] = (),
    max_conflicts: Optional[int] = None,
) -> tuple[str, Optional[List[bool]]]:
    """Convenience wrapper: solve a clause set, return (result, model-or-None)."""
    solver = SATSolver(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=assumptions, max_conflicts=max_conflicts)
    if result == SatResult.SAT:
        return result, solver.model()
    return result, None
