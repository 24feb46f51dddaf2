"""Flat-array CDCL: the hardware-speed SAT backend.

Algorithmically this is the same solver as :mod:`repro.smt.sat` — conflict
driven clause learning with two-watched-literal propagation, first-UIP
analysis, VSIDS branching, phase saving and Luby restarts — restructured
for CPython throughput:

* **clause arena** — every clause lives in one flat integer list as
  ``[size, lit0, lit1, ...]`` addressed by offset; there are no per-clause
  Python objects and no nested list traversals on the hot path;
* **literal codes** — a literal is encoded as ``2*var`` (positive) or
  ``2*var + 1`` (negative), so negation is ``code ^ 1`` and the assignment
  array is indexed directly by code (no ``abs()``/sign branches per
  lookup);
* **blocker literals** — each watch-list entry carries a cached literal
  whose truth satisfies the clause; most watch visits are a single array
  read instead of a clause dereference.  Binary clauses (the bulk of a
  Tseitin encoding) store a tagged ``~offset`` entry whose blocker *is*
  the rest of the clause, so propagating them never touches the arena;
* **two-tier branch order** — activity only ever grows from zero, so
  branching splits the variables: the few conflict-bumped ones live in a
  C-implemented :mod:`heapq` heap of ``(-activity, var)`` entries with
  lazy deletion (stale entries re-pushed at their current priority, live
  keys deduplicated through ``_onheap``), and the zero-activity rest is
  found by an index cursor that yields exactly the heap's tie-break
  order with no heap traffic at all.  A complete assignment is detected
  from the trail length, never by draining the heap, so surviving
  entries carry over to the next solve;
* **O(1) assumption placement** — each assumption owns one decision
  level (satisfied assumptions hold an empty level), so the solve loop
  places ``assumptions[decision_level]`` directly instead of rescanning
  the assumption list after every propagation;
* **assumption-trail caching** — consecutive solves over a shared
  assumption prefix (the incremental context's normal traffic) keep the
  prefix's decision levels, and all their propagations, on the trail
  instead of replaying them from level 0; clause feeds are trail-safe
  (``trail_safe_feed``) and only unwind as far as a new clause forces;
* **bulk clause loading** — :meth:`add_clause_stream` ingests a flat,
  0-terminated DIMACS-style literal buffer (produced incrementally by
  :class:`repro.smt.cnf.CNFBuilder`) in one tight loop;
* **bounded learned-clause database** — activity-scored clause-database
  reduction (binary and locked clauses are kept) caps memory growth on
  long incremental sessions, with arena compaction reclaiming the space.

``numpy`` is used only where it wins (model extraction); the search loops
are pure Python by design — per-element ufunc dispatch would be slower
than the inlined loops below.

The public surface mirrors :class:`repro.smt.sat.SATSolver` (DIMACS
integer literals in, tri-state :class:`~repro.smt.sat.SatResult` out), so
the tests can swap the reference core in at
:func:`repro.smt.backend.new_sat_core` and hold the two against each other.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, List, Optional, Sequence, Tuple

from ..obs.slowlog import sat_observer
from .sat import RESTART_BASE, SatResult, luby

try:  # numpy accelerates model extraction only; the solver runs without it.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the toolchain image
    _np = None

#: Learned clauses retained before a reduction sweep (override per solver).
DEFAULT_MAX_LEARNED = 20_000


class ArraySolver:
    """CDCL over a flat clause arena (DIMACS literal conventions)."""

    #: Clauses may be added while a trail is up (no :meth:`cancel` needed
    #: between solves); incremental feeders check this before cancelling.
    trail_safe_feed = True

    def __init__(self, num_vars: int = 0, max_learned: Optional[int] = DEFAULT_MAX_LEARNED) -> None:
        self._num_vars = 0
        # Assignment indexed by literal code: 1 true, 0 false, -1 unassigned.
        # Codes 0/1 belong to the nonexistent variable 0 and stay -1.
        self._val: List[int] = [-1, -1]
        # Per-variable parallel arrays (index 0 unused).
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]  # arena offset of the implying clause, -1 for decisions
        self._act: List[float] = [0.0]
        self._phase: List[int] = [1]  # saved sign bit; 1 = branch negative first
        # Watch lists indexed by the code that falsifies the watched literal;
        # entries are flat (blocker, clause offset) pairs.
        self._watches: List[List[int]] = [[], []]
        # Branch order is two-tier.  Activity only ever grows from 0.0
        # (bumps add, rescale scales positives to positives), so the
        # variable set splits into the few conflict-bumped vars and the
        # zero-activity rest:
        #   * ``_order`` — lazy max-heap of (-activity, var) entries for
        #     act > 0 vars only; stale entries dropped or re-keyed on pop.
        #   * ``_zero_cursor`` — index scan for act == 0 vars.  Heap
        #     order breaks activity ties by index, so the cursor yields
        #     exactly the order the heap would — without paying a heap
        #     operation per propagation-assigned variable.
        self._order: List[Tuple[float, int]] = []
        self._zero_cursor = 1
        # Key of the variable's live heap entry (-1.0 when it has none):
        # ``_onheap[var] == _act[var]`` means an entry at the current
        # priority is already enqueued, so a push would be a duplicate.
        # Popping a tracked key clears the slot.  The guarantee is
        # one-sided — extra entries are harmless, missing ones are not —
        # so clears may be conservative but skips never are.
        self._onheap: List[float] = [-1.0]
        # Bumped variables unassigned by backtracking but not yet
        # re-enqueued: they are only pushed when branching actually needs
        # the heap, so vars reassigned by propagation first never touch it.
        self._pending: List[int] = []
        # The arena: clause = size at offset, literal codes inline after it.
        self._arena: List[int] = []
        self._n_problem_clauses = 0
        self._learned_offsets: List[int] = []
        self._learned_act: dict = {}  # arena offset -> clause activity
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._head = 0
        # Assumption codes placed by the previous solve whose decision
        # levels are still on the trail (one level per assumption).  A
        # repeat solve sharing a prefix keeps those levels — and their
        # propagations — instead of rebuilding the trail from level 0.
        self._kept_assumptions: List[int] = []
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
        # Incremental-reuse accounting: decision levels kept across
        # consecutive assumption solves (the trail cache at work), and
        # solves answered outright by the previous complete assignment.
        self.trail_reused_levels = 0
        self.model_reuses = 0
        self._ensure_vars(num_vars)

    # -- public API -------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def learned_clause_count(self) -> int:
        """Learned clauses currently retained (bounded by ``max_learned``)."""
        return len(self._learned_offsets)

    def reserve(self, num_vars: int) -> None:
        """Grow the variable tables to ``num_vars``."""
        self._ensure_vars(num_vars)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause of DIMACS literals.

        Returns False if the formula became trivially unsatisfiable.
        Root-level-decided literals are simplified away.  Unlike the
        reference core, no :meth:`cancel` is required on a solver that
        has already run (``trail_safe_feed``) — the live trail is kept
        and only unwound as far as the new clause forces.
        """
        if not self._ok:
            return False
        val = self._val
        seen: set = set()
        clause: List[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > self._num_vars:
                self._ensure_vars(var)
            code = var + var if lit > 0 else var + var + 1
            value = val[code]
            if value >= 0 and self._level[var] == 0:
                if value == 1:
                    return True  # satisfied at the root forever
                continue  # permanently false literal: drop it
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            seen.add(code)
            clause.append(code)
        return self._commit_clause(clause)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_clause_stream(self, literals: Sequence[int], start: int = 0,
                          end: Optional[int] = None) -> bool:
        """Bulk-add 0-terminated clauses from a flat literal buffer.

        ``literals[start:end]`` is a DIMACS-style stream: clause literals
        followed by a ``0`` terminator, repeated.  One pass, no per-clause
        Python list churn beyond the survivors — this is how the
        incremental context feeds newly generated Tseitin clauses.
        Returns False once the formula is trivially unsatisfiable.
        """
        if end is None:
            end = len(literals)
        val = self._val
        level = self._level
        clause: List[int] = []
        satisfied = False
        taut_or_dup = False
        position = start
        while position < end:
            lit = literals[position]
            position += 1
            if lit == 0:
                if not satisfied:
                    if taut_or_dup or len(clause) > 3:
                        # Rare slow path: re-check with full dedup rules.
                        seen: set = set()
                        deduped: List[int] = []
                        tautology = False
                        for code in clause:
                            if code ^ 1 in seen:
                                tautology = True
                                break
                            if code not in seen:
                                seen.add(code)
                                deduped.append(code)
                        if not tautology and not self._commit_clause(deduped):
                            return False
                    elif not self._commit_clause(clause):
                        return False
                clause = []
                satisfied = False
                taut_or_dup = False
                continue
            if satisfied or not self._ok:
                continue
            var = lit if lit > 0 else -lit
            if var > self._num_vars:
                self._ensure_vars(var)
            code = var + var if lit > 0 else var + var + 1
            value = val[code]
            if value >= 0 and level[var] == 0:
                if value == 1:
                    satisfied = True
                else:
                    continue  # permanently false: drop
            else:
                if code in clause or code ^ 1 in clause:
                    taut_or_dup = True
                clause.append(code)
        return self._ok

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> str:
        """Solve under ``assumptions`` (DIMACS literals) and a conflict budget.

        Same contract as the reference core: ``UNKNOWN`` only on budget
        exhaustion; the budget covers this call only.
        """
        observer = sat_observer("array")
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
        assumption_codes = [
            (lit + lit) if lit > 0 else (-lit - lit + 1) for lit in assumptions
        ]
        for code in assumption_codes:
            if (code >> 1) > self._num_vars:
                self._ensure_vars(code >> 1)
        num_assumptions = len(assumption_codes)

        # Model reuse: if the previous solve left a complete assignment on
        # the trail (a propagation fixpoint over all variables with no
        # conflict is a model by the watch invariant) and every current
        # assumption is already true under it, it satisfies this query
        # too — answer without disturbing the trail.
        kept = self._kept_assumptions
        val = self._val
        if kept and self._head == len(self._trail) == self._num_vars:
            for code in assumption_codes:
                if val[code] != 1:
                    break
            else:
                self.model_reuses += 1
                return SatResult.SAT

        # Trail caching: incremental callers issue runs of solves over a
        # shared assumption prefix (trail-safe feeds only unwind what a
        # new clause forces).  The decision levels of the
        # longest prefix shared with the previous solve are still on the
        # trail — keep them, and their propagations, instead of replaying
        # from level 0.  Sound because backtracking preserves the watch
        # invariant (a false watch has a true co-watch at or below its
        # level), so propagation under the kept prefix is already complete.
        keep = 0
        limit = min(len(kept), num_assumptions, len(self._trail_lim))
        while keep < limit and kept[keep] == assumption_codes[keep]:
            keep += 1
        self.trail_reused_levels += keep
        self._backtrack(keep)
        self._kept_assumptions = []

        restart_number = 1
        restart_limit = RESTART_BASE * luby(restart_number)
        conflicts_since_restart = 0
        conflict_budget = None if max_conflicts is None else self.conflicts + max_conflicts
        val = self._val
        trail = self._trail
        trail_lim = self._trail_lim
        level = self._level
        reason = self._reason
        act = self._act
        phase = self._phase
        pending = self._pending

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return SatResult.UNSAT
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._record_learned(learned)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if conflict_budget is not None and self.conflicts >= conflict_budget:
                    self._backtrack(0)
                    return SatResult.UNKNOWN
                overfull = (
                    self.max_learned is not None
                    and len(self._learned_offsets) >= self.max_learned
                )
                if conflicts_since_restart >= restart_limit or overfull:
                    conflicts_since_restart = 0
                    restart_number += 1
                    restart_limit = RESTART_BASE * luby(restart_number)
                    self.restarts += 1
                    self._backtrack(0)
                    if overfull:
                        self._reduce_db()
                continue

            # Assumption ``i`` owns decision level ``i + 1`` (an empty
            # level when it is already implied), so placement after any
            # backjump is an O(1) index instead of a rescan.
            decision_level = len(trail_lim)
            if decision_level < num_assumptions:
                code = assumption_codes[decision_level]
                value = val[code]
                if value == 1:
                    trail_lim.append(len(trail))
                    continue
                if value == 0:
                    # Keep the consistent prefix below the failed
                    # assumption for the next solve to reuse.
                    self._kept_assumptions = assumption_codes[:decision_level]
                    return SatResult.UNSAT
            else:
                # All variables assigned at a conflict-free fixpoint is a
                # model.  Detect it from the trail length instead of by
                # draining the heap: the surviving entries spare the next
                # solve from re-enqueueing the whole variable set.
                if len(trail) == self._num_vars:
                    self._kept_assumptions = assumption_codes
                    return SatResult.SAT
                # Inline :meth:`_pick_branch` (the per-decision method
                # call is measurable at this call count): flush the
                # pending unwinds, pop the most active bumped variable,
                # fall back to the zero-activity cursor.
                order = self._order
                onheap = self._onheap
                if pending:
                    for var in pending:
                        if val[var + var] < 0 and onheap[var] != act[var]:
                            heappush(order, (-act[var], var))
                            onheap[var] = act[var]
                    del pending[:]
                    if len(order) > 2 * self._num_vars + 64:
                        self._rebuild_order()
                        order = self._order
                        onheap = self._onheap
                code = -1
                while order:
                    key, var = heappop(order)
                    if -key == onheap[var]:
                        onheap[var] = -1.0
                    if val[var + var] >= 0:
                        continue
                    activity = act[var]
                    if -key != activity:
                        if onheap[var] != activity:
                            heappush(order, (-activity, var))
                            onheap[var] = activity
                        continue
                    code = var + var + phase[var]
                    break
                if code < 0:
                    num_vars = self._num_vars
                    cursor = self._zero_cursor
                    while cursor <= num_vars and val[cursor + cursor] >= 0:
                        cursor += 1
                    self._zero_cursor = cursor
                    if cursor > num_vars:  # pragma: no cover - guarded above
                        raise RuntimeError(
                            "branch lookup found no unassigned variable "
                            "below a complete trail"
                        )
                    code = cursor + cursor + phase[cursor]
            # Inline :meth:`_assign` for the new decision level.
            self.decisions += 1
            trail_lim.append(len(trail))
            val[code] = 1
            val[code ^ 1] = 0
            var = code >> 1
            level[var] = len(trail_lim)
            reason[var] = -1
            phase[var] = code & 1
            trail.append(code)

    def model(self) -> List[bool]:
        """The satisfying assignment as a list indexed by variable (index 0 unused)."""
        if _np is not None and self._num_vars >= 64:
            values = _np.asarray(self._val[2:], dtype=_np.int64)
            return [False] + (values[0::2] == 1).tolist()
        val = self._val
        return [False] + [val[code] == 1 for code in range(2, 2 * self._num_vars + 2, 2)]

    def value(self, var: int) -> bool:
        """Truth value of a variable in the current model (False if unassigned)."""
        return self._val[var + var] == 1

    def cancel(self) -> None:
        """Undo all decisions and assumptions, keeping clauses and heuristics."""
        self._kept_assumptions = []
        self._backtrack(0)

    # -- variable tables ----------------------------------------------------------------

    def _ensure_vars(self, count: int) -> None:
        grow = count - self._num_vars
        if grow <= 0:
            return
        self._val.extend([-1] * (2 * grow))
        self._level.extend([0] * grow)
        self._reason.extend([-1] * grow)
        self._act.extend([0.0] * grow)
        self._phase.extend([1] * grow)
        for _ in range(2 * grow):
            self._watches.append([])
        # New variables start at zero activity: the cursor finds them
        # (it can never have advanced past ``count + 1``), no heap entry.
        self._onheap.extend([-1.0] * grow)
        self._num_vars = count

    # -- assignment ---------------------------------------------------------------------

    def _assign(self, code: int, reason: int) -> None:
        """Make the literal ``code`` true with ``reason`` (-1 for decisions)."""
        val = self._val
        val[code] = 1
        val[code ^ 1] = 0
        var = code >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = code & 1
        self._trail.append(code)

    def _commit_clause(self, clause: List[int]) -> bool:
        """Install a root-simplified clause of literal codes.

        Trail-safe: may be called while assumption/decision levels are on
        the trail (see ``trail_safe_feed``).  The clause is committed with
        a non-false first watch so its future falsification is always
        observed; a clause arriving fully falsified first backtracks to
        the level that frees its highest literal.  Implications the new
        clause would produce under the current trail are discovered lazily
        (through later watch events or conflicts) — that costs search
        effort, never soundness.
        """
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            # Unit facts live only in the assignment (never the arena), so
            # they must be placed at level 0 to survive backtracking.
            if self._trail_lim:
                self._kept_assumptions = []
                self._backtrack(0)
            code = clause[0]
            value = self._val[code]
            if value == 0:
                self._ok = False
                return False
            if value < 0:
                self._assign(code, -1)
            return True
        val = self._val
        if val[clause[0]] == 0 or val[clause[1]] == 0:
            non_false = []
            for position, code in enumerate(clause):
                if val[code] != 0:
                    non_false.append(position)
                    if len(non_false) == 2:
                        break
            if not non_false:
                # Fully falsified under the trail: free the most recent
                # literal (its level is >= 1, root-false literals were
                # already simplified away) and keep the rest.
                level = self._level
                highest = max(level[code >> 1] for code in clause)
                self._backtrack(highest - 1)
                kept = self._kept_assumptions
                if len(kept) > highest - 1:
                    del kept[highest - 1:]
                for position, code in enumerate(clause):
                    if val[code] != 0:
                        non_false.append(position)
                        if len(non_false) == 2:
                            break
            first = non_false[0]
            second = non_false[1] if len(non_false) > 1 else None
            if first != 0:
                clause[0], clause[first] = clause[first], clause[0]
                if second == 0:
                    second = first
            if second is not None and second != 1:
                clause[1], clause[second] = clause[second], clause[1]
        arena = self._arena
        offset = len(arena)
        arena.append(len(clause))
        arena.extend(clause)
        self._n_problem_clauses += 1
        # Binary clauses get a tagged (~offset) watch entry: the blocker
        # is the whole rest of the clause, so propagation never has to
        # touch the arena for them.
        stored = ~offset if len(clause) == 2 else offset
        self._watches[clause[0] ^ 1].append(clause[1])
        self._watches[clause[0] ^ 1].append(stored)
        self._watches[clause[1] ^ 1].append(clause[0])
        self._watches[clause[1] ^ 1].append(stored)
        return True

    # -- propagation (the hot loop) -----------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation; returns the conflicting clause's offset, or -1."""
        val = self._val
        arena = self._arena
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        phase = self._phase
        trail_lim_len = len(self._trail_lim)
        start = head = self._head
        trail_len = len(trail)
        while head < trail_len:
            p = trail[head]
            head += 1
            false_lit = p ^ 1
            wl = watches[p]
            i = 0
            n = len(wl)
            # Phase 1: no watch relocated yet, so every entry stays where
            # it is — scan without any compaction stores (the common
            # case; a visit usually ends at the blocker or a unit).
            relocated = False
            while i < n:
                blocker = wl[i]
                blocker_val = val[blocker]
                if blocker_val == 1:
                    i += 2
                    continue
                offset = wl[i + 1]
                if offset < 0:
                    # Tagged binary clause: the blocker is the whole rest
                    # of the clause — unit or conflicting right here, no
                    # arena access.
                    if blocker_val == 0:
                        self._head = trail_len
                        self.propagations += head - start
                        return ~offset
                    val[blocker] = 1
                    val[blocker ^ 1] = 0
                    var = blocker >> 1
                    level[var] = trail_lim_len
                    reason[var] = ~offset
                    phase[var] = blocker & 1
                    trail.append(blocker)
                    trail_len += 1
                    i += 2
                    continue
                # Normalise so the falsified watch sits at offset+2.
                first = arena[offset + 1]
                if first == false_lit:
                    first = arena[offset + 2]
                    arena[offset + 1] = first
                    arena[offset + 2] = false_lit
                first_val = val[first]
                if first_val == 1:
                    wl[i] = first  # refresh the blocker in place
                    i += 2
                    continue
                # Look for a replacement watch.
                k = offset + 3
                stop = offset + 1 + arena[offset]
                while k < stop:
                    q = arena[k]
                    if val[q] != 0:
                        arena[offset + 2] = q
                        arena[k] = false_lit
                        other = watches[q ^ 1]
                        other.append(first)
                        other.append(offset)
                        break
                    k += 1
                else:
                    # Clause is unit or conflicting on `first`.
                    wl[i] = first
                    if first_val == 0:
                        self._head = trail_len
                        self.propagations += head - start
                        return offset
                    val[first] = 1
                    val[first ^ 1] = 0
                    var = first >> 1
                    level[var] = trail_lim_len
                    reason[var] = offset
                    phase[var] = first & 1
                    trail.append(first)
                    trail_len += 1
                    i += 2
                    continue
                # This entry moved to another list: start compacting.
                relocated = True
                j = i
                i += 2
                break
            if not relocated:
                continue
            # Phase 2: same walk with the compaction shift (j < i).
            while i < n:
                blocker = wl[i]
                blocker_val = val[blocker]
                if blocker_val == 1:
                    wl[j] = blocker
                    wl[j + 1] = wl[i + 1]
                    j += 2
                    i += 2
                    continue
                offset = wl[i + 1]
                i += 2
                if offset < 0:
                    wl[j] = blocker
                    wl[j + 1] = offset
                    j += 2
                    if blocker_val == 0:
                        while i < n:  # keep the unvisited tail
                            wl[j] = wl[i]
                            wl[j + 1] = wl[i + 1]
                            j += 2
                            i += 2
                        del wl[j:]
                        self._head = trail_len
                        self.propagations += head - start
                        return ~offset
                    val[blocker] = 1
                    val[blocker ^ 1] = 0
                    var = blocker >> 1
                    level[var] = trail_lim_len
                    reason[var] = ~offset
                    phase[var] = blocker & 1
                    trail.append(blocker)
                    trail_len += 1
                    continue
                first = arena[offset + 1]
                if first == false_lit:
                    first = arena[offset + 2]
                    arena[offset + 1] = first
                    arena[offset + 2] = false_lit
                first_val = val[first]
                if first_val == 1:
                    wl[j] = first
                    wl[j + 1] = offset
                    j += 2
                    continue
                k = offset + 3
                stop = offset + 1 + arena[offset]
                while k < stop:
                    q = arena[k]
                    if val[q] != 0:
                        arena[offset + 2] = q
                        arena[k] = false_lit
                        other = watches[q ^ 1]
                        other.append(first)
                        other.append(offset)
                        break
                    k += 1
                else:
                    # Clause is unit or conflicting on `first`.
                    wl[j] = first
                    wl[j + 1] = offset
                    j += 2
                    if first_val == 0:
                        while i < n:  # keep the unvisited tail
                            wl[j] = wl[i]
                            wl[j + 1] = wl[i + 1]
                            j += 2
                            i += 2
                        del wl[j:]
                        self._head = trail_len
                        self.propagations += head - start
                        return offset
                    val[first] = 1
                    val[first ^ 1] = 0
                    var = first >> 1
                    level[var] = trail_lim_len
                    reason[var] = offset
                    phase[var] = first & 1
                    trail.append(first)
                    trail_len += 1
            del wl[j:]
        self._head = head
        self.propagations += head - start
        return -1

    # -- conflict analysis --------------------------------------------------------------

    def _analyze(self, conflict: int) -> tuple:
        """First-UIP analysis; returns (learned clause codes, backjump level)."""
        arena = self._arena
        level = self._level
        reason = self._reason
        trail = self._trail
        learned_act = self._learned_act
        cla_inc = self._cla_inc
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self._num_vars + 1)
        counter = 0
        p = -1  # code of the literal being resolved on (-1 on the first pass)
        offset = conflict
        index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            if offset in learned_act:
                learned_act[offset] += cla_inc
            base = offset + 1
            for k in range(base, base + arena[offset]):
                q = arena[k]
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    self._bump_activity(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            var = p >> 1
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                learned[0] = p ^ 1
                break
            offset = reason[var]

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause and move
        # one of its literals into the first watch position.
        backjump_level = 0
        swap_position = 1
        for position in range(1, len(learned)):
            lit_level = level[learned[position] >> 1]
            if lit_level > backjump_level:
                backjump_level = lit_level
                swap_position = position
        learned[1], learned[swap_position] = learned[swap_position], learned[1]
        return learned, backjump_level

    def _record_learned(self, learned: List[int]) -> None:
        if len(learned) == 1:
            self._assign(learned[0], -1)
            return
        arena = self._arena
        offset = len(arena)
        arena.append(len(learned))
        arena.extend(learned)
        self._learned_offsets.append(offset)
        self._learned_act[offset] = self._cla_inc
        stored = ~offset if len(learned) == 2 else offset
        self._watches[learned[0] ^ 1].append(learned[1])
        self._watches[learned[0] ^ 1].append(stored)
        self._watches[learned[1] ^ 1].append(learned[0])
        self._watches[learned[1] ^ 1].append(stored)
        self._assign(learned[0], offset)

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= target_level:
            return
        val = self._val
        reason = self._reason
        act = self._act
        trail = self._trail
        pending = self._pending
        cursor = self._zero_cursor
        boundary = trail_lim[target_level]
        for position in range(len(trail) - 1, boundary - 1, -1):
            code = trail[position]
            val[code] = -1
            val[code ^ 1] = -1
            var = code >> 1
            reason[var] = -1
            if act[var] != 0.0:
                pending.append(var)
            elif var < cursor:
                cursor = var
        self._zero_cursor = cursor
        del trail[boundary:]
        del trail_lim[target_level:]
        # Only lower: a trail-safe feed may have appended assignments that
        # are not yet propagated — never skip past them.
        if self._head > boundary:
            self._head = boundary

    # -- branching (lazy VSIDS max-heap) ------------------------------------------------

    def _pick_branch(self) -> int:
        """Pop the most active unassigned variable; -1 when all are assigned.

        The solve loop carries an inlined copy of this method (one call
        per decision is measurable); this is the readable reference.

        Bumped (act > 0) variables live in the ``(-activity, var)`` heap;
        an entry pushed before the variable's last bump is stale and is
        re-pushed at its current priority (activity only grows between
        rescales, so the fresh entry can only sink, never unfairly win).
        Zero-activity variables are found by the index cursor instead —
        the same order the heap's index tie-break would give them, with
        no per-variable heap traffic.

        Bumped variables unassigned by backtracking sit in ``_pending``
        until a branch decision actually needs the heap; the many that
        get reassigned by propagation first are dropped here for free.
        """
        if len(self._trail) == self._num_vars:
            return -1  # complete assignment; keep the heap's entries alive
        val = self._val
        act = self._act
        order = self._order
        onheap = self._onheap
        pending = self._pending
        if pending:
            for var in pending:
                if val[var + var] < 0 and onheap[var] != act[var]:
                    heappush(order, (-act[var], var))
                    onheap[var] = act[var]
            del pending[:]
            if len(order) > 2 * self._num_vars + 64:
                self._rebuild_order()
                order = self._order
                onheap = self._onheap
        while order:
            key, var = heappop(order)
            if -key == onheap[var]:
                onheap[var] = -1.0
            if val[var + var] >= 0:
                continue  # assigned; re-enqueued by the unwinding backtrack
            activity = act[var]
            if -key != activity:
                if onheap[var] != activity:
                    heappush(order, (-activity, var))
                    onheap[var] = activity
                continue
            return var + var + self._phase[var]
        num_vars = self._num_vars
        cursor = self._zero_cursor
        while cursor <= num_vars and val[cursor + cursor] >= 0:
            cursor += 1
        self._zero_cursor = cursor
        if cursor > num_vars:  # pragma: no cover - complete-trail check above
            raise RuntimeError(
                "branch lookup found no unassigned variable below a complete trail"
            )
        return cursor + cursor + self._phase[cursor]

    def _rebuild_order(self) -> None:
        """Compact the heap to one fresh entry per unassigned bumped variable."""
        val = self._val
        act = self._act
        del self._pending[:]  # every unassigned bumped var gets a fresh entry below
        onheap = [-1.0] * (self._num_vars + 1)
        order = []
        for var in range(1, self._num_vars + 1):
            if val[var + var] < 0 and act[var] != 0.0:
                order.append((-act[var], var))
                onheap[var] = act[var]
        heapify(order)
        self._order = order
        self._onheap = onheap
        self._zero_cursor = 1  # re-derive lazily; only moves past assigned vars

    def _bump_activity(self, var: int) -> None:
        act = self._act
        act[var] += self._var_inc
        if act[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                act[index] *= 1e-100
            self._var_inc *= 1e-100
            # Every heap key is now stale in the wrong direction; rebuild.
            self._rebuild_order()

    # -- learned-clause database reduction ----------------------------------------------

    def _reduce_db(self) -> None:
        """Drop low-activity learned clauses and compact the arena.

        Runs at decision level 0 only (the solve loop reduces after a
        restart backtrack), so the watch positions copied verbatim remain
        valid: the two-watched invariant held before compaction under the
        same root assignment.  Binary clauses and clauses locked as the
        reason of a root assignment are always kept.
        """
        arena = self._arena
        learned_act = self._learned_act
        locked = {self._reason[code >> 1] for code in self._trail}
        candidates = [
            offset for offset in self._learned_offsets
            if arena[offset] > 2 and offset not in locked
        ]
        keep_forever = [
            offset for offset in self._learned_offsets
            if arena[offset] <= 2 or offset in locked
        ]
        candidates.sort(key=learned_act.__getitem__, reverse=True)
        retained = set(keep_forever)
        retained.update(candidates[: max(len(candidates) // 2, 0)])

        new_arena: List[int] = []
        remap: dict = {}
        position = 0
        end = len(arena)
        new_learned: List[int] = []
        new_act: dict = {}
        # Classify by offset, not arena order: incremental feeding appends
        # new problem clauses *after* previously learned ones.
        learned_set = set(self._learned_offsets)
        while position < end:
            size = arena[position]
            is_learned = position in learned_set
            if not is_learned or position in retained:
                new_offset = len(new_arena)
                remap[position] = new_offset
                new_arena.extend(arena[position: position + size + 1])
                if is_learned:
                    new_learned.append(new_offset)
                    new_act[new_offset] = learned_act[position]
            position += size + 1

        self._arena = arena = new_arena
        self._learned_offsets = new_learned
        self._learned_act = new_act
        reason = self._reason
        for code in self._trail:
            old = reason[code >> 1]
            if old >= 0:
                reason[code >> 1] = remap[old]
        # Rebuild the watch lists from the (still valid) watch positions.
        watches = self._watches
        for watch_list in watches:
            del watch_list[:]
        position = 0
        end = len(arena)
        while position < end:
            size = arena[position]
            first = arena[position + 1]
            second = arena[position + 2]
            stored = ~position if size == 2 else position
            watches[first ^ 1].append(second)
            watches[first ^ 1].append(stored)
            watches[second ^ 1].append(first)
            watches[second ^ 1].append(stored)
            position += size + 1
        self.db_reductions += 1


def solve_clauses(
    clauses: Iterable[Sequence[int]],
    num_vars: int = 0,
    assumptions: Sequence[int] = (),
    max_conflicts: Optional[int] = None,
) -> tuple:
    """Convenience wrapper mirroring :func:`repro.smt.sat.solve_clauses`."""
    solver = ArraySolver(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=assumptions, max_conflicts=max_conflicts)
    if result == SatResult.SAT:
        return result, solver.model()
    return result, None
