"""The symbolic execution engine over element IR programs.

Mirrors :class:`repro.ir.interpreter.Interpreter`, but every value is an
SMT term and every branch forks the path.  The engine plays the role S2E
plays in the paper: enumerate all feasible segments of an element under a
fully symbolic input packet and collect each segment's path constraint and
symbolic state.

Crash behaviours are modelled explicitly: failed assertions, out-of-bounds
packet accesses, division by zero, and loop-bound overruns each produce a
crash segment guarded by the condition that triggers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import smt
from ..obs.trace import clock, tracer
from ..smt import Term
from ..ir.exprs import (
    BinOp,
    BinaryOperator,
    Const,
    Expr,
    LoadField,
    LoadMeta,
    PacketLength,
    Reg,
    UnOp,
    UnaryOperator,
)
from ..ir.program import ElementProgram
from ..ir.stmts import (
    Assert,
    Assign,
    Drop,
    Emit,
    If,
    Nop,
    PullHead,
    PushHead,
    SetMeta,
    Stmt,
    StoreField,
    TableRead,
    TableWrite,
    While,
)
from .errors import PathExplosionError, UnsupportedProgramError
from .merge import MergeCounters, MergeMode, merge_states
from .segment import ElementSummary, SegmentOutcome, summarize_path
from .state import (
    HAVOC_PREFIX,
    INPUT_META_PREFIX,
    HavocRead,
    PathState,
    SymbolicPacket,
    TableWriteRecord,
)


class StaticTableMode:
    """How static tables are treated during symbolic execution."""

    #: Encode the actual table contents (configuration-specific proofs).
    CONCRETE = "concrete"
    #: Havoc reads (proofs that hold for *any* table configuration).
    HAVOC = "havoc"


@dataclass
class SymbexOptions:
    """Budgets and policies for one symbolic execution run."""

    max_paths: int = 4096
    max_seconds: Optional[float] = None
    static_table_mode: str = StaticTableMode.CONCRETE
    #: Conflict budget of each CDCL search.  A search that spends it
    #: answers ``unknown``, which never prunes a path: Step 1 keeps the
    #: branch, and a violation Step 2 cannot decide yields ``unknown``.
    solver_max_conflicts: Optional[int] = 200_000
    #: Directory of the persistent L3 query-cache tier (``None`` keeps the
    #: in-memory tiers only).  Excluded from summary/verdict store keys:
    #: the cache changes how queries are answered, never what they answer.
    query_cache_dir: Optional[str] = None
    #: Enable span tracing (:mod:`repro.obs`) in whatever process runs the
    #: engine — how fork workers learn the parent is tracing.  Purely
    #: observational, so it is excluded from summary/verdict store keys.
    trace: bool = False
    #: Path-merging policy at branch joins (:mod:`repro.symbex.merge`):
    #: ``off`` never merges (the differential-testing reference),
    #: ``conservative`` (default) merges alive siblings within the ite
    #: budget below.  Merging changes summary *content* (ite
    #: lifting, max-lifted instruction counts) but never verdicts, so it
    #: is part of the summary store key and not the verdict key.
    merge: str = MergeMode.CONSERVATIVE
    #: A pairwise merge introducing more than this many ite terms is
    #: rejected (solver queries would silently get harder).
    merge_max_ites: int = 64


class SymbolicEngine:
    """Symbolically executes one element program on a symbolic packet."""

    def __init__(
        self,
        options: Optional[SymbexOptions] = None,
        query_cache: Optional[smt.QueryCache] = None,
    ) -> None:
        """``query_cache`` shares one slicing/verdict cache across engines
        (the :class:`repro.verify.cache.SummaryCache` passes its own);
        standalone engines build one from the options."""
        self.options = options or SymbexOptions()
        if self.options.trace:
            # Idempotent: how a fork worker (whose parent set the flag on
            # the shipped options) turns tracing on in its own process.
            from ..obs.trace import enable

            enable()
        self.checker = smt.AssumptionChecker(
            max_conflicts=self.options.solver_max_conflicts,
            query_cache=query_cache or smt.build_query_cache(self.options.query_cache_dir),
        )
        if self.options.merge not in MergeMode.ALL:
            raise ValueError(
                f"unknown merge mode {self.options.merge!r}; expected one of {MergeMode.ALL}"
            )
        self.solver_checks = 0
        self.merge_counters = MergeCounters()
        self._havoc_counter = 0
        self._deadline: Optional[float] = None
        self._element_name = ""

    # -- public API ----------------------------------------------------------------------

    def execute_program(
        self,
        program: ElementProgram,
        packet: SymbolicPacket,
        tables: Optional[Dict[str, object]] = None,
        element_name: Optional[str] = None,
        initial_constraints: Sequence[Term] = (),
        initial_metadata: Optional[Dict[str, Term]] = None,
    ) -> List[PathState]:
        """Explore all feasible paths of ``program`` and return their terminal states.

        ``initial_constraints`` and ``initial_metadata`` seed the root path
        state; the monolithic whole-pipeline verifier uses them to carry the
        upstream path condition into the next element.
        """
        if self.options.max_seconds is not None and self._deadline is None:
            self._deadline = clock() + self.options.max_seconds
        self._tables = tables or {}
        self._program = program
        self._element_name = element_name or program.name
        root = PathState(packet=packet)
        root.constraints.extend(initial_constraints)
        if initial_metadata:
            root.metadata.update(initial_metadata)
        states = self._run_block(program.body, [root])
        finished: List[PathState] = []
        for state in states:
            if not state.terminated:
                # Falling off the end of the program emits on port 0 (same
                # convention as the concrete interpreter).
                state.terminate(SegmentOutcome.EMIT, port=0)
            if self._is_feasible(state):
                finished.append(state)
        return finished

    def summarize_element(
        self,
        program: ElementProgram,
        input_length: int,
        tables: Optional[Dict[str, object]] = None,
        element_name: Optional[str] = None,
    ) -> ElementSummary:
        """Step-1 primitive: symbex an element on a fresh symbolic packet and summarise it."""
        started = clock()
        queries = self.checker.query_cache.statistics
        sat_core_before = queries.sat_core_calls
        merged_before = self.merge_counters.paths_merged
        ites_before = self.merge_counters.ites_introduced
        rejected_before = self.merge_counters.merge_rejected
        name = element_name or program.name
        packet = SymbolicPacket.fresh(input_length)
        states = self.execute_program(program, packet, tables=tables, element_name=name)
        summary = ElementSummary(element_name=name, input_length=input_length)
        for index, state in enumerate(states):
            summary.segments.append(summarize_path(name, index, state))
        summary.paths_explored = len(states)
        summary.solver_checks = self.solver_checks
        summary.feasibility_memo_hits = self.checker.memo_hits
        summary.merge_mode = self.options.merge
        summary.paths_merged = self.merge_counters.paths_merged - merged_before
        summary.ites_introduced = self.merge_counters.ites_introduced - ites_before
        summary.merge_rejected = self.merge_counters.merge_rejected - rejected_before
        summary.elapsed_seconds = clock() - started
        trace = tracer()
        if trace.enabled:
            trace.record_span(
                "symbex.element",
                "symbex",
                started,
                started + summary.elapsed_seconds,
                element=name,
                input_length=input_length,
                segments=len(summary.segments),
                paths=summary.paths_explored,
                sat_core_calls=queries.sat_core_calls - sat_core_before,
                paths_merged=summary.paths_merged,
            )
        return summary

    # -- block / statement execution -------------------------------------------------------

    def _run_block(self, block: Sequence[Stmt], states: List[PathState]) -> List[PathState]:
        current = states
        for stmt in block:
            next_states: List[PathState] = []
            for state in current:
                if state.terminated:
                    next_states.append(state)
                    continue
                next_states.extend(self._run_stmt(stmt, state))
            current = next_states
            self._check_budget(current, stmt)
        return current

    def _explode(self, message: str) -> PathExplosionError:
        """Build (and trace) a budget-explosion error attributed to the element."""
        trace = tracer()
        if trace.enabled:
            trace.event(
                "symbex.explosion", "symbex", element=self._element_name, detail=message
            )
        return PathExplosionError(message, element=self._element_name)

    def _check_budget(self, states: List[PathState], stmt: Optional[Stmt] = None) -> None:
        if len(states) > self.options.max_paths:
            where = f" in element {self._element_name!r}" if self._element_name else ""
            if stmt is not None:
                loop_id = getattr(stmt, "loop_id", None)
                block = type(stmt).__name__ + (f" {loop_id!r}" if loop_id else "")
                where += f" while executing {block}"
            raise self._explode(
                f"path budget of {self.options.max_paths} paths exceeded "
                f"({len(states)} live paths){where}"
            )
        if self._deadline is not None and clock() > self._deadline:
            where = f" in element {self._element_name!r}" if self._element_name else ""
            raise self._explode(
                f"time budget of {self.options.max_seconds} seconds exceeded{where}"
            )

    def _run_stmt(self, stmt: Stmt, state: PathState) -> List[PathState]:
        state.count(1)
        crash_forks: List[PathState] = []

        if isinstance(stmt, Assign):
            value = self._eval(stmt.expr, state, crash_forks)
            state.registers[stmt.dst] = smt.simplify(value)
            return crash_forks + [state]

        if isinstance(stmt, StoreField):
            offset = self._eval(stmt.offset, state, crash_forks)
            value = self._eval(stmt.value, state, crash_forks)
            survived = self._bounds_check(state, crash_forks, offset, stmt.nbytes, "write")
            if survived:
                self._store(state, offset, stmt.nbytes, value)
            return crash_forks + ([state] if survived else [])

        if isinstance(stmt, SetMeta):
            value = self._eval(stmt.value, state, crash_forks)
            state.metadata[stmt.key] = smt.simplify(value)
            return crash_forks + [state]

        if isinstance(stmt, If):
            condition = self._eval(stmt.cond, state, crash_forks)
            return crash_forks + self._fork_if(stmt, condition, state)

        if isinstance(stmt, While):
            return crash_forks + self._run_while(stmt, state)

        if isinstance(stmt, Assert):
            condition = self._eval(stmt.cond, state, crash_forks)
            holds = self._as_condition(condition)
            fails = smt.simplify(smt.Not(holds))
            if not fails.is_false() and self._is_feasible(state, fails):
                crash_state = state.fork()
                crash_state.add_constraint(fails)
                crash_state.terminate(SegmentOutcome.CRASH, crash_message=stmt.message)
                crash_forks.append(crash_state)
            if fails.is_true():
                return crash_forks
            state.add_constraint(holds)
            return crash_forks + [state]

        if isinstance(stmt, Emit):
            state.terminate(SegmentOutcome.EMIT, port=stmt.port)
            return [state]

        if isinstance(stmt, Drop):
            state.terminate(SegmentOutcome.DROP, drop_reason=stmt.reason)
            return [state]

        if isinstance(stmt, PushHead):
            state.packet.push_head([smt.BitVecVal(0, 8) for _ in range(stmt.nbytes)])
            return [state]

        if isinstance(stmt, PullHead):
            if stmt.nbytes > len(state.packet):
                state.terminate(
                    SegmentOutcome.CRASH,
                    crash_message=(
                        f"pull of {stmt.nbytes} bytes from a {len(state.packet)}-byte packet"
                    ),
                )
                return [state]
            state.packet.pull_head(stmt.nbytes)
            return [state]

        if isinstance(stmt, TableRead):
            key = self._eval(stmt.key, state, crash_forks)
            value, found = self._table_read(stmt.table, key, state)
            state.registers[stmt.dst_value] = value
            state.registers[stmt.dst_found] = found
            return crash_forks + [state]

        if isinstance(stmt, TableWrite):
            key = self._eval(stmt.key, state, crash_forks)
            value = self._eval(stmt.value, state, crash_forks)
            state.table_writes.append(
                TableWriteRecord(table=stmt.table, key=smt.simplify(key), value=smt.simplify(value))
            )
            return crash_forks + [state]

        if isinstance(stmt, Nop):
            return [state]

        raise UnsupportedProgramError(f"cannot symbolically execute {type(stmt).__name__}")

    # -- control flow ------------------------------------------------------------------------

    def _fork_if(self, stmt: If, condition: Term, state: PathState) -> List[PathState]:
        holds = self._as_condition(condition)
        fails = smt.simplify(smt.Not(holds))

        results: List[PathState] = []
        take_then = not holds.is_false() and self._is_feasible(state, holds)
        take_else = not fails.is_false() and self._is_feasible(state, fails)

        if take_then and take_else:
            then_state = state.fork()
            then_state.add_constraint(holds)
            results.extend(self._run_block(stmt.then, [then_state]))
            else_state = state
            else_state.add_constraint(fails)
            results.extend(self._run_block(stmt.orelse, [else_state]))
            results = self._merge_join(results)
        elif take_then:
            if not holds.is_true():
                state.add_constraint(holds)
            results.extend(self._run_block(stmt.then, [state]))
        elif take_else:
            if not fails.is_true():
                state.add_constraint(fails)
            results.extend(self._run_block(stmt.orelse, [state]))
        return results

    def _merge_join(self, states: List[PathState]) -> List[PathState]:
        """Fold mergeable sibling states after both arms of an ``If`` complete."""
        if self.options.merge == MergeMode.OFF or len(states) < 2:
            return states
        started = clock()
        before = len(states)
        merged = merge_states(
            states,
            mode=self.options.merge,
            max_ites=self.options.merge_max_ites,
            counters=self.merge_counters,
        )
        if len(merged) < before:
            trace = tracer()
            if trace.enabled:
                trace.record_span(
                    "symbex.merge",
                    "symbex",
                    started,
                    clock(),
                    element=self._element_name,
                    states_in=before,
                    states_out=len(merged),
                )
        return merged

    def _run_while(self, stmt: While, state: PathState) -> List[PathState]:
        finished: List[PathState] = []
        active: List[PathState] = [state]
        for iteration in range(stmt.max_iterations + 1):
            if not active:
                break
            next_active: List[PathState] = []
            for current in active:
                crash_forks: List[PathState] = []
                condition = self._eval(stmt.cond, current, crash_forks)
                finished.extend(crash_forks)
                holds = self._as_condition(condition)
                fails = smt.simplify(smt.Not(holds))

                can_continue = not holds.is_false() and self._is_feasible(current, holds)
                can_exit = not fails.is_false() and self._is_feasible(current, fails)

                if can_exit:
                    exit_state = current.fork() if can_continue else current
                    if not fails.is_true():
                        exit_state.add_constraint(fails)
                    finished.append(exit_state)
                if can_continue:
                    loop_state = current
                    if not holds.is_true():
                        loop_state.add_constraint(holds)
                    if iteration >= stmt.max_iterations:
                        loop_state.terminate(
                            SegmentOutcome.CRASH,
                            crash_message=(
                                f"loop {stmt.loop_id} exceeded its bound of "
                                f"{stmt.max_iterations} iterations"
                            ),
                        )
                        finished.append(loop_state)
                    else:
                        for after_body in self._run_block(stmt.body, [loop_state]):
                            if after_body.terminated:
                                finished.append(after_body)
                            else:
                                next_active.append(after_body)
            active = next_active
            self._check_budget(finished + active, stmt)
        return finished

    # -- expression evaluation ------------------------------------------------------------------

    def _eval(self, expr: Expr, state: PathState, crash_forks: List[PathState]) -> Term:
        state.count(expr.node_count())
        return self._eval_inner(expr, state, crash_forks)

    def _eval_inner(self, expr: Expr, state: PathState, crash_forks: List[PathState]) -> Term:
        if isinstance(expr, Const):
            return smt.BitVecVal(expr.value, 64)
        if isinstance(expr, Reg):
            if expr.name not in state.registers:
                raise UnsupportedProgramError(f"read of unassigned register {expr.name!r}")
            return state.registers[expr.name]
        if isinstance(expr, PacketLength):
            return smt.BitVecVal(len(state.packet), 64)
        if isinstance(expr, LoadMeta):
            if expr.key in state.metadata:
                return state.metadata[expr.key]
            if expr.key not in state.metadata_reads:
                state.metadata_reads[expr.key] = smt.BitVec(f"{INPUT_META_PREFIX}{expr.key}", 64)
            return state.metadata_reads[expr.key]
        if isinstance(expr, LoadField):
            offset = self._eval_inner(expr.offset, state, crash_forks)
            survived = self._bounds_check(state, crash_forks, offset, expr.nbytes, "read")
            if not survived:
                # The main path always crashes here; the value is irrelevant.
                return smt.BitVecVal(0, 64)
            return self._load(state, offset, expr.nbytes)
        if isinstance(expr, BinOp):
            left = self._eval_inner(expr.left, state, crash_forks)
            right = self._eval_inner(expr.right, state, crash_forks)
            return self._binop(expr.op, left, right, state, crash_forks)
        if isinstance(expr, UnOp):
            operand = self._eval_inner(expr.operand, state, crash_forks)
            if expr.op == UnaryOperator.NOT:
                return ~operand
            if expr.op == UnaryOperator.NEG:
                return -operand
            if expr.op == UnaryOperator.LOGNOT:
                return smt.If(smt.Eq(operand, smt.BitVecVal(0, 64)), _one(), _zero())
        raise UnsupportedProgramError(f"cannot evaluate {type(expr).__name__} symbolically")

    def _binop(
        self, op: str, left: Term, right: Term, state: PathState, crash_forks: List[PathState]
    ) -> Term:
        if op == BinaryOperator.ADD:
            return left + right
        if op == BinaryOperator.SUB:
            return left - right
        if op == BinaryOperator.MUL:
            return left * right
        if op in (BinaryOperator.UDIV, BinaryOperator.UREM):
            self._trap_check(
                state,
                crash_forks,
                smt.Eq(right, smt.BitVecVal(0, 64)),
                "division by zero" if op == BinaryOperator.UDIV else "remainder by zero",
            )
            return smt.UDiv(left, right) if op == BinaryOperator.UDIV else smt.URem(left, right)
        if op == BinaryOperator.AND:
            return left & right
        if op == BinaryOperator.OR:
            return left | right
        if op == BinaryOperator.XOR:
            return left ^ right
        if op == BinaryOperator.SHL:
            return left << right
        if op == BinaryOperator.LSHR:
            return smt.LShR(left, right)
        comparisons = {
            BinaryOperator.EQ: smt.Eq,
            BinaryOperator.NE: lambda a, b: smt.Not(smt.Eq(a, b)),
            BinaryOperator.ULT: smt.ULT,
            BinaryOperator.ULE: smt.ULE,
            BinaryOperator.UGT: smt.UGT,
            BinaryOperator.UGE: smt.UGE,
        }
        if op in comparisons:
            return smt.If(comparisons[op](left, right), _one(), _zero())
        raise UnsupportedProgramError(f"unknown binary operator {op!r}")

    # -- packet access ------------------------------------------------------------------------------

    def _bounds_check(
        self,
        state: PathState,
        crash_forks: List[PathState],
        offset: Term,
        nbytes: int,
        what: str,
    ) -> bool:
        """Fork a crash path if the access can be out of bounds.

        Returns False when the access is *always* out of bounds on this
        path (the state has then been terminated as a crash).
        """
        length = len(state.packet)
        out_of_bounds = smt.simplify(
            smt.UGT(offset + smt.BitVecVal(nbytes, 64), smt.BitVecVal(length, 64))
        )
        message = f"out-of-bounds {what} of {nbytes} bytes (packet length {length})"
        return self._trap_check(state, crash_forks, out_of_bounds, message)

    def _trap_check(
        self,
        state: PathState,
        crash_forks: List[PathState],
        trap_condition: Term,
        message: str,
    ) -> bool:
        """Handle a potential crash condition on the current path.

        Adds a crash fork unless the solver refutes the trap, constrains
        the main path to the safe case, and returns False when the solver
        refutes the safe case (the main state is then terminated as the
        crash).
        """
        trap = smt.simplify(trap_condition)
        if trap.is_false():
            return True
        if trap.is_true() or not self._is_feasible(state, smt.Not(trap)):
            state.add_constraint(trap)
            state.terminate(SegmentOutcome.CRASH, crash_message=message)
            return False
        if self._is_feasible(state, trap):
            crash_state = state.fork()
            crash_state.add_constraint(trap)
            crash_state.terminate(SegmentOutcome.CRASH, crash_message=message)
            crash_forks.append(crash_state)
        state.add_constraint(smt.simplify(smt.Not(trap)))
        return True

    def _load(self, state: PathState, offset: Term, nbytes: int) -> Term:
        offset = smt.simplify(offset)
        concrete = self._concrete_value(offset)
        if concrete is not None:
            return state.packet.load(concrete, nbytes)
        parts = [
            state.packet.select(offset + smt.BitVecVal(index, 64), len(state.packet))
            for index in range(nbytes)
        ]
        value = smt.Concat(*parts) if len(parts) > 1 else parts[0]
        return smt.ZeroExt(64 - 8 * nbytes, value)

    def _store(self, state: PathState, offset: Term, nbytes: int, value: Term) -> None:
        offset = smt.simplify(offset)
        concrete = self._concrete_value(offset)
        if concrete is not None:
            state.packet.store(concrete, nbytes, value)
            return
        for index in range(nbytes):
            shift = 8 * (nbytes - 1 - index)
            byte_value = smt.Extract(shift + 7, shift, value)
            target = smt.simplify(offset + smt.BitVecVal(index, 64))
            for position in range(len(state.packet)):
                state.packet.set_byte(
                    position,
                    smt.If(
                        smt.Eq(target, smt.BitVecVal(position, 64)),
                        byte_value,
                        state.packet.byte(position),
                    ),
                )

    @staticmethod
    def _concrete_value(term: Term) -> Optional[int]:
        simplified = smt.simplify(term)
        if simplified.op == smt.Op.BV_CONST:
            return int(simplified.value)  # type: ignore[arg-type]
        return None

    # -- tables -------------------------------------------------------------------------------------

    def _table_read(self, table_name: str, key: Term, state: PathState) -> Tuple[Term, Term]:
        table = self._tables.get(table_name)
        declaration = self._program.tables.get(table_name)
        is_static = declaration is not None and declaration.kind == "static"
        use_concrete = (
            is_static
            and table is not None
            and hasattr(table, "symbolic_read")
            and self.options.static_table_mode == StaticTableMode.CONCRETE
        )
        if use_concrete:
            value, found_bool = table.symbolic_read(key, smt)  # type: ignore[union-attr]
            found = smt.If(found_bool, _one(), _zero())
            return smt.simplify(value), smt.simplify(found)

        # Havoc the read: the key/value-store model of the paper.  The value
        # is unconstrained; the found flag is an unconstrained 0/1.
        self._havoc_counter += 1
        value_name = f"{HAVOC_PREFIX}_{table_name}_{self._havoc_counter}_value"
        found_name = f"{HAVOC_PREFIX}_{table_name}_{self._havoc_counter}_found"
        value = smt.BitVec(value_name, 64)
        found = smt.BitVec(found_name, 64)
        state.add_constraint(smt.ULE(found, _one()))
        state.havoc_reads.append(
            HavocRead(table=table_name, key=smt.simplify(key), value_var=value_name, found_var=found_name)
        )
        return value, found

    # -- conditions and feasibility --------------------------------------------------------------------

    @staticmethod
    def _as_condition(term: Term) -> Term:
        """Convert a 64-bit 0/1 expression into a boolean condition."""
        simplified = smt.simplify(term)
        if simplified.op == smt.Op.BV_ITE:
            cond, then, other = simplified.args
            then_value = then.value if then.op == smt.Op.BV_CONST else None
            other_value = other.value if other.op == smt.Op.BV_CONST else None
            if then_value == 1 and other_value == 0:
                return cond
            if then_value == 0 and other_value == 1:
                return smt.simplify(smt.Not(cond))
        if simplified.op == smt.Op.BV_CONST:
            return smt.TRUE if int(simplified.value) != 0 else smt.FALSE  # type: ignore[arg-type]
        return smt.Not(smt.Eq(simplified, smt.BitVecVal(0, 64)))

    def _is_feasible(self, state: PathState, *extra: Term) -> bool:
        """False only when the solver proves the path condition ∧ ``extra`` unsatisfiable.

        An ``unknown`` answer (a spent conflict budget) keeps the branch,
        trap fork or terminal state: over-approximating the paths is
        sound for proofs, and a violation Step 2 then cannot decide makes
        the verdict ``unknown`` instead of ``proved``.
        """
        self.solver_checks += 1
        if not state.constraints and not extra:
            return True
        status, _model = self.checker.check(state.constraints, extra)
        return status != smt.CheckResult.UNSAT


def _one() -> Term:
    return smt.BitVecVal(1, 64)


def _zero() -> Term:
    return smt.BitVecVal(0, 64)
