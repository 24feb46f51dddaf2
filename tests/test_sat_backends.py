"""Differential tests across the pluggable SAT backends.

The reference solver is the oracle: every other backend must agree with
it on sat/unsat for random CNF instances and random bitvector goals, and
every SAT model must evaluate the instance to true.  DIMACS emit/parse
round-trips (including assumption handling) and the subprocess bridge
are covered here too; the external-binary suite skips cleanly when no
solver is installed.
"""

import os
import random
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import And, AssumptionChecker, BitVec, Eq, Not, Or, Solver, ULE, ULT
from repro.smt.backend import (
    ARRAY,
    EXTERNAL,
    REFERENCE,
    ExternalSolver,
    available_backends,
    find_external_solver,
    make_sat_solver,
    parse_dimacs,
    parse_solver_output,
    to_dimacs,
)
from repro.smt.errors import SolverError
from repro.smt.sat import SATSolver, SatResult
from repro.smt.satcore import ArraySolver, solve_clauses


def random_cnf(rng, num_vars, num_clauses, width=4):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        clauses.append(
            [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(size)]
        )
    return clauses


def assignment_satisfies(model, clauses):
    return all(
        any((model[abs(lit)] if lit > 0 else not model[abs(lit)]) for lit in clause)
        for clause in clauses
    )


def local_backends():
    return [name for name in available_backends() if name != EXTERNAL]


class TestDifferentialCnf:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_on_random_cnf(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 14)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 50))
        assumptions = [
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(0, 3))
        ]
        verdicts = {}
        for name in local_backends():
            solver = make_sat_solver(name, num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            status = solver.solve(assumptions)
            verdicts[name] = status
            if status == SatResult.SAT:
                model = solver.model()
                assert assignment_satisfies(model, clauses), (name, clauses, model)
                for lit in assumptions:
                    assert model[abs(lit)] is (lit > 0), (name, lit, model)
        assert len(set(verdicts.values())) == 1, verdicts

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_stream_feed_matches_per_clause_feed(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 10)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 40), width=5)
        flat = []
        for clause in clauses:
            flat.extend(clause)
            flat.append(0)
        one = ArraySolver(num_vars)
        for clause in clauses:
            one.add_clause(clause)
        bulk = ArraySolver(num_vars)
        bulk.add_clause_stream(flat)
        assert one.solve() == bulk.solve()

    def test_solve_clauses_wrapper(self):
        status, model = solve_clauses([[1, 2], [-1], [-2, 3]], num_vars=3)
        assert status == SatResult.SAT
        assert model[2] is True and model[3] is True


BV_WIDTH = 8


def random_goal(rng):
    """A random conjunction of comparisons over a few 8-bit variables."""
    variables = [BitVec(name, BV_WIDTH) for name in ("a", "b", "c")]

    def atom():
        left = rng.choice(variables)
        right = rng.choice(variables + [rng.randint(0, 255)])
        op = rng.choice([ULT, ULE, Eq, lambda x, y: Not(Eq(x, y))])
        return op(left, right)

    conjuncts = [atom() for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.4:
        conjuncts.append(Or(atom(), atom()))
    return And(*conjuncts)


class TestDifferentialBitvector:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_random_goals(self, seed):
        rng = random.Random(seed)
        goal = random_goal(rng)
        verdicts = {}
        for name in local_backends():
            solver = Solver(sat_backend=name, enable_cache=False)
            solver.add(goal)
            status = solver.check()
            verdicts[name] = status
            if status == "sat":
                assert solver.model().satisfies(goal)
        assert len(set(verdicts.values())) == 1, verdicts

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_batched_arena_matches_sequential(self, seed):
        """Multi-slice queries through the production checker (the query
        cache's batched arena) agree with the scratch solver on every
        available backend — the external one too, where a solver binary
        is installed."""
        rng = random.Random(seed)
        # Disjoint variable groups force multiple slices.
        groups = []
        for prefix in ("x", "y", "z"):
            variables = [BitVec(f"{prefix}{i}", BV_WIDTH) for i in range(2)]
            groups.append(
                And(
                    ULT(variables[0], rng.randint(1, 255)),
                    rng.choice([ULE, ULT, Eq])(variables[0], variables[1]),
                )
            )
        goal = And(*groups)
        for name in available_backends():
            scratch = Solver(sat_backend=name, enable_cache=False)
            scratch.add(goal)
            status, model = AssumptionChecker(sat_backend=name).check(groups, need_model=True)
            assert status == scratch.check()
            if status == "sat":
                assert model.satisfies(goal)


class TestLearnedClauseBounds:
    def _hard_instance(self, rng, num_vars=70, ratio=5.0):
        clauses = []
        for _ in range(int(num_vars * ratio)):
            chosen = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        return clauses

    @pytest.mark.parametrize("backend", [REFERENCE, ARRAY])
    def test_max_learned_bounds_database(self, backend):
        rng = random.Random(5)
        clauses = self._hard_instance(rng)
        bounded = make_sat_solver(backend, 70, max_learned=25)
        unbounded = make_sat_solver(backend, 70)
        for clause in clauses:
            bounded.add_clause(clause)
            unbounded.add_clause(clause)
        assert bounded.solve() == unbounded.solve()
        assert bounded.db_reductions > 0
        # The bound holds between reductions up to the in-flight clauses
        # recorded since the last sweep (checked loosely: far below the
        # unbounded count on an instance this conflict-heavy).
        assert bounded.learned_clause_count <= 25

    def test_reduction_keeps_verdicts_incremental(self):
        rng = random.Random(6)
        solver = ArraySolver(50, max_learned=15)
        oracle = SATSolver(50, max_learned=15)
        for round_number in range(4):
            batch = self._hard_instance(rng, num_vars=50, ratio=1.2)
            solver.cancel()
            oracle.cancel()
            for clause in batch:
                solver.add_clause(clause)
                oracle.add_clause(clause)
            assert solver.solve() == oracle.solve()


class TestDimacs:
    def test_round_trip(self):
        clauses = [[1, -2, 3], [-1], [2, 3, -4, 4]]
        text = to_dimacs(clauses, num_vars=4)
        num_vars, parsed = parse_dimacs(text)
        assert num_vars == 4
        assert parsed == clauses

    def test_round_trip_with_assumptions(self):
        clauses = [[1, 2], [-2, 3]]
        text = to_dimacs(clauses, num_vars=3, assumptions=[-1, 3])
        num_vars, parsed = parse_dimacs(text)
        assert num_vars == 3
        assert parsed == clauses + [[-1], [3]]

    def test_parse_tolerates_comments_and_multiline_clauses(self):
        text = "c a comment\np cnf 3 2\n1 2\n3 0\nc mid\n-1 -3 0\n"
        num_vars, parsed = parse_dimacs(text)
        assert num_vars == 3
        assert parsed == [[1, 2, 3], [-1, -3]]

    def test_parse_rejects_malformed(self):
        with pytest.raises(SolverError):
            parse_dimacs("p cnf oops\n")
        with pytest.raises(SolverError):
            parse_dimacs("p cnf 2 1\n1 2\n")  # missing terminating 0

    def test_parse_solver_output_competition_format(self):
        status, lits = parse_solver_output("c banner\ns SATISFIABLE\nv 1 -2 3\nv 0\n")
        assert status == SatResult.SAT
        assert lits == [1, -2, 3]

    def test_parse_solver_output_minisat_result_file(self):
        status, lits = parse_solver_output("SAT\n1 -2 3 0\n")
        assert status == SatResult.SAT
        assert lits == [1, -2, 3]
        status, lits = parse_solver_output("UNSAT\n")
        assert status == SatResult.UNSAT
        assert lits == []


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            make_sat_solver("quantum")

    def test_default_is_array(self):
        assert isinstance(make_sat_solver(None), ArraySolver)
        assert isinstance(make_sat_solver(REFERENCE), SATSolver)

    def test_missing_external_binary_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_SOLVER", "/nonexistent/sat-solver")
        assert find_external_solver() is None
        with pytest.raises(SolverError):
            make_sat_solver(EXTERNAL)

    def test_available_backends_always_has_local_cores(self):
        names = available_backends()
        assert REFERENCE in names and ARRAY in names


def _fake_solver(tmp_path, script_body):
    path = tmp_path / "fake-solver"
    path.write_text("#!/bin/sh\n" + script_body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestExternalBridge:
    def test_scripted_sat(self, tmp_path, monkeypatch):
        command = _fake_solver(tmp_path, 'echo "s SATISFIABLE"; echo "v 1 -2 0"\n')
        solver = ExternalSolver(2, command=command)
        solver.add_clause([1, -2])
        assert solver.solve() == SatResult.SAT
        assert solver.model()[1] is True and solver.model()[2] is False

    def test_scripted_unsat(self, tmp_path):
        command = _fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
        solver = ExternalSolver(1, command=command)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() == SatResult.UNSAT

    def test_crash_degrades_to_unknown(self, tmp_path):
        command = _fake_solver(tmp_path, 'echo "segfault haiku"; exit 1\n')
        solver = ExternalSolver(1, command=command)
        solver.add_clause([1])
        assert solver.solve() == SatResult.UNKNOWN

    def test_empty_clause_short_circuits(self, tmp_path):
        command = _fake_solver(tmp_path, 'echo "s SATISFIABLE"\n')
        solver = ExternalSolver(1, command=command)
        assert solver.add_clause([]) is False
        assert solver.solve() == SatResult.UNSAT


# REPRO_REQUIRE_EXTERNAL turns the graceful skip into a loud failure:
# the CI external-solver job sets it so a broken solver install reads as
# red, never as silently-skipped coverage.
needs_external = pytest.mark.skipif(
    find_external_solver() is None
    and os.environ.get("REPRO_REQUIRE_EXTERNAL", "") in ("", "0"),
    reason="no external DIMACS solver installed",
)


@needs_external
class TestExternalDifferential:
    """Runs only where a real DIMACS solver binary is installed (CI job)."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_external_agrees_on_random_cnf(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 12)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 40))
        oracle = SATSolver(num_vars)
        external = make_sat_solver(EXTERNAL, num_vars)
        for clause in clauses:
            oracle.add_clause(clause)
            external.add_clause(clause)
        expected = oracle.solve()
        status = external.solve()
        assert status == expected
        if status == SatResult.SAT:
            assert assignment_satisfies(external.model(), clauses)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_external_agrees_on_random_goals(self, seed):
        rng = random.Random(seed)
        goal = random_goal(rng)
        oracle = Solver(sat_backend=REFERENCE, enable_cache=False)
        oracle.add(goal)
        external = Solver(sat_backend=EXTERNAL, enable_cache=False)
        external.add(goal)
        expected = oracle.check()
        status = external.check()
        assert status == expected
        if status == "sat":
            assert external.model().satisfies(goal)

    def test_external_assumptions(self):
        external = make_sat_solver(EXTERNAL, 2)
        external.add_clause([1, 2])
        assert external.solve([-1, -2]) == SatResult.UNSAT
        assert external.solve([-1]) == SatResult.SAT
        assert external.model()[2] is True


if os.environ.get("REPRO_REQUIRE_EXTERNAL"):
    # The dedicated CI job sets this so a broken install fails loudly
    # instead of skipping the whole differential suite.
    assert find_external_solver() is not None, "REPRO_REQUIRE_EXTERNAL set but no solver found"
