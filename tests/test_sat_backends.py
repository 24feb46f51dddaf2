"""The one production SAT core against the reference core.

Production builds every CDCL core through :func:`repro.smt.backend.new_sat_core`,
which returns the flat-arena :class:`ArraySolver`.  The clarity-first
:class:`SATSolver` is the oracle: the two must agree on sat/unsat for
random CNF instances and random bitvector goals, and every SAT model must
evaluate the instance to true.  CNF-level tests build both cores
directly; tests above the CNF level run once as is and once under the
``reference_core`` fixture (``tests/conftest.py``), which swaps the
reference core in at that one construction site.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrator import certify_fleet
from repro.smt import And, AssumptionChecker, BitVec, Eq, Not, Or, Solver, ULE, ULT, backend
from repro.smt.sat import SATSolver, SatResult
from repro.smt.satcore import ArraySolver, solve_clauses
from repro.verify import CrashFreedom, destination_reachability
from repro.workloads import fleet_catalog


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
        for core in (SATSolver, ArraySolver):
            solver = core(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            status = solver.solve(assumptions)
            verdicts[core.__name__] = status
            if status == SatResult.SAT:
                model = solver.model()
                assert assignment_satisfies(model, clauses), (core, clauses, model)
                for lit in assumptions:
                    assert model[abs(lit)] is (lit > 0), (core, lit, model)
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
    def test_backends_agree_on_random_goals(self, seed, reference_core):
        rng = random.Random(seed)
        goal = random_goal(rng)

        def decide():
            solver = Solver(enable_cache=False)
            solver.add(goal)
            status = solver.check()
            if status == "sat":
                assert solver.model().satisfies(goal)
            return status

        array_status = decide()
        with reference_core():
            assert decide() == array_status

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_batched_arena_matches_sequential(self, seed, reference_core):
        """Multi-slice queries through the production checker (the query
        cache's batched arena) agree with the scratch solver, on the
        production core and on the reference one."""
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

        def agree():
            scratch = Solver(enable_cache=False)
            scratch.add(goal)
            status, model = AssumptionChecker().check(groups, need_model=True)
            assert status == scratch.check()
            if status == "sat":
                assert model.satisfies(goal)

        agree()
        with reference_core():
            agree()


class TestLearnedClauseBounds:
    def _hard_instance(self, rng, num_vars=70, ratio=5.0):
        clauses = []
        for _ in range(int(num_vars * ratio)):
            chosen = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        return clauses

    @pytest.mark.parametrize("core", [SATSolver, ArraySolver], ids=["reference", "array"])
    def test_max_learned_bounds_database(self, core):
        rng = random.Random(5)
        clauses = self._hard_instance(rng)
        bounded = core(70, max_learned=25)
        unbounded = core(70)
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


class TestBackendSelection:
    def test_default_is_array(self, reference_core):
        assert isinstance(backend.new_sat_core(), ArraySolver)
        with reference_core():
            assert isinstance(backend.new_sat_core(), SATSolver)
        assert isinstance(backend.new_sat_core(), ArraySolver)

    def test_fleet_runs_the_array_core_and_the_reference_agrees(
        self, reference_core, monkeypatch
    ):
        constructed, searches = [], []
        real_init, real_solve = SATSolver.__init__, SATSolver.solve

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            real_init(self, *args, **kwargs)

        def counting_solve(self, *args, **kwargs):
            searches.append(self)
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(SATSolver, "__init__", counting_init)
        monkeypatch.setattr(SATSolver, "solve", counting_solve)
        properties = [CrashFreedom(), destination_reachability(0x0A000001)]

        def certify():
            report = certify_fleet(fleet_catalog(2), properties, input_lengths=(24,))
            packets = [
                [ce.packet for result in c.results for ce in result.counterexamples]
                for c in report.certifications
            ]
            return report.verdicts(), packets

        production = certify()
        assert constructed == [] and searches == []
        with reference_core():
            assert certify() == production
        assert searches
