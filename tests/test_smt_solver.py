"""Unit and property-based tests for the SAT backend and the Solver facade."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import smt
from repro.smt import (
    And,
    BitVec,
    BitVecVal,
    Bool,
    CheckResult,
    Eq,
    EvaluationError,
    If,
    Iff,
    Implies,
    Model,
    Not,
    Or,
    Solver,
    UGT,
    ULE,
    ULT,
    evaluate,
)
from repro.smt import SLE, SLT
from repro.smt.cnf import CNFBuilder
from repro.smt.errors import SolverError
from repro.smt.interval import QuickCheckResult, quick_check
from repro.smt.terms import (
    Op,
    mk_and,
    mk_bool_const,
    mk_bv_binop,
    mk_bv_unop,
    mk_cmp,
    mk_concat,
    mk_eq,
    mk_extract,
    mk_implies,
    mk_ite,
    mk_not,
    mk_or,
    mk_sign_extend,
    mk_xor,
    mk_zero_extend,
)
from repro.smt.sat import SATSolver, SatResult, luby, solve_clauses


def check_formula(formula):
    """One-shot check of a single boolean term: (status, model-or-None)."""
    solver = Solver(enable_cache=False)
    solver.add(formula)
    status = solver.check()
    return status, solver.model() if status == CheckResult.SAT else None


class TestSATSolver:
    def test_trivial_sat(self):
        result, model = solve_clauses([[1], [2, 3]], num_vars=3)
        assert result == SatResult.SAT
        assert model[1] is True

    def test_trivial_unsat(self):
        result, _model = solve_clauses([[1], [-1]], num_vars=1)
        assert result == SatResult.UNSAT

    def test_pigeonhole_unsat(self):
        # 3 pigeons in 2 holes: variable p(i,h) = 2*i + h + 1.
        clauses = []
        for pigeon in range(3):
            clauses.append([2 * pigeon + 1, 2 * pigeon + 2])
        for hole in range(2):
            for a in range(3):
                for b in range(a + 1, 3):
                    clauses.append([-(2 * a + hole + 1), -(2 * b + hole + 1)])
        result, _model = solve_clauses(clauses, num_vars=6)
        assert result == SatResult.UNSAT

    def test_model_satisfies_clauses(self):
        rng = random.Random(42)
        for _ in range(25):
            num_vars = rng.randrange(3, 10)
            clauses = []
            for _ in range(rng.randrange(3, 25)):
                clause = [
                    rng.choice([1, -1]) * rng.randrange(1, num_vars + 1)
                    for _ in range(rng.randrange(1, 4))
                ]
                clauses.append(clause)
            result, model = solve_clauses(clauses, num_vars=num_vars)
            brute = self._brute_force(clauses, num_vars)
            assert (result == SatResult.SAT) == brute
            if result == SatResult.SAT:
                assert model is not None
                for clause in clauses:
                    assert any(
                        (model[abs(lit)] if lit > 0 else not model[abs(lit)]) for lit in clause
                    )

    @staticmethod
    def _brute_force(clauses, num_vars):
        for assignment in range(1 << num_vars):
            values = [(assignment >> i) & 1 == 1 for i in range(num_vars)]
            ok = all(
                any(
                    (values[abs(lit) - 1] if lit > 0 else not values[abs(lit) - 1])
                    for lit in clause
                )
                for clause in clauses
            )
            if ok:
                return True
        return False

    def test_assumptions(self):
        solver = SATSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SatResult.SAT
        assert solver.value(2) is True
        assert solver.solve(assumptions=[-1, -2]) == SatResult.UNSAT

    def test_luby_sequence_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]
        with pytest.raises(ValueError):
            luby(0)

    def test_work_counters_track_search(self):
        """A pigeonhole search hard enough to exceed the Luby restart base
        must record decisions, conflicts, and at least one actual restart."""
        pigeons, holes = 6, 5  # ~170 conflicts: past RESTART_BASE=64
        clauses = []
        for pigeon in range(pigeons):
            clauses.append([holes * pigeon + hole + 1 for hole in range(holes)])
        for hole in range(holes):
            for a in range(pigeons):
                for b in range(a + 1, pigeons):
                    clauses.append([-(holes * a + hole + 1), -(holes * b + hole + 1)])
        solver = SATSolver(pigeons * holes)
        solver.add_clauses(clauses)
        assert solver.solve() == SatResult.UNSAT
        assert solver.conflicts > 64
        assert solver.decisions > 0
        assert solver.restarts >= 1

    def test_restarts_do_not_change_verdicts(self):
        rng = random.Random(99)
        for _ in range(10):
            num_vars = rng.randrange(4, 9)
            clauses = [
                [rng.choice([1, -1]) * rng.randrange(1, num_vars + 1)
                 for _ in range(rng.randrange(1, 4))]
                for _ in range(rng.randrange(5, 30))
            ]
            result, _model = solve_clauses(clauses, num_vars=num_vars)
            assert (result == SatResult.SAT) == TestSATSolver._brute_force(clauses, num_vars)


class TestCNFBuilder:
    def test_constant_literals(self):
        cnf = CNFBuilder()
        assert cnf.lit_and(cnf.TRUE, cnf.TRUE) == cnf.TRUE
        assert cnf.lit_and(cnf.TRUE, cnf.FALSE) == cnf.FALSE
        assert cnf.lit_or(cnf.FALSE, cnf.FALSE) == cnf.FALSE
        assert cnf.lit_xor(cnf.TRUE, cnf.TRUE) == cnf.FALSE

    def test_gate_encodings_agree_with_python(self):
        for gate, reference in (("and", lambda a, b: a and b),
                                ("or", lambda a, b: a or b),
                                ("xor", lambda a, b: a != b)):
            for a_value in (False, True):
                for b_value in (False, True):
                    cnf = CNFBuilder()
                    a, b = cnf.new_var(), cnf.new_var()
                    out = getattr(cnf, f"lit_{gate}")(a, b)
                    cnf.assert_lit(a if a_value else -a)
                    cnf.assert_lit(b if b_value else -b)
                    cnf.assert_lit(out)
                    result, _ = solve_clauses(cnf.clauses, num_vars=cnf.num_vars)
                    expected = reference(a_value, b_value)
                    assert (result == SatResult.SAT) == expected


class TestSolverFacade:
    def test_sat_with_model(self):
        x = BitVec("x", 8)
        solver = Solver()
        solver.add(ULT(x, 10), UGT(x, 7))
        assert solver.check() == CheckResult.SAT
        assert solver.model()["x"] in (8, 9)

    def test_unsat(self):
        x = BitVec("x", 8)
        solver = Solver()
        solver.add(ULT(x, 3), UGT(x, 5))
        assert solver.check() == CheckResult.UNSAT

    def test_model_before_check_raises(self):
        with pytest.raises(SolverError):
            Solver().model()

    def test_push_pop(self):
        x = BitVec("x", 8)
        solver = Solver()
        solver.add(ULT(x, 10))
        solver.push()
        solver.add(UGT(x, 20))
        assert solver.check() == CheckResult.UNSAT
        solver.pop()
        assert solver.check() == CheckResult.SAT
        with pytest.raises(SolverError):
            solver.pop()

    def test_non_boolean_assertion_rejected(self):
        with pytest.raises(SolverError):
            Solver().add(BitVec("x", 8))

    def test_cache_hit_statistics(self):
        x = BitVec("x", 8)
        solver = Solver()
        solver.add(Eq(x, BitVecVal(4, 8)))
        solver.check()
        solver.check()
        assert solver.statistics.cache_hits >= 1

    def test_cache_survives_goal_collection(self):
        """The uid-keyed cache must pin its goal terms: the intern table is
        weak, so an unpinned conjunction would be collected between checks
        and structurally identical repeats would re-intern to new uids."""
        import gc

        x = BitVec("x", 8)
        solver = Solver()
        for _repeat in range(3):
            solver.push()
            solver.add(ULT(x, 10), UGT(x, 3))  # multi-term goal: conjunction is transient
            solver.check()
            solver.pop()
            gc.collect()
        assert solver.statistics.cache_hits >= 2

    def test_multi_variable_arithmetic(self):
        x, y, z = BitVec("x", 16), BitVec("y", 16), BitVec("z", 16)
        status, model = check_formula(
            And(Eq(x + y, BitVecVal(1000, 16)), Eq(y, z * 3), UGT(z, 50), ULT(x, 900))
        )
        assert status == CheckResult.SAT
        assert model is not None
        x_value, y_value, z_value = model["x"], model["y"], model["z"]
        assert (x_value + y_value) % 65536 == 1000
        assert y_value == (z_value * 3) % 65536
        assert z_value > 50 and x_value < 900

    def test_boolean_structure(self):
        a, b, c = Bool("a"), Bool("b"), Bool("c")
        status, model = check_formula(And(Or(a, b), Implies(a, c), Not(c)))
        assert status == CheckResult.SAT
        assert model is not None and model.satisfies(And(Or(a, b), Implies(a, c), Not(c)))


class TestQuickCheck:
    def test_unsat_interval(self):
        x = BitVec("x", 8)
        outcome = quick_check(And(ULT(x, 3), UGT(x, 10)))
        assert outcome.status == QuickCheckResult.UNSAT

    def test_sat_with_model(self):
        x = BitVec("x", 8)
        outcome = quick_check(And(UGT(x, 3), ULT(x, 10)))
        assert outcome.status == QuickCheckResult.SAT
        assert 3 < outcome.model["x"] < 10

    def test_unknown_for_complex_terms(self):
        x, y = BitVec("x", 8), BitVec("y", 8)
        outcome = quick_check(Eq(x + y, BitVecVal(5, 8)))
        assert outcome.status == QuickCheckResult.UNKNOWN

    def test_disequality_exhaustion(self):
        x = BitVec("x", 8)
        constraints = [ULE(x, BitVecVal(1, 8))] + [
            Not(Eq(x, BitVecVal(v, 8))) for v in (0, 1)
        ]
        outcome = quick_check(And(*constraints))
        assert outcome.status == QuickCheckResult.UNSAT

    def test_wraparound_range_is_unsat(self):
        # x > 250 and x < 5 has no unsigned 8-bit witness: the interval
        # [251, 4] is empty (intervals do not wrap).
        x = BitVec("x", 8)
        outcome = quick_check(And(UGT(x, 250), ULT(x, 5)))
        assert outcome.status == QuickCheckResult.UNSAT

    def test_wraparound_subject_stays_unknown_for_sat(self):
        # The subject x+10 is a pseudo-variable: intervals may refute it,
        # but must never *claim* SAT (no model can be exhibited for it).
        x = BitVec("x", 8)
        outcome = quick_check(ULT(x + 10, 5))
        assert outcome.status == QuickCheckResult.UNKNOWN
        conflict = quick_check(And(ULT(x + 1, 3), UGT(x + 1, 7)))
        assert conflict.status == QuickCheckResult.UNSAT

    def test_signed_comparisons_are_not_misjudged(self):
        # SLT/SLE are outside the unsigned-interval domain: the check must
        # answer UNKNOWN, never a wrong verdict (0xFF is -1 signed).
        x = BitVec("x", 8)
        assert quick_check(SLT(x, BitVecVal(0, 8))).status == QuickCheckResult.UNKNOWN
        assert (
            quick_check(And(SLE(x, BitVecVal(5, 8)), UGT(x, 3))).status
            == QuickCheckResult.UNKNOWN
        )
        # And the full solver agrees signed constraints are satisfiable.
        status, model = check_formula(SLT(x, BitVecVal(0, 8)))
        assert status == CheckResult.SAT
        assert model is not None and int(model["x"]) >= 0x80

    def test_width_one_vectors(self):
        b = BitVec("b", 1)
        sat = quick_check(Eq(b, BitVecVal(1, 1)))
        assert sat.status == QuickCheckResult.SAT
        assert sat.model["b"] == 1
        empty = quick_check(And(Eq(b, BitVecVal(1, 1)), Eq(b, BitVecVal(0, 1))))
        assert empty.status == QuickCheckResult.UNSAT
        excluded = quick_check(And(Not(Eq(b, BitVecVal(0, 1))), Not(Eq(b, BitVecVal(1, 1)))))
        assert excluded.status == QuickCheckResult.UNSAT

    def test_deep_subjects_over_distinct_variables_do_not_alias(self):
        # Two 70-deep bvnot chains render alike once cut at depth 64; keyed
        # by uid they stay two pseudo-variables with their own intervals.
        deep_a, deep_b = BitVec("a", 8), BitVec("b", 8)
        for _ in range(70):
            deep_a = mk_bv_unop(Op.BV_NOT, deep_a)
            deep_b = mk_bv_unop(Op.BV_NOT, deep_b)
        formula = mk_and(mk_eq(deep_a, BitVecVal(1, 8)), mk_eq(deep_b, BitVecVal(2, 8)))
        assert evaluate(formula, {"a": 1, "b": 2}) is True  # satisfiable
        assert quick_check(formula).status == QuickCheckResult.UNKNOWN


@st.composite
def bitvector_formula(draw):
    """Random 8-bit formulas over two variables, paired with a reference evaluator."""
    x = BitVec("x", 8)
    y = BitVec("y", 8)

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            choice = draw(st.integers(min_value=0, max_value=2))
            if choice == 0:
                return x
            if choice == 1:
                return y
            return BitVecVal(draw(st.integers(min_value=0, max_value=255)), 8)
        op = draw(st.sampled_from(["add", "sub", "and", "or", "xor", "mul"]))
        a, b = term(depth - 1), term(depth - 1)
        return {
            "add": a + b,
            "sub": a - b,
            "and": a & b,
            "or": a | b,
            "xor": a ^ b,
            "mul": a * b,
        }[op]

    left, right = term(2), term(2)
    comparison = draw(st.sampled_from(["eq", "ult", "ule"]))
    formula = {"eq": Eq, "ult": ULT, "ule": ULE}[comparison](left, right)
    if draw(st.booleans()):
        formula = Not(formula)
    return formula


class TestSolverAgainstEvaluation:
    @settings(max_examples=30, deadline=None)
    @given(bitvector_formula())
    def test_sat_models_satisfy_formula(self, formula):
        status, model = check_formula(formula)
        if status == CheckResult.SAT:
            assert model is not None
            assert bool(model.evaluate(formula)) is True

    @settings(max_examples=20, deadline=None)
    @given(bitvector_formula(), st.integers(0, 255), st.integers(0, 255))
    def test_unsat_means_no_witness(self, formula, x_value, y_value):
        status, _model = check_formula(formula)
        if status == CheckResult.UNSAT:
            assert evaluate(formula, {"x": x_value, "y": y_value}) is False

    @settings(max_examples=30, deadline=None)
    @given(bitvector_formula(), st.integers(0, 255), st.integers(0, 255))
    def test_simplify_preserves_truth(self, formula, x_value, y_value):
        env = {"x": x_value, "y": y_value}
        assert evaluate(formula, env) == evaluate(smt.simplify(formula), env)


@st.composite
def mixed_formula(draw):
    """``bitvector_formula`` joined with the boolean variables ``p`` and ``q``."""
    p, q = Bool("p"), Bool("q")
    formula = draw(bitvector_formula())
    atom = draw(st.sampled_from([p, q, Not(p)]))
    connective = draw(st.sampled_from(["and", "or", "implies", "iff", "ite"]))
    if connective == "ite":
        return If(atom, formula, q)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[connective](atom, formula)


partial_assignment = st.fixed_dictionaries(
    {},
    optional={
        "x": st.integers(0, 255),
        "y": st.integers(0, 255),
        "p": st.booleans(),
        "q": st.booleans(),
    },
)


@st.composite
def formulas_sharing_subterms(draw):
    """A few ``mixed_formula``s and connectives over them, shuffled: most
    terms share whole subterms with terms before or after them."""
    parts = draw(st.lists(mixed_formula(), min_size=2, max_size=4))
    first, second, last = parts[0], parts[1], parts[-1]
    joined = [
        And(first, second),
        Or(Not(second), last),
        If(first, last, Not(second)),
        Iff(last, And(first, second)),
    ]
    return draw(st.permutations(parts + joined))


def _all_ones(terms):
    return {
        name: var.sort.mask if var.is_bitvec() else True
        for term in terms
        for name, var in term.free_variables().items()
    }


def chain_evaluate(term, env):
    """Term evaluation as one ``if`` chain over the operators, with no memo
    and no fill: the reference for :func:`repro.smt.evaluate`'s table."""

    def signed(value, width):
        return value - (1 << width) if value >> (width - 1) else value

    def walk(node):
        op = node.op
        if op == Op.BV_CONST:
            return int(node.value)
        if op == Op.BOOL_CONST:
            return bool(node.value)
        if op == Op.BV_VAR:
            return int(env[node.name]) & node.sort.mask
        if op == Op.BOOL_VAR:
            return bool(env[node.name])
        args = [walk(arg) for arg in node.args]
        if node.is_bitvec():
            width, mask = node.width, node.sort.mask
            a = args[0]
            b = args[1] if len(args) > 1 else None
            if op == Op.BV_ADD:
                return (a + b) & mask
            if op == Op.BV_SUB:
                return (a - b) & mask
            if op == Op.BV_MUL:
                return (a * b) & mask
            if op == Op.BV_UDIV:
                return mask if b == 0 else a // b
            if op == Op.BV_UREM:
                return a if b == 0 else a % b
            if op == Op.BV_AND:
                return a & b
            if op == Op.BV_OR:
                return a | b
            if op == Op.BV_XOR:
                return a ^ b
            if op == Op.BV_SHL:
                return 0 if b >= width else (a << b) & mask
            if op == Op.BV_LSHR:
                return 0 if b >= width else a >> b
            if op == Op.BV_ASHR:
                return (signed(a, width) >> min(b, width)) & mask
            if op == Op.BV_NEG:
                return -a & mask
            if op == Op.BV_NOT:
                return ~a & mask
            if op == Op.BV_CONCAT:
                result = 0
                for child, value in zip(node.args, args):
                    result = (result << child.width) | value
                return result
            if op == Op.BV_EXTRACT:
                hi, lo = node.params
                return (a >> lo) & ((1 << (hi - lo + 1)) - 1)
            if op == Op.BV_ZEXT:
                return a
            if op == Op.BV_SEXT:
                return signed(a, node.args[0].width) & mask
            if op == Op.BV_ITE:
                return args[1] if a else args[2]
        elif op in (Op.EQ, Op.DISTINCT, Op.ULT, Op.ULE, Op.SLT, Op.SLE):
            a, b = args
            if op in (Op.SLT, Op.SLE):
                width = node.args[0].width
                a, b = signed(a, width), signed(b, width)
            return {
                Op.EQ: a == b, Op.DISTINCT: a != b, Op.ULT: a < b,
                Op.ULE: a <= b, Op.SLT: a < b, Op.SLE: a <= b,
            }[op]
        elif op == Op.NOT:
            return not args[0]
        elif op == Op.AND:
            return all(args)
        elif op == Op.OR:
            return any(args)
        elif op == Op.XOR:
            return args[0] != args[1]
        elif op == Op.IMPLIES:
            return not args[0] or args[1]
        elif op == Op.IFF:
            return args[0] == args[1]
        elif op == Op.BOOL_ITE:
            return args[1] if args[0] else args[2]
        raise AssertionError(f"no reference for {op!r}")

    return walk(term)


_BV_BINARY = (
    Op.BV_ADD, Op.BV_SUB, Op.BV_MUL, Op.BV_UDIV, Op.BV_UREM, Op.BV_AND,
    Op.BV_OR, Op.BV_XOR, Op.BV_SHL, Op.BV_LSHR, Op.BV_ASHR,
)
_COMPARISONS = (Op.EQ, Op.DISTINCT, Op.ULT, Op.ULE, Op.SLT, Op.SLE)
#: Bytes at the edges of the unsigned and signed ranges, mixed into uniform ones.
_BYTES = st.sampled_from([0, 1, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)


@st.composite
def any_operator_term(draw):
    """A random boolean or 8-bit term over ``x``, ``y`` and ``p`` that may
    use every operator the evaluator knows."""
    x, y, p = BitVec("x", 8), BitVec("y", 8), Bool("p")

    def vector(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from([x, y, BitVecVal(draw(_BYTES), 8)]))
        kind = draw(st.sampled_from(["binary", "unary", "ite", "concat", "zext", "sext"]))
        if kind == "binary":
            op = draw(st.sampled_from(_BV_BINARY))
            return mk_bv_binop(op, vector(depth - 1), vector(depth - 1))
        if kind == "unary":
            return mk_bv_unop(draw(st.sampled_from([Op.BV_NEG, Op.BV_NOT])), vector(depth - 1))
        if kind == "ite":
            return mk_ite(boolean(depth - 1), vector(depth - 1), vector(depth - 1))
        low = mk_extract(vector(depth - 1), 3, 0)
        if kind == "concat":
            return mk_concat(mk_extract(vector(depth - 1), 7, 4), low)
        return (mk_zero_extend if kind == "zext" else mk_sign_extend)(low, 4)

    def boolean(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from([p, mk_bool_const(draw(st.booleans()))]))
        kind = draw(st.sampled_from(["compare", "not", "and", "or", "xor", "implies", "iff", "ite"]))
        if kind == "compare":
            op = draw(st.sampled_from(_COMPARISONS))
            return mk_cmp(op, vector(depth - 1), vector(depth - 1))
        if kind == "not":
            return mk_not(boolean(depth - 1))
        if kind == "ite":
            return mk_ite(boolean(depth - 1), boolean(depth - 1), boolean(depth - 1))
        combine = {
            "and": mk_and, "or": mk_or, "xor": mk_xor, "implies": mk_implies, "iff": mk_eq,
        }[kind]
        return combine(boolean(depth - 1), boolean(depth - 1))

    return boolean(3) if draw(st.booleans()) else vector(3)


class TestEvaluatorAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(any_operator_term(), _BYTES, _BYTES, st.booleans())
    def test_every_operator_matches_the_reference_chain(self, term, x, y, p):
        env = {"x": x, "y": y, "p": p}
        value, expected = evaluate(term, env), chain_evaluate(term, env)
        assert value == expected and type(value) is type(expected)
        # A memo shared across calls under one assignment changes nothing.
        memo = {}
        for node in (term, *term.args, term):
            assert evaluate(node, env, memo=memo) == chain_evaluate(node, env)


def reference_evaluate(term, assignment):
    """Model evaluation without memoisation or fill: collect the free
    variables, bind the unassigned ones to 0/False explicitly, evaluate
    through the reference chain."""
    env = {}
    for name, var in term.free_variables().items():
        if name in assignment:
            env[name] = assignment[name]
        else:
            env[name] = False if var.is_bool() else 0
    return chain_evaluate(term, env)


class TestModelEvaluationAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(mixed_formula(), partial_assignment, partial_assignment)
    def test_memoised_verdicts_match_reference(self, formula, first, second):
        model, other = Model(first), Model(second)
        expected = reference_evaluate(formula, first)
        assert model.evaluate(formula) == expected
        assert model.satisfies(formula) is bool(expected)
        assert model.satisfies(formula) is bool(expected)  # memo hit
        # Another model asked the same term answers from its own assignment.
        assert other.satisfies(formula) is bool(reference_evaluate(formula, second))
        assert model.satisfies(formula) is bool(expected)
        # Without a fill, an unbound variable is still an error (replay needs it).
        with pytest.raises(EvaluationError):
            evaluate(formula, {})

    @settings(max_examples=40, deadline=None)
    @given(mixed_formula())
    def test_all_ones_probe_matches_mask_environment(self, formula):
        ones = _all_ones([formula])
        probe = Model(fill=-1)
        expected = reference_evaluate(formula, ones)
        assert probe.evaluate(formula) == expected
        assert probe.satisfies(formula) is bool(expected)
        assert probe.satisfies(formula) is bool(expected)  # memo hit

    @settings(max_examples=60, deadline=None)
    @given(formulas_sharing_subterms(), partial_assignment)
    def test_one_model_evaluates_terms_sharing_subterms(self, terms, assignment):
        # One model, and one all-ones probe, evaluate every term in turn:
        # each answers from nodes the earlier terms already evaluated, and
        # each answer must still be the one a fresh evaluation gives.
        model, probe = Model(assignment), Model(fill=-1)
        ones = _all_ones(terms)
        for term in terms:
            expected = reference_evaluate(term, assignment)
            assert model.evaluate(term) == expected
            assert model.satisfies(term) is bool(expected)
            probed = reference_evaluate(term, ones)
            assert probe.satisfies(term) is bool(probed)
            assert probe.evaluate(term) == probed
        for term in terms:  # every root is answered from the memo now
            assert model.satisfies(term) is bool(reference_evaluate(term, assignment))

    def test_pickled_and_copied_models_carry_no_memo(self):
        # Uids are process-local: a model that leaves its process, or is
        # copied, starts a new memo and evaluates from its assignment.
        x, p = BitVec("x", 8), Bool("p")
        formula = And(ULT(x + BitVecVal(1, 8), BitVecVal(10, 8)), Not(p))
        model, probe = Model({"x": 3, "p": False}), Model(fill=-1)
        assert model.satisfies(formula) and not probe.satisfies(formula)
        assert model._memo and probe._memo
        for original in (model, probe):
            for clone in (
                pickle.loads(pickle.dumps(original)),
                copy.copy(original),
                copy.deepcopy(original),
            ):
                assert clone._memo == {}
                assert clone.as_dict() == original.as_dict()
                assert clone.satisfies(formula) is original.satisfies(formula)
                assert clone.evaluate(x) == original.evaluate(x)
