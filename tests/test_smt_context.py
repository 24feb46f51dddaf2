"""Tests for the production solver core: interning, assumption checks, and
agreement with the scratch reference."""

import random

import pytest

from repro import smt
from repro.smt import (
    And,
    AssumptionChecker,
    BitVec,
    BitVecVal,
    CheckResult,
    Eq,
    Not,
    Solver,
    SolverContext,
    UGT,
    ULE,
    ULT,
    intern_term,
)
from repro.smt.errors import SolverError
from repro.smt.terms import Op, Term, mk_term
from repro.symbex.engine import SymbolicEngine


class TestInterning:
    def test_intern_identity_iff_structurally_equal(self):
        for first, second, same in [
            (BitVec("x", 8) + 1, BitVec("x", 8) + 1, True),
            (BitVec("x", 8) + 1, BitVec("x", 8) + 2, False),
            (BitVec("x", 8), BitVec("x", 16), False),
            (BitVec("x", 8), BitVec("y", 8), False),
            (ULT(BitVec("x", 8), 5), ULT(BitVec("x", 8), 5), True),
            (smt.Extract(3, 0, BitVec("x", 8)), smt.Extract(3, 0, BitVec("x", 8)), True),
            (smt.Extract(3, 0, BitVec("x", 8)), smt.Extract(4, 1, BitVec("x", 8)), False),
        ]:
            assert (intern_term(first) is intern_term(second)) == same
            assert first.structurally_equal(second) == same

    def test_raw_terms_intern_to_the_constructed_instance(self):
        built = BitVec("z", 8) + BitVecVal(3, 8)
        raw = Term(Op.BV_ADD, (BitVec("z", 8), BitVecVal(3, 8)), built.sort)
        assert raw is not built
        assert intern_term(raw) is built

    def test_constructors_return_shared_instances(self):
        assert BitVec("w", 8) is BitVec("w", 8)
        assert (BitVec("w", 8) + 1) is (BitVec("w", 8) + 1)
        assert smt.BoolVal(True) is smt.TRUE
        assert mk_term(Op.BOOL_CONST, value=True) is smt.TRUE
        assert mk_term(Op.BOOL_CONST, value=False) is smt.FALSE

    def test_interned_terms_share_uids(self):
        a, b = ULE(BitVec("u", 8), 9), ULE(BitVec("u", 8), 9)
        assert a.uid == b.uid
        assert a.uid != ULE(BitVec("u", 8), 10).uid

    def test_bv_const_normalises_before_interning(self):
        assert BitVecVal(256 + 7, 8) is BitVecVal(7, 8)


class TestSolverContextScoping:
    """Each ``check_assumptions`` call decides exactly the terms it is given."""

    def test_assumptions_do_not_persist(self):
        x = BitVec("x", 8)
        context = SolverContext()
        assert context.check_assumptions(ULT(x, 10), UGT(x, 20)) == CheckResult.UNSAT
        assert context.check_assumptions(ULT(x, 10)) == CheckResult.SAT
        assert context.check_assumptions(ULT(x, 10), UGT(x, 5)) == CheckResult.SAT
        assert context.model()["x"] in (6, 7, 8, 9)

    def test_non_boolean_assertion_rejected(self):
        with pytest.raises(SolverError):
            SolverContext().check_assumptions(BitVec("x", 8))
        with pytest.raises(SolverError):
            SolverContext().check_assumptions(ULT(BitVec("x", 8), 10), 3)

    def test_model_before_check_raises(self):
        with pytest.raises(SolverError):
            SolverContext().model()
        x = BitVec("x", 8)
        context = SolverContext()
        assert context.check_assumptions(ULT(x, 10), UGT(x, 20)) == CheckResult.UNSAT
        with pytest.raises(SolverError):
            context.model()

    def test_encodings_are_reused_across_checks(self):
        # A product constraint neither the interval quick check nor the
        # canned probe models decide, so both checks reach the CDCL core.
        x, y = BitVec("x", 8), BitVec("y", 8)
        product = Eq(x * y, BitVecVal(143, 8))
        context = SolverContext()
        assert context.check_assumptions(product) == CheckResult.SAT
        encoded_once = context.statistics.terms_encoded
        other = Not(Eq(x, BitVecVal(int(context.model()["x"]), 8)))
        assert context.check_assumptions(product, other) == CheckResult.SAT
        assert context.query_cache.statistics.sat_core_calls == 2
        assert context.statistics.terms_encoded == encoded_once + 1
        assert context.statistics.literals_reused >= 1


def _random_formula(rng: random.Random) -> "smt.Term":
    """A random 8-bit comparison over two variables (same shape as the SAT tests)."""
    x, y = BitVec("x", 8), BitVec("y", 8)

    def operand(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([x, y, BitVecVal(rng.randrange(256), 8)])
        a, b = operand(depth - 1), operand(depth - 1)
        return rng.choice([a + b, a - b, a & b, a | b, a ^ b, a * b])

    comparison = rng.choice([Eq, ULT, ULE])(operand(2), operand(2))
    return Not(comparison) if rng.random() < 0.5 else comparison


class TestDifferentialAgainstScratch:
    def test_assumption_checks_agree_with_scratch_solver(self):
        """Random scripts that grow, cut and check a constraint list: the
        context and the scratch solver give identical verdicts."""
        rng = random.Random(7)
        for _round in range(15):
            context = SolverContext()
            scratch = Solver(enable_cache=False)
            constraints = []
            scopes = []
            for _step in range(rng.randrange(4, 12)):
                action = rng.random()
                if action < 0.5:
                    formula = _random_formula(rng)
                    constraints.append(formula)
                    scratch.add(formula)
                elif action < 0.7:
                    scopes.append(len(constraints))
                    scratch.push()
                elif action < 0.8 and scopes:
                    del constraints[scopes.pop():]
                    scratch.pop()
                else:
                    extra = _random_formula(rng)
                    assert context.check_assumptions(*constraints, extra) == scratch.check(extra)
            assert context.check_assumptions(*constraints) == scratch.check()

    def test_checker_memo_and_agreement_on_growing_prefixes(self):
        """Append-only constraint lists (the fork-tree shape) agree with scratch."""
        rng = random.Random(11)
        checker = AssumptionChecker()
        scratch = Solver(enable_cache=False)
        constraints = []
        for _step in range(25):
            constraints.append(_random_formula(rng))
            status, model = checker.check(constraints, need_model=True)
            expected = scratch.check(And(*constraints))
            assert status == expected
            if status == CheckResult.SAT:
                assert model is not None
                assert model.satisfies(And(*constraints))
        hits_before = checker.memo_hits
        checker.check(constraints)
        assert checker.memo_hits == hits_before + 1

    def test_sat_models_satisfy_the_active_constraints(self):
        rng = random.Random(3)
        context = SolverContext()
        asserted = []
        for _step in range(20):
            asserted.append(_random_formula(rng))
            if context.check_assumptions(*asserted) == CheckResult.SAT:
                model = context.model()
                for term in asserted:
                    assert model.satisfies(term)
            else:
                break


def _segment_shapes(summary):
    return sorted((segment.outcome, segment.port, segment.instructions) for segment in summary.segments)


class TestEngineModesAgree:
    """The production solve path agrees with the scratch reference
    (the ``scratch_reference`` fixture) on summaries and verdicts."""

    def test_summaries_identical_across_solver_modes(self, scratch_reference):
        from repro.dataplane.elements import CheckIPHeader, DecIPTTL, IPOptions
        from repro.symbex import SymbexOptions
        from repro.workloads.pipelines import SyntheticBranchyElement

        cases = [
            (element, 24, SymbexOptions())
            for element in (
                DecIPTTL(name="ttl"),
                CheckIPHeader(name="chk", verify_checksum=False),
                IPOptions(name="opts", max_options=4),
            )
        ] + [
            (
                SyntheticBranchyElement(branches=branches, offset=0, name=f"branchy{branches}"),
                12,
                SymbexOptions(max_paths=100_000, merge="off"),
            )
            for branches in (2, 3, 4)
        ]

        engines = []

        def summarize(element, length, options):
            engines.append(SymbolicEngine(options))
            return engines[-1].summarize_element(
                element.program, length, tables=element.state.tables(), element_name=element.name
            )

        production = [_segment_shapes(summarize(*case)) for case in cases]
        with scratch_reference():
            reference = [_segment_shapes(summarize(*case)) for case in cases]
        assert production == reference
        assert all(production)
        # The reference really answered: its engines never asked the checker.
        for engine in engines[len(cases):]:
            assert engine.checker.checks == 0
            assert engine._reference_solver.statistics.checks > 0

    def test_verification_verdicts_identical_across_solver_modes(self, scratch_reference):
        from repro.dataplane import Pipeline
        from repro.dataplane.elements import CheckIPHeader, IPOptions
        from repro.symbex import SymbexOptions
        from repro.verify import verify_crash_freedom
        from repro.workloads import ip_router_pipeline

        protected = Pipeline.chain(
            [CheckIPHeader(name="chk", verify_checksum=False), IPOptions(name="opts", max_options=6)],
            name="protected",
        )
        unprotected = Pipeline.chain([IPOptions(name="opts", max_options=6)], name="unprotected")
        router = ip_router_pipeline(length=2, verify_checksum=False)
        cases = [
            (protected, SymbexOptions(), "proved"),
            (unprotected, SymbexOptions(), "violated"),
            (router, SymbexOptions(merge="off"), "proved"),
        ]

        def verdicts():
            return [
                verify_crash_freedom(pipeline, input_lengths=[24], options=options).verdict
                for pipeline, options, _expected in cases
            ]

        production = verdicts()
        with scratch_reference():
            reference = verdicts()
        assert production == reference == [expected for _pipeline, _options, expected in cases]
