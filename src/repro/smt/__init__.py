"""``repro.smt`` — a from-scratch QF_BV constraint solver.

The symbolic executor and verifier state all of their constraints in this
term language and decide every feasibility question through one
:class:`AssumptionChecker`: a feasibility memo over a persistent
:class:`SolverContext`, which slices each query and answers it from the
tiered :class:`QueryCache` or one assumption solve on its retained CNF.
The implementation consists of an immutable term DAG, an algebraic
simplifier, an interval-domain quick check, a Tseitin bit-blaster, and the
flat-array CDCL core :class:`ArraySolver`, built in one place
(:mod:`repro.smt.backend`).  The clarity-first :class:`SATSolver` is the
tests' reference core.

The scratch :class:`Solver` re-decides each query from nothing (fresh
CNF, no slicing or cache tiers).  It is the reference the tests hold the
production path to, and the simplest way to ask one question::

    from repro.smt import BitVec, BitVecVal, Solver, ULT, And

    x = BitVec("x", 8)
    solver = Solver()
    solver.add(And(ULT(x, 10), x > 3))
    assert solver.check() == "sat"
    print(solver.model()["x"])
"""

from .backend import SatBackend
from .builder import (
    AShR,
    And,
    BitVec,
    BitVecVal,
    Bool,
    BoolVal,
    Concat,
    Distinct,
    Eq,
    Extract,
    If,
    Iff,
    Implies,
    LShR,
    Not,
    Or,
    SGE,
    SGT,
    SLE,
    SLT,
    SignExt,
    UDiv,
    UGE,
    UGT,
    ULE,
    ULT,
    URem,
    Xor,
    ZeroExt,
    conjoin,
    disjoin,
    rename_variables,
    substitute,
)
from .errors import (
    BudgetExceededError,
    EvaluationError,
    InvalidTermError,
    SmtError,
    SolverError,
    SortMismatchError,
)
from .context import AssumptionChecker, ContextStatistics, SolverContext
from .evaluate import evaluate
from .model import Model
from .qcache import (
    QueryCache,
    QueryCacheStatistics,
    build_query_cache,
    slice_fingerprint,
    term_digest,
)
from .sat import SATSolver, SatResult
from .satcore import ArraySolver
from .simplify import is_literal_false, is_literal_true, simplify
from .slicing import Slice, free_variable_names, partition
from .solver import CheckResult, Solver, SolverStatistics
from .sorts import BOOL, BitVecSort, BoolSort, Sort, bitvec
from .terms import FALSE, TRUE, Op, Term, intern_term, iter_dag, mk_term

__all__ = [
    "AShR",
    "And",
    "ArraySolver",
    "AssumptionChecker",
    "SATSolver",
    "SatBackend",
    "SatResult",
    "BOOL",
    "BitVec",
    "BitVecSort",
    "BitVecVal",
    "Bool",
    "BoolSort",
    "BoolVal",
    "BudgetExceededError",
    "CheckResult",
    "Concat",
    "ContextStatistics",
    "Distinct",
    "Eq",
    "EvaluationError",
    "Extract",
    "FALSE",
    "If",
    "Iff",
    "Implies",
    "InvalidTermError",
    "LShR",
    "Model",
    "Not",
    "Op",
    "Or",
    "QueryCache",
    "QueryCacheStatistics",
    "SGE",
    "SGT",
    "SLE",
    "SLT",
    "SignExt",
    "Slice",
    "SmtError",
    "Solver",
    "SolverContext",
    "SolverError",
    "SolverStatistics",
    "Sort",
    "SortMismatchError",
    "TRUE",
    "Term",
    "UDiv",
    "UGE",
    "UGT",
    "ULE",
    "ULT",
    "URem",
    "Xor",
    "ZeroExt",
    "bitvec",
    "build_query_cache",
    "conjoin",
    "disjoin",
    "evaluate",
    "free_variable_names",
    "intern_term",
    "is_literal_false",
    "is_literal_true",
    "iter_dag",
    "mk_term",
    "partition",
    "rename_variables",
    "simplify",
    "slice_fingerprint",
    "substitute",
    "term_digest",
]
