"""Unsigned-interval quick checks for conjunctions of simple constraints.

Path constraints produced by the symbolic executor are conjunctions of
comparisons between packet-field expressions and constants.  Before paying
for bit-blasting and SAT, the solver runs this light-weight pass: each
distinct non-constant sub-term appearing in a comparison against a
constant is treated as an opaque *pseudo-variable* with an unsigned
interval; intervals are intersected across the conjuncts.  An empty
interval proves unsatisfiability.  When every conjunct was understood and
every constrained term is a genuine variable, a model can be produced
directly, proving satisfiability without SAT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import EvaluationError
from .evaluate import evaluate
from .terms import Op, Term, intern_term


@dataclass
class Interval:
    """A closed unsigned interval with a set of excluded points."""

    lo: int
    hi: int
    excluded: set[int] = field(default_factory=set)

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.hi - self.lo + 1 <= len(self.excluded):
            # Only worth scanning when the exclusions could cover the interval.
            return all(value in self.excluded for value in range(self.lo, self.hi + 1))
        return False

    def pick(self) -> Optional[int]:
        """Return some value in the interval, or None if empty."""
        if self.lo > self.hi:
            return None
        for value in range(self.lo, min(self.hi, self.lo + len(self.excluded) + 1) + 1):
            if value not in self.excluded:
                return value
        return None


class QuickCheckResult:
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class QuickCheckOutcome:
    """Result of the interval pre-check, with a model when one was constructed."""

    status: str
    model: Dict[str, int] = field(default_factory=dict)
    reason: str = ""


def _conjuncts(term: Term) -> List[Term]:
    if term.op == Op.AND:
        parts: List[Term] = []
        for arg in term.args:
            parts.extend(_conjuncts(arg))
        return parts
    return [term]


def quick_check(constraint: Term) -> QuickCheckOutcome:
    """Attempt to decide a constraint with interval reasoning alone.

    Returns an outcome whose ``status`` is ``UNSAT`` when a contradiction
    was found, ``SAT`` when a model was built (only possible when every
    conjunct is a simple comparison over plain variables), and ``UNKNOWN``
    otherwise.
    """
    if constraint.is_false():
        return QuickCheckOutcome(QuickCheckResult.UNSAT, reason="constant false")
    if constraint.is_true():
        return QuickCheckOutcome(QuickCheckResult.SAT, model={})

    # Keyed by interned uid: structurally equal subjects share one interval,
    # distinct ones never do.
    intervals: Dict[int, Interval] = {}
    subjects: Dict[int, Term] = {}
    all_understood = True

    for conjunct in _conjuncts(constraint):
        understood = _apply_conjunct(conjunct, intervals, subjects)
        if not understood:
            all_understood = False

    for key, interval in intervals.items():
        if interval.is_empty():
            return QuickCheckOutcome(
                QuickCheckResult.UNSAT,
                reason=f"interval for {subjects[key].to_sexpr(max_depth=64)} is empty"
                f" ([{interval.lo}, {interval.hi}]"
                f" minus {len(interval.excluded)} exclusions)",
            )

    if not all_understood:
        return QuickCheckOutcome(QuickCheckResult.UNKNOWN)

    # Every conjunct was a simple comparison.  If every constrained subject is a
    # plain variable we can exhibit a model and conclude satisfiability.
    model: Dict[str, int] = {}
    for key, subject in subjects.items():
        if subject.op != Op.BV_VAR:
            return QuickCheckOutcome(QuickCheckResult.UNKNOWN)
        value = intervals[key].pick()
        if value is None:
            return QuickCheckOutcome(
                QuickCheckResult.UNSAT,
                reason=f"no value left for {subject.to_sexpr(max_depth=64)}",
            )
        model[subject.name] = value  # type: ignore[index]
    # Confirm the model against the original constraint (defensive: interval
    # reasoning over independent variables cannot interact, but evaluation is cheap).
    try:
        if evaluate(constraint, model):
            return QuickCheckOutcome(QuickCheckResult.SAT, model=model)
    except EvaluationError:  # pragma: no cover - defensive
        pass
    return QuickCheckOutcome(QuickCheckResult.UNKNOWN)


def _comparison_parts(conjunct: Term) -> Optional[Tuple[str, Term, int, bool]]:
    """Decompose ``conjunct`` into (op, subject, constant, subject_on_left)."""
    if conjunct.op not in (Op.EQ, Op.DISTINCT, Op.ULT, Op.ULE):
        return None
    left, right = conjunct.args
    if right.op == Op.BV_CONST and left.op != Op.BV_CONST:
        return conjunct.op, left, int(right.value), True  # type: ignore[arg-type]
    if left.op == Op.BV_CONST and right.op != Op.BV_CONST:
        return conjunct.op, right, int(left.value), False  # type: ignore[arg-type]
    return None


def _apply_conjunct(
    conjunct: Term, intervals: Dict[int, Interval], subjects: Dict[int, Term]
) -> bool:
    """Fold one conjunct into the interval map.  Returns True if understood."""
    negated = False
    if conjunct.op == Op.NOT:
        negated = True
        conjunct = conjunct.args[0]

    parts = _comparison_parts(conjunct)
    if parts is None:
        return False
    op, subject, constant, subject_left = parts
    if not subject.is_bitvec():
        return False

    key = intern_term(subject).uid
    interval = intervals.get(key)
    if interval is None:
        interval = Interval(0, (1 << subject.width) - 1)
        intervals[key] = interval
        subjects[key] = subject

    if negated:
        if op == Op.EQ:
            op = Op.DISTINCT
        elif op == Op.DISTINCT:
            op = Op.EQ
        elif op == Op.ULT:
            # not(subject < c)  ->  subject >= c ; not(c < subject) -> subject <= c
            op, subject_left = (Op.ULE, not subject_left)
        elif op == Op.ULE:
            op, subject_left = (Op.ULT, not subject_left)

    if op == Op.EQ:
        interval.lo = max(interval.lo, constant)
        interval.hi = min(interval.hi, constant)
    elif op == Op.DISTINCT:
        interval.excluded.add(constant)
    elif op == Op.ULT:
        if subject_left:
            interval.hi = min(interval.hi, constant - 1)
        else:
            interval.lo = max(interval.lo, constant + 1)
    elif op == Op.ULE:
        if subject_left:
            interval.hi = min(interval.hi, constant)
        else:
            interval.lo = max(interval.lo, constant)
    return True
