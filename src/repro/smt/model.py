"""Models (satisfying assignments) returned by the solver."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

from .evaluate import Memo, Value, evaluate
from .terms import Term


class Model:
    """A satisfying assignment mapping variable names to concrete values.

    Variables that do not appear in the assignment are treated as zero /
    false when evaluating terms: the solver only records variables that
    were relevant to the query, and any value works for the others.
    ``fill=-1`` makes them read as all ones / true instead (the query
    cache's second canned probe).

    A model is immutable and term uids are never reused, so the value of
    every term node it has evaluated is memoised by ``uid`` for the
    model's lifetime: a node shared by many terms is evaluated once.  The
    memo holds uids and values, never terms, so it keeps no term alive.
    Uids are process-local, so a model pickles and copies without it.
    """

    #: Node-memo size bound; the memo is dropped whole past it (uids are
    #: never reused, so no entry can become wrong, only unreachable).
    MEMO_LIMIT = 4096

    def __init__(
        self, assignment: Mapping[str, Value] | None = None, *, fill: Value = 0
    ) -> None:
        self._assignment: Dict[str, Value] = dict(assignment or {})
        self._fill = fill
        self._memo: Memo = {}

    def __getstate__(self):
        return self._assignment, self._fill

    def __setstate__(self, state) -> None:
        self._assignment, self._fill = state
        self._memo = {}

    def __getitem__(self, name: str) -> Value:
        return self._assignment[name]

    def get(self, name: str, default: Value = 0) -> Value:
        return self._assignment.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def items(self):
        return self._assignment.items()

    def as_dict(self) -> Dict[str, Value]:
        return dict(self._assignment)

    def evaluate(self, term: Term) -> Value:
        """Evaluate a term under this model (unbound variables read as the fill)."""
        if len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
        return evaluate(term, self._assignment, self._fill, self._memo)

    def satisfies(self, term: Term) -> bool:
        """True if the boolean term evaluates to true under this model."""
        value = self._memo.get(term.uid)
        if value is None:
            value = self.evaluate(term)
        return bool(value)

    def __repr__(self) -> str:
        entries = ", ".join(f"{k}={v}" for k, v in sorted(self._assignment.items()))
        return f"Model({entries})"


def model_from_bits(
    variable_bits: Mapping[tuple[str, int], list[int]],
    boolean_variables: Mapping[str, int],
    sat_assignment: list[bool],
) -> Model:
    """Build a model from the bit-blaster's variable map and a SAT assignment."""

    def lit_value(literal: int) -> bool:
        value = sat_assignment[abs(literal)] if abs(literal) < len(sat_assignment) else False
        return value if literal > 0 else not value

    assignment: Dict[str, Value] = {}
    for (name, _width), bits in variable_bits.items():
        value = 0
        for position, literal in enumerate(bits):
            if lit_value(literal):
                value |= 1 << position
        assignment[name] = value
    for name, literal in boolean_variables.items():
        assignment[name] = lit_value(literal)
    return Model(assignment)
