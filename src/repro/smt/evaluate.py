"""Concrete evaluation of SMT terms under a variable assignment.

Used for three purposes: validating models returned by the SAT backend,
constant folding in the simplifier, and replaying counterexample packets
produced by the verifier on the concrete dataplane.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Union

from .errors import EvaluationError
from .terms import Op, Term

Value = Union[int, bool]

#: Evaluated nodes, term ``uid`` -> value, under one assignment and fill.
Memo = Dict[int, Value]

#: One evaluator per operator: the node and its children's values in, its value out.
_Operator = Callable[[Term, List[Value]], Value]


def _to_signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def _mask(width: int) -> int:
    return (1 << width) - 1


def evaluate(
    term: Term,
    env: Mapping[str, Value] | None = None,
    fill: Value | None = None,
    memo: Memo | None = None,
) -> Value:
    """Evaluate ``term`` under ``env`` (a mapping from variable name to value).

    Raises :class:`EvaluationError` if a free variable is unbound, unless
    ``fill`` is given: an unbound variable then reads as ``fill``, which
    is 0 (zero / false) or -1 (all ones / true) — the two defaults
    :class:`repro.smt.model.Model` evaluates under.
    Bitvector results are returned as non-negative ints reduced modulo the
    term's width; boolean results as ``bool``.

    ``memo`` holds the value of every node evaluated so far, keyed by
    ``uid``, and this call adds to it.  Passing one memo to many calls
    evaluates each node they share once; the memo must only ever see one
    ``env`` and ``fill``.  Without one, the call starts from an empty memo.
    """
    if env is None:
        env = {}
    if memo is None:
        memo = {}

    def walk(node: Term) -> Value:
        value = memo.get(node.uid)
        if value is None:
            op = node.op
            if op in _VARIABLES:
                value = env.get(node.name, fill)
                if value is None:
                    raise EvaluationError(f"variable {node.name!r} is not bound in the assignment")
                value = int(value) & _mask(node.width) if op == Op.BV_VAR else bool(value)
            else:
                values = [walk(arg) for arg in node.args]
                operator = _OPERATORS.get(op)
                if operator is None:
                    raise EvaluationError(f"cannot evaluate operator {op!r}")
                value = operator(node, values)
            memo[node.uid] = value
        return value

    return walk(term)


_VARIABLES = frozenset({Op.BV_VAR, Op.BOOL_VAR})


def _udiv(a: int, b: int, width: int) -> int:
    # SMT-LIB semantics: division by zero yields the all-ones vector.
    return _mask(width) if b == 0 else a // b


def _urem(a: int, b: int, width: int) -> int:
    # SMT-LIB semantics: remainder by zero yields the dividend.
    return a if b == 0 else a % b


def _shl(a: int, b: int, width: int) -> int:
    return 0 if b >= width else a << b


def _lshr(a: int, b: int, width: int) -> int:
    return 0 if b >= width else a >> b


def _ashr(a: int, b: int, width: int) -> int:
    signed = _to_signed(a, width)
    shift = min(b, width)
    return (signed >> shift) & _mask(width)


def _bv_binop(function: Callable[[int, int, int], int]) -> _Operator:
    def apply(node: Term, values: List[Value]) -> Value:
        width = node.width
        return function(int(values[0]), int(values[1]), width) & _mask(width)

    return apply


def _concat(node: Term, values: List[Value]) -> Value:
    result = 0
    for child, value in zip(node.args, values):
        result = (result << child.width) | int(value)
    return result & _mask(node.width)


def _extract(node: Term, values: List[Value]) -> Value:
    hi, lo = node.params
    return (int(values[0]) >> lo) & _mask(hi - lo + 1)


def _signed_compare(compare: Callable[[int, int], bool]) -> _Operator:
    def apply(node: Term, values: List[Value]) -> Value:
        width = node.args[0].width
        return compare(_to_signed(int(values[0]), width), _to_signed(int(values[1]), width))

    return apply


_OPERATORS: Dict[str, _Operator] = {
    # Constants (variables read the assignment in ``evaluate``).
    Op.BV_CONST: lambda node, values: int(node.value),  # type: ignore[arg-type]
    Op.BOOL_CONST: lambda node, values: bool(node.value),
    # Bitvector arithmetic / bitwise.
    Op.BV_ADD: _bv_binop(lambda a, b, w: a + b),
    Op.BV_SUB: _bv_binop(lambda a, b, w: a - b),
    Op.BV_MUL: _bv_binop(lambda a, b, w: a * b),
    Op.BV_UDIV: _bv_binop(_udiv),
    Op.BV_UREM: _bv_binop(_urem),
    Op.BV_AND: _bv_binop(lambda a, b, w: a & b),
    Op.BV_OR: _bv_binop(lambda a, b, w: a | b),
    Op.BV_XOR: _bv_binop(lambda a, b, w: a ^ b),
    Op.BV_SHL: _bv_binop(_shl),
    Op.BV_LSHR: _bv_binop(_lshr),
    Op.BV_ASHR: _bv_binop(_ashr),
    Op.BV_NOT: lambda node, values: (~int(values[0])) & _mask(node.width),
    Op.BV_NEG: lambda node, values: (-int(values[0])) & _mask(node.width),
    # Structural.
    Op.BV_CONCAT: _concat,
    Op.BV_EXTRACT: _extract,
    Op.BV_ZEXT: lambda node, values: int(values[0]),
    Op.BV_SEXT: lambda node, values: (
        _to_signed(int(values[0]), node.args[0].width) & _mask(node.width)
    ),
    Op.BV_ITE: lambda node, values: int(values[1]) if values[0] else int(values[2]),
    # Predicates.
    Op.EQ: lambda node, values: int(values[0]) == int(values[1]),
    Op.DISTINCT: lambda node, values: int(values[0]) != int(values[1]),
    Op.ULT: lambda node, values: int(values[0]) < int(values[1]),
    Op.ULE: lambda node, values: int(values[0]) <= int(values[1]),
    Op.SLT: _signed_compare(lambda a, b: a < b),
    Op.SLE: _signed_compare(lambda a, b: a <= b),
    # Boolean connectives.
    Op.NOT: lambda node, values: not values[0],
    Op.AND: lambda node, values: all(values),
    Op.OR: lambda node, values: any(values),
    Op.XOR: lambda node, values: bool(values[0]) != bool(values[1]),
    Op.IMPLIES: lambda node, values: (not values[0]) or bool(values[1]),
    Op.IFF: lambda node, values: bool(values[0]) == bool(values[1]),
    Op.BOOL_ITE: lambda node, values: bool(values[1]) if values[0] else bool(values[2]),
}
