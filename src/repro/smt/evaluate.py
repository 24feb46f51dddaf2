"""Concrete evaluation of SMT terms under a variable assignment.

Used for three purposes: validating models returned by the SAT backend,
constant folding in the simplifier, and replaying counterexample packets
produced by the verifier on the concrete dataplane.
"""

from __future__ import annotations

from typing import Mapping, Union

from .errors import EvaluationError
from .terms import Op, Term

Value = Union[int, bool]


def _to_signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def _mask(width: int) -> int:
    return (1 << width) - 1


def evaluate(
    term: Term, env: Mapping[str, Value] | None = None, fill: Value | None = None
) -> Value:
    """Evaluate ``term`` under ``env`` (a mapping from variable name to value).

    Raises :class:`EvaluationError` if a free variable is unbound, unless
    ``fill`` is given: an unbound variable then reads as ``fill``, which
    is 0 (zero / false) or -1 (all ones / true) — the two defaults
    :class:`repro.smt.model.Model` evaluates under.
    Bitvector results are returned as non-negative ints reduced modulo the
    term's width; boolean results as ``bool``.
    """
    if env is None:
        env = {}
    cache: dict[int, Value] = {}

    def walk(node: Term) -> Value:
        cached = cache.get(id(node))
        if cached is not None or id(node) in cache:
            return cache[id(node)]
        result = _eval_node(node, env, fill, walk)
        cache[id(node)] = result
        return result

    return walk(term)


def _eval_node(node: Term, env: Mapping[str, Value], fill: Value | None, walk) -> Value:
    op = node.op

    # Leaves.
    if op == Op.BV_CONST:
        return int(node.value)  # type: ignore[arg-type]
    if op == Op.BOOL_CONST:
        return bool(node.value)
    if op in (Op.BV_VAR, Op.BOOL_VAR):
        value = env.get(node.name, fill)
        if value is None:
            raise EvaluationError(f"variable {node.name!r} is not bound in the assignment")
        if op == Op.BV_VAR:
            return int(value) & _mask(node.width)
        return bool(value)

    args = [walk(arg) for arg in node.args]

    # Bitvector arithmetic / bitwise.
    if op in _BV_BINOPS:
        width = node.width
        return _BV_BINOPS[op](int(args[0]), int(args[1]), width) & _mask(width)
    if op == Op.BV_NOT:
        return (~int(args[0])) & _mask(node.width)
    if op == Op.BV_NEG:
        return (-int(args[0])) & _mask(node.width)

    # Structural.
    if op == Op.BV_CONCAT:
        result = 0
        for child, value in zip(node.args, args):
            result = (result << child.width) | int(value)
        return result & _mask(node.width)
    if op == Op.BV_EXTRACT:
        hi, lo = node.params
        return (int(args[0]) >> lo) & _mask(hi - lo + 1)
    if op == Op.BV_ZEXT:
        return int(args[0])
    if op == Op.BV_SEXT:
        child = node.args[0]
        return _to_signed(int(args[0]), child.width) & _mask(node.width)
    if op == Op.BV_ITE:
        return int(args[1]) if bool(args[0]) else int(args[2])

    # Predicates.
    if op == Op.EQ:
        return int(args[0]) == int(args[1])
    if op == Op.DISTINCT:
        return int(args[0]) != int(args[1])
    if op == Op.ULT:
        return int(args[0]) < int(args[1])
    if op == Op.ULE:
        return int(args[0]) <= int(args[1])
    if op == Op.SLT:
        width = node.args[0].width
        return _to_signed(int(args[0]), width) < _to_signed(int(args[1]), width)
    if op == Op.SLE:
        width = node.args[0].width
        return _to_signed(int(args[0]), width) <= _to_signed(int(args[1]), width)

    # Boolean connectives.
    if op == Op.NOT:
        return not bool(args[0])
    if op == Op.AND:
        return all(bool(a) for a in args)
    if op == Op.OR:
        return any(bool(a) for a in args)
    if op == Op.XOR:
        return bool(args[0]) != bool(args[1])
    if op == Op.IMPLIES:
        return (not bool(args[0])) or bool(args[1])
    if op == Op.IFF:
        return bool(args[0]) == bool(args[1])
    if op == Op.BOOL_ITE:
        return bool(args[1]) if bool(args[0]) else bool(args[2])

    raise EvaluationError(f"cannot evaluate operator {op!r}")


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


_BV_BINOPS = {
    Op.BV_ADD: lambda a, b, w: a + b,
    Op.BV_SUB: lambda a, b, w: a - b,
    Op.BV_MUL: lambda a, b, w: a * b,
    Op.BV_UDIV: _udiv,
    Op.BV_UREM: _urem,
    Op.BV_AND: lambda a, b, w: a & b,
    Op.BV_OR: lambda a, b, w: a | b,
    Op.BV_XOR: lambda a, b, w: a ^ b,
    Op.BV_SHL: _shl,
    Op.BV_LSHR: _lshr,
    Op.BV_ASHR: _ashr,
}
