"""Ite-lifting state merging at branch joins.

Without merging the engine's path count is exponential in branch depth:
``k`` independent header branches produce ``2^k`` sibling paths whose
states differ only in a handful of values.  This module collapses such
siblings after both arms of an ``If`` complete: two alive states that
agree on *control outcome* (same packet length, same register/metadata
key sets, same havoc and table-write structure) are folded into one
state by lifting every differing packet byte, register, metadata slot
and table-write term into ``ite(cond, then_val, else_val)`` and
disjoining their path constraints.

Soundness of the ite condition.  Two sibling paths first diverge at a
*complementary* branch pair: the engine appends ``holds`` to one arm and
``simplify(Not(holds))`` to the other, unconditionally.  Under the merged
path constraint ``A ∨ B`` the first divergent constraint ``h`` of arm A
is therefore equivalent to "arm A was taken" (B carries ``¬h`` as a
conjunct), so ``h`` alone is a valid selector — the merge verifies the
complementarity *structurally* (uid of the interned negation) and rejects
the pair otherwise, never calling a solver.

The common special case — both suffixes are exactly the complementary
pair — collapses to no residual disjunction at all: the branch condition
survives only inside the lifted ite values, which is the ``2^k -> 1``
reduction of the paper's path-counting argument.

``instructions`` is lifted to the *maximum* of the two arms: a merged
segment's instruction count is an upper bound, never an undercount, so
``BoundedInstructions`` proofs stay sound (see ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import smt
from ..smt import Term
from .state import PathState, SymbolicPacket, TableWriteRecord


class MergeMode:
    """Path-merging policies (``SymbexOptions.merge``)."""

    #: Never merge — the differential-testing reference.
    OFF = "off"
    #: Merge alive sibling states only, and only when the number of ite
    #: terms introduced stays below the configured threshold (so solver
    #: queries don't silently get harder).  The default.
    CONSERVATIVE = "conservative"

    ALL = (OFF, CONSERVATIVE)


@dataclass
class MergeCounters:
    """Work counters of one engine's merge pass (threaded to summaries)."""

    paths_merged: int = 0
    ites_introduced: int = 0
    merge_rejected: int = 0


def _signature(state: PathState) -> Optional[Tuple]:
    """Grouping key of the control outcome; ``None`` marks an unmergeable state.

    Only alive states merge: a terminated one has already produced its
    segment.
    """
    if state.terminated:
        return None
    return (
        len(state.packet),
        tuple(sorted(state.registers)),
        tuple(sorted(state.metadata)),
        tuple(sorted((key, term.uid) for key, term in state.metadata_reads.items())),
        tuple(
            (read.table, read.key.uid, read.value_var, read.found_var)
            for read in state.havoc_reads
        ),
        tuple(write.table for write in state.table_writes),
    )


def _divergence(a: PathState, b: PathState) -> Optional[Tuple[int, Term]]:
    """First constraint index where the two paths split, plus the selector.

    Returns ``None`` unless the divergent constraints are structurally
    complementary (one is the interned simplified negation of the other)
    — the condition under which the selector is sound without a solver.
    """
    prefix = 0
    for left, right in zip(a.constraints, b.constraints):
        if left.uid != right.uid:
            break
        prefix += 1
    if prefix >= len(a.constraints) or prefix >= len(b.constraints):
        return None
    left, right = a.constraints[prefix], b.constraints[prefix]
    if (
        smt.intern_term(smt.simplify(smt.Not(left))).uid != right.uid
        and smt.intern_term(smt.simplify(smt.Not(right))).uid != left.uid
    ):
        return None
    return prefix, left


def _count_ites(a: PathState, b: PathState) -> int:
    """Number of ite terms a merge of ``a`` and ``b`` would introduce."""
    count = sum(
        1
        for byte_a, byte_b in zip(a.packet.bytes, b.packet.bytes)
        if byte_a.uid != byte_b.uid
    )
    count += sum(1 for key in a.registers if a.registers[key].uid != b.registers[key].uid)
    count += sum(1 for key in a.metadata if a.metadata[key].uid != b.metadata[key].uid)
    for write_a, write_b in zip(a.table_writes, b.table_writes):
        count += 1 if write_a.key.uid != write_b.key.uid else 0
        count += 1 if write_a.value.uid != write_b.value.uid else 0
    return count


def _lift(cond: Term, then_value: Term, else_value: Term) -> Term:
    if then_value.uid == else_value.uid:
        return then_value
    return smt.intern_term(smt.simplify(smt.If(cond, then_value, else_value)))


def _try_merge(
    a: PathState, b: PathState, max_ites: int, counters: MergeCounters
) -> Optional[PathState]:
    """Fold ``b`` into ``a`` if sound and within budget; ``None`` otherwise.

    The caller has already checked the two states share a signature, so
    every lifted container is structurally aligned.
    """
    split = _divergence(a, b)
    if split is None:
        counters.merge_rejected += 1
        return None
    prefix, cond = split
    ites = _count_ites(a, b)
    if ites > max_ites:
        counters.merge_rejected += 1
        return None

    suffix_a = a.constraints[prefix + 1 :]
    suffix_b = b.constraints[prefix + 1 :]
    constraints = a.constraints[:prefix]
    if suffix_a or suffix_b:
        # General case: keep each arm's full suffix (divergent constraint
        # included) under a disjunction.  ``cond`` stays a sound selector
        # because arm B's suffix still carries ``¬cond``.
        arm_a = smt.conjoin(a.constraints[prefix:])
        arm_b = smt.conjoin(b.constraints[prefix:])
        disjunct = smt.intern_term(smt.simplify(smt.Or(arm_a, arm_b)))
        if not disjunct.is_true():
            constraints = constraints + [disjunct]
    # else: the suffixes are exactly the complementary pair — their
    # disjunction is valid, so the branch survives only inside the ites.

    merged = PathState(
        packet=SymbolicPacket(
            [
                _lift(cond, byte_a, byte_b)
                for byte_a, byte_b in zip(a.packet.bytes, b.packet.bytes)
            ]
        ),
        constraints=constraints,
        registers={
            key: _lift(cond, a.registers[key], b.registers[key]) for key in a.registers
        },
        metadata={
            key: _lift(cond, a.metadata[key], b.metadata[key]) for key in a.metadata
        },
        metadata_reads=dict(a.metadata_reads),
        havoc_reads=list(a.havoc_reads),
        table_writes=[
            TableWriteRecord(
                table=write_a.table,
                key=_lift(cond, write_a.key, write_b.key),
                value=_lift(cond, write_a.value, write_b.value),
            )
            for write_a, write_b in zip(a.table_writes, b.table_writes)
        ],
        instructions=max(a.instructions, b.instructions),
        terminated=a.terminated,
        outcome=a.outcome,
        port=a.port,
        crash_message=a.crash_message,
        drop_reason=a.drop_reason,
    )
    counters.paths_merged += 1
    counters.ites_introduced += ites
    return merged


def merge_states(
    states: List[PathState],
    mode: str,
    max_ites: int,
    counters: MergeCounters,
) -> List[PathState]:
    """Greedy pairwise fold of mergeable sibling states, order-preserving.

    Each state is folded into the first earlier survivor it can soundly
    merge with; a merged state stays a candidate, so a chain of eligible
    siblings collapses to one state in a single pass over the join.
    """
    if mode == MergeMode.OFF or len(states) < 2:
        return states
    survivors: List[PathState] = []
    signatures: List[Optional[Tuple]] = []
    for state in states:
        signature = _signature(state)
        folded = False
        if signature is not None:
            for index, candidate in enumerate(survivors):
                if signatures[index] != signature:
                    continue
                merged = _try_merge(candidate, state, max_ites, counters)
                if merged is not None:
                    survivors[index] = merged
                    folded = True
                    break
        if not folded:
            survivors.append(state)
            signatures.append(signature)
    return survivors
