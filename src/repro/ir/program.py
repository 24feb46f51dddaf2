"""Element programs: the unit of code the dataplane runs and the verifier analyses."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .exprs import Expr, LoadField, LoadMeta, PacketLength
from .stmts import (
    Assign,
    If,
    Stmt,
    TableRead,
    TableWrite,
    While,
    block_statement_count,
    collect_statements,
)


@dataclass(frozen=True)
class TableDeclaration:
    """Declaration of a table the program may access.

    ``kind`` is one of:

    * ``"private"`` — mutable per-element state (NetFlow cache, NAT map);
      reads and writes are allowed.  In symbolic execution these are the
      tables modelled as key/value stores with havoc'd reads.
    * ``"static"`` — read-only configuration state (forwarding table,
      filter rules); writes are rejected by validation.
    """

    name: str
    kind: str = "private"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("private", "static"):
            raise ValueError(f"unknown table kind {self.kind!r}")


@dataclass
class ElementProgram:
    """An element's per-packet program plus its state declarations."""

    name: str
    body: Tuple[Stmt, ...]
    tables: Dict[str, TableDeclaration] = field(default_factory=dict)
    num_output_ports: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        self.body = tuple(self.body)

    # -- introspection -------------------------------------------------------------

    def statement_count(self) -> int:
        """Static statement count (not the dynamic instruction count)."""
        return block_statement_count(self.body)

    def all_statements(self) -> List[Stmt]:
        return collect_statements(self.body)

    def loops(self) -> List[While]:
        """All (possibly nested) loops in the program."""
        return [stmt for stmt in self.all_statements() if isinstance(stmt, While)]

    def registers(self) -> Set[str]:
        """Names of all registers the program assigns."""
        names: Set[str] = set()
        for stmt in self.all_statements():
            if isinstance(stmt, Assign):
                names.add(stmt.dst)
            elif isinstance(stmt, TableRead):
                names.add(stmt.dst_value)
                names.add(stmt.dst_found)
        return names

    def referenced_tables(self) -> Set[str]:
        names: Set[str] = set()
        for stmt in self.all_statements():
            if isinstance(stmt, (TableRead, TableWrite)):
                names.add(stmt.table)
        return names

    def written_tables(self) -> Set[str]:
        return {
            stmt.table for stmt in self.all_statements() if isinstance(stmt, TableWrite)
        }

    def branch_count(self) -> int:
        """Number of branching points (If statements plus loop conditions).

        The paper's path-count argument (roughly ``2^n`` paths for ``n``
        branches per element, ``2^(k*n)`` for a k-element pipeline) is in
        terms of this quantity.
        """
        count = 0
        for stmt in self.all_statements():
            if isinstance(stmt, If):
                count += 1
            elif isinstance(stmt, While):
                count += 1
        return count

    def reads_packet(self) -> bool:
        return any(isinstance(expr, (LoadField, PacketLength)) for expr in self._all_exprs())

    def reads_metadata(self) -> Iterator[str]:
        for expr in self._all_exprs():
            if isinstance(expr, LoadMeta):
                yield expr.key

    def _all_exprs(self) -> Iterator[Expr]:
        for stmt in self.all_statements():
            for attr in ("expr", "cond", "offset", "value", "key"):
                candidate = getattr(stmt, attr, None)
                if isinstance(candidate, Expr):
                    yield from _walk_expr(candidate)

    def __repr__(self) -> str:
        return (
            f"ElementProgram({self.name!r}, {self.statement_count()} statements, "
            f"{self.branch_count()} branches, {len(self.tables)} tables)"
        )


def _walk_expr(expr: Expr) -> Iterator[Expr]:
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)


def _render_block(block: Sequence[Stmt]) -> str:
    """Deterministic full render of a statement block.

    ``repr`` alone is not enough: ``If``/``While`` abbreviate their nested
    blocks ("then=1 stmts"), which would make programs differing only
    inside a branch body collide.  This render recurses into every block;
    flat statements and expressions repr themselves completely.  Nothing
    rendered embeds the element instance name (``While.loop_id``, the one
    name-derived field, is deliberately excluded — it only flavours crash
    messages), so identically configured elements with different names
    render identically.
    """
    parts = []
    for stmt in block:
        if isinstance(stmt, If):
            parts.append(
                f"If({stmt.cond!r},[{_render_block(stmt.then)}],[{_render_block(stmt.orelse)}])"
            )
        elif isinstance(stmt, While):
            parts.append(
                f"While({stmt.cond!r},{stmt.max_iterations},[{_render_block(stmt.body)}])"
            )
        else:
            parts.append(repr(stmt))
    return ";".join(parts)


def structural_digest(program: ElementProgram) -> str:
    """A stable sha256 of a program's structure.

    Two programs get the same digest iff they are structurally identical:
    statements, expressions, table declarations and port count.  The
    program's name plays no part.  Everything :func:`validate_program
    <repro.ir.validate.validate_program>` inspects is covered, so programs
    with one digest are either all valid or all invalid.
    """
    tables = repr(sorted(program.tables.items()))
    rendered = f"{_render_block(program.body)}|{tables}|ports={program.num_output_ports}"
    return hashlib.sha256(rendered.encode()).hexdigest()
