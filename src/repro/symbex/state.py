"""Symbolic packets and per-path execution state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import smt
from ..smt import Term

#: Canonical prefix of the symbolic input-packet byte variables: ``in_b0``, ``in_b1``, ...
INPUT_BYTE_PREFIX = "in_b"
#: Canonical prefix of symbolic input-metadata variables: ``in_meta_<key>``.
INPUT_META_PREFIX = "in_meta_"
#: Canonical prefix of havoc'd table-read variables.
HAVOC_PREFIX = "havoc"


#: Bytes per copy-on-write page.  Small enough that a single store near a
#: fork copies one page, large enough that page bookkeeping stays cheap.
PAGE_BYTES = 32


class SymbolicPacket:
    """A packet whose content is symbolic: one 8-bit term per byte.

    The length is concrete (verification runs are per input length, as
    discussed in DESIGN.md); the *content* is entirely unconstrained,
    which is the paper's "the input is a symbolic bit vector".

    Storage is paged copy-on-write: :meth:`copy` (the ``PathState.fork``
    workhorse — every branch calls it) shares the page lists of both
    sides and only :meth:`set_byte` / :meth:`store` pays for a private
    page, so a fork costs O(pages) pointer copies instead of O(bytes)
    term copies.  Reads go through :meth:`byte` or the materializing
    :attr:`bytes` view.
    """

    def __init__(self, byte_terms: List[Term]) -> None:
        self._assign(list(byte_terms))

    def _assign(self, terms: List[Term]) -> None:
        self._length = len(terms)
        self._pages: List[List[Term]] = [
            terms[start : start + PAGE_BYTES] for start in range(0, len(terms), PAGE_BYTES)
        ]
        self._shared: List[bool] = [False] * len(self._pages)

    @classmethod
    def fresh(cls, length: int, prefix: str = INPUT_BYTE_PREFIX) -> "SymbolicPacket":
        """A packet of ``length`` fully symbolic bytes named ``<prefix><i>``."""
        return cls([smt.BitVec(f"{prefix}{i}", 8) for i in range(length)])

    @classmethod
    def concrete(cls, data: bytes) -> "SymbolicPacket":
        """A packet with fully concrete content (used for replay/tests)."""
        return cls([smt.BitVecVal(b, 8) for b in data])

    def __len__(self) -> int:
        return self._length

    @property
    def bytes(self) -> List[Term]:
        """The byte terms as a flat list (a fresh read-only snapshot)."""
        flat: List[Term] = []
        for page in self._pages:
            flat.extend(page)
        return flat

    def copy(self) -> "SymbolicPacket":
        clone = SymbolicPacket.__new__(SymbolicPacket)
        clone._length = self._length
        clone._pages = list(self._pages)
        # Both sides now reference the same page objects, so both must
        # copy before their next write.
        clone._shared = [True] * len(self._pages)
        self._shared = [True] * len(self._pages)
        return clone

    def byte(self, index: int) -> Term:
        return self._pages[index // PAGE_BYTES][index % PAGE_BYTES]

    def set_byte(self, index: int, term: Term) -> None:
        page = index // PAGE_BYTES
        if self._shared[page]:
            self._pages[page] = list(self._pages[page])
            self._shared[page] = False
        self._pages[page][index % PAGE_BYTES] = term

    def load(self, offset: int, nbytes: int) -> Term:
        """Big-endian read of ``nbytes`` at a concrete ``offset``, zero-extended to 64 bits."""
        chunks = [
            self.byte(offset + index)
            for index in range(nbytes)
            if 0 <= offset + index < self._length
        ]
        value = smt.Concat(*chunks) if len(chunks) > 1 else chunks[0]
        return smt.ZeroExt(64 - 8 * nbytes, value)

    def store(self, offset: int, nbytes: int, value: Term) -> None:
        """Big-endian write of the low ``nbytes`` of a 64-bit ``value`` at a concrete offset."""
        for index in range(nbytes):
            shift = 8 * (nbytes - 1 - index)
            self.set_byte(offset + index, smt.Extract(shift + 7, shift, value))

    def push_head(self, byte_terms: List[Term]) -> None:
        """Prepend terms (header push); rebuilds the page table."""
        self._assign(list(byte_terms) + self.bytes)

    def pull_head(self, nbytes: int) -> None:
        """Strip the first ``nbytes`` bytes (header pull); rebuilds the page table."""
        self._assign(self.bytes[nbytes:])

    def select(self, offset_term: Term, length_guard: int) -> Term:
        """Read one byte at a *symbolic* offset as an if-then-else over positions."""
        result = smt.BitVecVal(0, 8)
        for index in range(min(self._length, length_guard)):
            result = smt.If(
                smt.Eq(offset_term, smt.BitVecVal(index, 64)), self.byte(index), result
            )
        return result


@dataclass(frozen=True)
class HavocRead:
    """Record of one havoc'd table read (the key/value-store model of §3).

    ``value_var`` / ``found_var`` are the names of the fresh symbolic
    variables introduced for the read; the bad-value analysis later asks
    whether the values that make a path violate the property could ever
    have been written.
    """

    table: str
    key: Term
    value_var: str
    found_var: str


@dataclass(frozen=True)
class TableWriteRecord:
    """Record of a table write performed along a path."""

    table: str
    key: Term
    value: Term


@dataclass
class PathState:
    """The symbolic state of one execution path through an element program."""

    packet: SymbolicPacket
    constraints: List[Term] = field(default_factory=list)
    registers: Dict[str, Term] = field(default_factory=dict)
    metadata: Dict[str, Term] = field(default_factory=dict)
    metadata_reads: Dict[str, Term] = field(default_factory=dict)
    havoc_reads: List[HavocRead] = field(default_factory=list)
    table_writes: List[TableWriteRecord] = field(default_factory=list)
    instructions: int = 0
    terminated: bool = False
    outcome: Optional[str] = None
    port: Optional[int] = None
    crash_message: str = ""
    drop_reason: str = ""

    def fork(self) -> "PathState":
        """An independent copy of this state (for branch exploration)."""
        return PathState(
            packet=self.packet.copy(),
            constraints=list(self.constraints),
            registers=dict(self.registers),
            metadata=dict(self.metadata),
            metadata_reads=dict(self.metadata_reads),
            havoc_reads=list(self.havoc_reads),
            table_writes=list(self.table_writes),
            instructions=self.instructions,
            terminated=self.terminated,
            outcome=self.outcome,
            port=self.port,
            crash_message=self.crash_message,
            drop_reason=self.drop_reason,
        )

    def add_constraint(self, constraint: Term) -> None:
        # Constraints are interned on the way in: the path's prefix is then a
        # sequence of canonical terms, so the engine's solver context can
        # memoize feasibility and slice verdicts by integer uid.
        self.constraints.append(smt.intern_term(constraint))

    def path_constraint(self) -> Term:
        return smt.simplify(smt.conjoin(self.constraints)) if self.constraints else smt.TRUE

    def count(self, amount: int) -> None:
        self.instructions += amount

    def terminate(self, outcome: str, **details) -> None:
        self.terminated = True
        self.outcome = outcome
        self.port = details.get("port")
        self.crash_message = details.get("crash_message", "")
        self.drop_reason = details.get("drop_reason", "")
