"""Element state: private tables, static tables, and their access discipline.

The paper's pipeline structure distinguishes three kinds of state
(§3 "Pipeline Structure"):

* **packet state** — carried by :class:`repro.dataplane.packet.Packet`;
* **private state** — mutable, owned by one element (NetFlow cache, NAT map);
* **static state** — read-only configuration shared by all elements
  (forwarding tables, filter rules).

This module implements the table abstractions behind private and static
state.  Every table exposes exact-match ``read``/``write``; tables that
have a meaningful symbolic encoding (small static tables, LPM tables)
additionally implement ``symbolic_read`` so the verifier can reason about
a *specific* configuration when the property demands it.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple

from ..ir.exprs import VALUE_MASK
from ..net.lpm import DirectIndexLPM, RouteEntry, TrieLPM
from .errors import DataplaneError, StateIsolationError


class Table(Protocol):
    """Protocol every table implementation satisfies."""

    #: "private" (mutable) or "static" (read-only).
    kind: str

    def read(self, key: int) -> Tuple[int, bool]:
        """Return (value, found)."""
        ...

    def write(self, key: int, value: int) -> None:
        """Store a value; static tables raise."""
        ...


class ExactMatchTable:
    """A mutable exact-match table backed by a dict (private state).

    A ``capacity`` bounds it as a pre-allocated flow cache: a full table
    evicts its oldest entry before each insert, so it must hold at least one.
    """

    kind = "private"

    def __init__(self, initial: Optional[Dict[int, int]] = None, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise DataplaneError(f"table capacity must be at least 1, got {capacity}")
        self._entries: Dict[int, int] = dict(initial or {})
        self._capacity = capacity

    def read(self, key: int) -> Tuple[int, bool]:
        if key in self._entries:
            return self._entries[key] & VALUE_MASK, True
        return 0, False

    def write(self, key: int, value: int) -> None:
        if (
            self._capacity is not None
            and key not in self._entries
            and len(self._entries) >= self._capacity
        ):
            # Pre-allocated table is full: evict the oldest entry (FIFO), the
            # behaviour of a fixed-size flow cache.
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = value & VALUE_MASK

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def clear(self) -> None:
        self._entries.clear()


class StaticExactTable:
    """A read-only exact-match table (static state)."""

    kind = "static"

    def __init__(self, entries: Optional[Dict[int, int]] = None) -> None:
        self._entries: Dict[int, int] = dict(entries or {})

    def read(self, key: int) -> Tuple[int, bool]:
        if key in self._entries:
            return self._entries[key] & VALUE_MASK, True
        return 0, False

    def write(self, key: int, value: int) -> None:
        raise StateIsolationError("static tables are read-only")

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def fingerprint(self) -> str:
        """Stable content identity (part of the element's summary-cache key)."""
        entries = ",".join(f"{key}:{value}" for key, value in sorted(self._entries.items()))
        return f"exact[{entries}]"

    def symbolic_read(self, key_term, smt):
        """Encode the table as an if-then-else cascade over its entries.

        ``smt`` is the :mod:`repro.smt` module (passed in to avoid a hard
        dependency from the dataplane onto the solver).  Returns
        ``(value_term, found_term)``.
        """
        value_term = smt.BitVecVal(0, 64)
        found_term = smt.BoolVal(False)
        for key, value in self._entries.items():
            condition = smt.Eq(key_term, smt.BitVecVal(key, 64))
            value_term = smt.If(condition, smt.BitVecVal(value & VALUE_MASK, 64), value_term)
            found_term = smt.Or(condition, found_term)
        return value_term, found_term


class LpmTable:
    """Static longest-prefix-match table adapter for the ``IPLookup`` element.

    Keys are 32-bit destination addresses; the stored value is the output
    port.  Concrete reads delegate to the underlying LPM structure
    (:class:`TrieLPM` or :class:`DirectIndexLPM`); symbolic reads encode
    the route set as a cascade ordered by decreasing prefix length, which
    is exactly longest-prefix-match semantics.
    """

    kind = "static"

    def __init__(self, lpm: TrieLPM | DirectIndexLPM | None = None) -> None:
        self._lpm = lpm if lpm is not None else TrieLPM()

    @property
    def lpm(self) -> TrieLPM | DirectIndexLPM:
        return self._lpm

    def add_route(self, prefix: str, port: int, next_hop: Optional[str] = None) -> RouteEntry:
        return self._lpm.add_route(prefix, port, next_hop)

    def read(self, key: int) -> Tuple[int, bool]:
        entry = self._lpm.lookup(key & 0xFFFFFFFF)
        if entry is None:
            return 0, False
        return entry.port & VALUE_MASK, True

    def write(self, key: int, value: int) -> None:
        raise StateIsolationError("the forwarding table is static state and is read-only")

    def fingerprint(self) -> str:
        """Stable content identity (part of the element's summary-cache key)."""
        routes = sorted(
            (int(entry.prefix.network), entry.prefix.length, entry.port)
            for entry in self._lpm.routes()
        )
        rendered = ",".join(f"{network}/{length}>{port}" for network, length, port in routes)
        return f"lpm[{rendered}]"

    def symbolic_read(self, key_term, smt):
        """Longest-prefix-match as a cascade ordered by decreasing prefix length."""
        routes = sorted(self._lpm.routes(), key=lambda entry: entry.prefix.length)
        value_term = smt.BitVecVal(0, 64)
        found_term = smt.BoolVal(False)
        address = smt.Extract(31, 0, key_term)
        # Build from least specific to most specific so the most specific wins.
        for entry in routes:
            mask = entry.prefix.mask()
            condition = smt.Eq(
                address & smt.BitVecVal(mask, 32),
                smt.BitVecVal(int(entry.prefix.network) & mask, 32),
            )
            value_term = smt.If(condition, smt.BitVecVal(entry.port & VALUE_MASK, 64), value_term)
            found_term = smt.Or(condition, found_term)
        return value_term, found_term


class ElementState:
    """Per-element state handle implementing the interpreter's table protocol.

    Dispatches reads and writes by table name, enforcing that static
    tables are never written.  One instance exists per element instance —
    private state is never shared across elements, by construction.
    """

    def __init__(self, tables: Optional[Dict[str, Table]] = None) -> None:
        self._tables: Dict[str, Table] = dict(tables or {})

    def add_table(self, name: str, table: Table) -> None:
        if name in self._tables:
            raise StateIsolationError(f"table {name!r} already exists on this element")
        self._tables[name] = table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise StateIsolationError(f"element has no table named {name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Dict[str, Table]:
        return dict(self._tables)

    # StateAccess protocol (used by the IR interpreter).
    def table_read(self, table: str, key: int) -> Tuple[int, bool]:
        return self.table(table).read(key)

    def table_write(self, table: str, key: int, value: int) -> None:
        target = self.table(table)
        if getattr(target, "kind", "private") == "static":
            raise StateIsolationError(f"table {table!r} is static state and is read-only")
        target.write(key, value)
