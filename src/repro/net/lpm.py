"""Longest-prefix-match forwarding tables.

Two implementations are provided, mirroring the paper's discussion of
verification-friendly data structures (§3 "Element Verification"):

* :class:`TrieLPM` — a binary trie, the textbook structure.
* :class:`DirectIndexLPM` — a DIR-24-8-style flat-array scheme (Gupta,
  Lin, McKeown, INFOCOM 1998), which the paper singles out as the kind of
  pre-allocated array-based structure that is easy to verify statically.

Both expose the same ``add_route`` / ``lookup`` interface and are
interchangeable as the static state behind the ``IPLookup`` element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .addresses import IPv4Address, IPv4Prefix


@dataclass(frozen=True)
class RouteEntry:
    """A forwarding-table entry: prefix, output port, optional next hop."""

    prefix: IPv4Prefix
    port: int
    next_hop: Optional[IPv4Address] = None

    def __str__(self) -> str:
        hop = f" via {self.next_hop}" if self.next_hop is not None else ""
        return f"{self.prefix} -> port {self.port}{hop}"


class _TrieNode:
    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.entry: Optional[RouteEntry] = None


class TrieLPM:
    """Binary-trie longest-prefix-match table."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add_route(
        self,
        prefix: Union[str, IPv4Prefix],
        port: int,
        next_hop: Optional[Union[str, IPv4Address]] = None,
    ) -> RouteEntry:
        """Insert (or replace) a route and return the stored entry."""
        prefix = IPv4Prefix(prefix)
        entry = RouteEntry(
            prefix=prefix,
            port=port,
            next_hop=IPv4Address(next_hop) if next_hop is not None else None,
        )
        node = self._root
        address = int(prefix.network)
        for depth in range(prefix.length):
            bit = (address >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]  # type: ignore[assignment]
        if node.entry is None:
            self._size += 1
        node.entry = entry
        return entry

    def lookup(self, address: Union[str, int, IPv4Address]) -> Optional[RouteEntry]:
        """Return the most specific matching entry, or None."""
        value = int(IPv4Address(address))
        node: Optional[_TrieNode] = self._root
        best: Optional[RouteEntry] = None
        for depth in range(33):
            assert node is not None
            if node.entry is not None:
                best = node.entry
            if depth == 32:
                break
            bit = (value >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
        return best

    def routes(self) -> Iterator[RouteEntry]:
        """Iterate every stored route (pre-order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.entry is not None:
                yield node.entry
            for child in node.children:
                if child is not None:
                    stack.append(child)


class DirectIndexLPM:
    """DIR-24-8-style longest-prefix match over pre-allocated arrays.

    The first 24 bits of the address index a flat table; prefixes longer
    than 24 bits spill into second-level 256-entry blocks.  Lookups are at
    most two array reads — the O(1), pre-allocated access pattern the paper
    argues is amenable to static verification.

    To keep memory reasonable in pure Python the first-level "array" is a
    dict used as a sparse array; the access discipline (bounded index,
    fixed capacity) is preserved and checked.

    Very short prefixes are not expanded into the first level: a ``/0``
    would mean 2^24 slot writes per insert.  Prefixes of length up to
    :data:`WIDE_THRESHOLD` instead live in a small side list consulted
    when the direct index has nothing more specific — insertion stays
    bounded at ``2^(24 - WIDE_THRESHOLD)`` slot writes, and lookups remain
    two array reads plus a scan of the (few) wide routes.

    A prefix added again replaces its route, as in :class:`TrieLPM`: the
    slot writes let the later of two equal-length entries win, and the
    route lists keep one entry per prefix, so ``routes()`` shows exactly
    what lookups answer.
    """

    SECOND_LEVEL_SIZE = 256
    #: Prefixes this short (or shorter) are kept unexpanded.
    WIDE_THRESHOLD = 12

    def __init__(self) -> None:
        # level-1 slot: ("direct", entry-or-None) or ("indirect", block index)
        self._level1: Dict[int, Tuple[str, object]] = {}
        self._level2: List[List[Optional[RouteEntry]]] = []
        self._wide: Dict[IPv4Prefix, RouteEntry] = {}
        self._routes: Dict[IPv4Prefix, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def add_route(
        self,
        prefix: Union[str, IPv4Prefix],
        port: int,
        next_hop: Optional[Union[str, IPv4Address]] = None,
    ) -> RouteEntry:
        """Insert (or replace) a route and return the stored entry."""
        prefix = IPv4Prefix(prefix)
        entry = RouteEntry(
            prefix=prefix,
            port=port,
            next_hop=IPv4Address(next_hop) if next_hop is not None else None,
        )
        self._routes[prefix] = entry
        network = int(prefix.network)
        if prefix.length <= self.WIDE_THRESHOLD:
            self._wide[prefix] = entry
        elif prefix.length <= 24:
            span = 1 << (24 - prefix.length)
            base = network >> 8
            for index in range(base, base + span):
                slot = self._level1.get(index)
                if slot is None:
                    self._level1[index] = ("direct", entry)
                elif slot[0] == "direct":
                    if self._is_more_specific(entry, slot[1]):  # type: ignore[arg-type]
                        self._level1[index] = ("direct", entry)
                else:
                    # Indirect slot: fill less-specific positions inside the block.
                    block = self._level2[int(slot[1])]  # type: ignore[arg-type]
                    for offset in range(self.SECOND_LEVEL_SIZE):
                        if self._is_more_specific(entry, block[offset]):
                            block[offset] = entry
        else:
            base = network >> 8
            slot = self._level1.get(base)
            if slot is None or slot[0] == "direct":
                default = slot[1] if slot is not None else None
                block_index = len(self._level2)
                self._level2.append([default] * self.SECOND_LEVEL_SIZE)  # type: ignore[list-item]
                self._level1[base] = ("indirect", block_index)
            else:
                block_index = int(self._level1[base][1])  # type: ignore[arg-type]
            block = self._level2[block_index]
            span = 1 << (32 - prefix.length)
            start = network & 0xFF
            for offset in range(start, start + span):
                if self._is_more_specific(entry, block[offset]):
                    block[offset] = entry
        return entry

    @staticmethod
    def _is_more_specific(candidate: RouteEntry, incumbent: Optional[RouteEntry]) -> bool:
        if incumbent is None:
            return True
        return candidate.prefix.length >= incumbent.prefix.length

    def lookup(self, address: Union[str, int, IPv4Address]) -> Optional[RouteEntry]:
        value = int(IPv4Address(address))
        slot = self._level1.get(value >> 8)
        indexed: Optional[RouteEntry] = None
        if slot is not None:
            kind, payload = slot
            if kind == "direct":
                indexed = payload  # type: ignore[assignment]
            else:
                block = self._level2[int(payload)]  # type: ignore[arg-type]
                indexed = block[value & 0xFF]
        if indexed is not None:
            # Every indexed entry is longer than WIDE_THRESHOLD, so it always
            # beats any unexpanded wide route.
            return indexed
        return self._best_wide(value)

    def _best_wide(self, value: int) -> Optional[RouteEntry]:
        best: Optional[RouteEntry] = None
        for entry in self._wide.values():
            length = entry.prefix.length
            if length and (value >> (32 - length)) != (int(entry.prefix.network) >> (32 - length)):
                continue
            if best is None or length >= best.prefix.length:
                best = entry
        return best

    def routes(self) -> Iterator[RouteEntry]:
        return iter(list(self._routes.values()))


def build_table(
    routes: Iterator[Tuple[str, int]] | List[Tuple[str, int]],
    implementation: str = "trie",
) -> Union[TrieLPM, DirectIndexLPM]:
    """Build an LPM table of the requested implementation from (prefix, port) pairs."""
    table: Union[TrieLPM, DirectIndexLPM]
    if implementation == "trie":
        table = TrieLPM()
    elif implementation in ("dir-24-8", "direct"):
        table = DirectIndexLPM()
    else:
        raise ValueError(f"unknown LPM implementation {implementation!r}")
    for prefix, port in routes:
        table.add_route(prefix, port)
    return table
