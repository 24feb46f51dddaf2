"""Stateful elements: NetFlow-style statistics and NAT rewriting.

These are the elements with mutable private state the paper discusses in
§3 ("Element Verification" — mutable data structures, and the last
paragraph of the preliminary results).  Their state is modelled as
key/value tables; during verification, reads are havoc'd and the
two-phase bad-value analysis checks whether harmful values can ever have
been written.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ...ir.builder import ProgramBuilder
from ...ir.program import ElementProgram
from ...net.addresses import IPv4Address
from ...net.headers import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPV4_DST_OFFSET,
    IPV4_MIN_HEADER_LEN,
    IPV4_PROTO_OFFSET,
    IPV4_SRC_OFFSET,
)
from ..element import Element, register_element
from ..errors import DataplaneError
from ..state import ElementState, ExactMatchTable


@register_element
class NetFlow(Element):
    """Per-flow packet counters (a NetFlow-style statistics element).

    The flow key combines addresses, protocol and (for TCP/UDP) ports.
    Counters live in a pre-allocated exact-match table; when the table is
    full the oldest entry is evicted, as a fixed-size flow cache would.
    """

    TABLE = "flows"

    def __init__(
        self,
        capacity: int = 4096,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        if capacity < 1:
            # A full table evicts its oldest entry before each insert; a
            # table that can hold nothing has none to evict.
            raise DataplaneError(f"NetFlow capacity must be at least 1, got {capacity}")
        self.capacity = capacity

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="per-flow packet counters")
        builder.declare_table(self.TABLE, kind="private", description="flow counter table")
        with builder.if_(builder.packet_length() < IPV4_MIN_HEADER_LEN):
            builder.drop("too short for an IPv4 header")
        src = builder.let("src", builder.load(IPV4_SRC_OFFSET, 4))
        dst = builder.let("dst", builder.load(IPV4_DST_OFFSET, 4))
        protocol = builder.let("protocol", builder.load(IPV4_PROTO_OFFSET, 1))
        vihl = builder.let("vihl", builder.load(0, 1))
        hlen = builder.let("hlen", (vihl & 0x0F) * 4)

        # Flow key: a 64-bit mix of the 5-tuple.  Ports are folded in only
        # for TCP/UDP packets whose transport header is present.
        builder.assign("ports", 0)
        is_transport = (protocol == IPPROTO_TCP) | (protocol == IPPROTO_UDP)
        ports_fit = builder.packet_length() >= (hlen + 4)
        with builder.if_(is_transport & ports_fit):
            builder.assign("ports", builder.load(hlen, 4))
        key = builder.let(
            "flow_key",
            (src << 32) ^ (dst << 13) ^ (protocol << 5) ^ builder.reg("ports"),
        )

        count, found = builder.table_read(self.TABLE, key, "flow_count", "flow_found")
        with builder.if_(found):
            builder.table_write(self.TABLE, key, count + 1)
        with builder.else_():
            builder.table_write(self.TABLE, key, 1)
        builder.set_meta("flow_packets", count + 1)
        builder.emit(0)
        return builder.build()

    def create_state(self) -> ElementState:
        state = ElementState()
        state.add_table(self.TABLE, ExactMatchTable(capacity=self.capacity))
        return state

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "NetFlow":
        capacity = int(args[0]) if args else 4096
        return cls(capacity=capacity, name=name)

    def flow_count(self) -> int:
        """Number of flows currently tracked (concrete state inspection)."""
        return len(self.state.table(self.TABLE))  # type: ignore[arg-type]


@register_element
class NAT(Element):
    """Source NAT (a simplified Click ``IPRewriter``).

    Outbound packets have their source address rewritten to the external
    address and their source port replaced by a translated port drawn from
    a pre-allocated range.  The (flow key -> translated port) map and the
    next-free-port counter are private state.

    The translated port is range-checked before use — the "bad value"
    check the paper's data-structure analysis performs: even if the map
    returned an arbitrary value, the element must not misbehave.
    """

    TABLE_MAP = "nat_map"
    TABLE_ALLOC = "nat_alloc"
    KEY_NEXT_PORT = 0

    def __init__(
        self,
        external_ip: Union[str, IPv4Address] = "192.0.2.1",
        port_base: int = 10_000,
        port_count: int = 20_000,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.external_ip = IPv4Address(external_ip)
        self.port_base = port_base
        self.port_count = port_count

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="source NAT rewriting")
        builder.declare_table(self.TABLE_MAP, kind="private", description="flow to translated port")
        builder.declare_table(self.TABLE_ALLOC, kind="private", description="next free port index")

        with builder.if_(builder.packet_length() < IPV4_MIN_HEADER_LEN):
            builder.drop("too short for an IPv4 header")
        protocol = builder.let("protocol", builder.load(IPV4_PROTO_OFFSET, 1))
        is_transport = (protocol == IPPROTO_TCP) | (protocol == IPPROTO_UDP)
        with builder.if_(is_transport.logical_not()):
            # Non-TCP/UDP traffic passes through with only the address rewritten.
            builder.store(IPV4_SRC_OFFSET, 4, int(self.external_ip))
            builder.emit(0)
        vihl = builder.let("vihl", builder.load(0, 1))
        hlen = builder.let("hlen", (vihl & 0x0F) * 4)
        with builder.if_(builder.packet_length() < hlen + 4):
            builder.drop("transport ports missing")

        src = builder.let("src", builder.load(IPV4_SRC_OFFSET, 4))
        src_port = builder.let("src_port", builder.load(hlen, 2))
        key = builder.let("nat_key", (src << 16) ^ src_port ^ (protocol << 48))

        mapped, found = builder.table_read(self.TABLE_MAP, key, "mapped_port", "mapping_found")
        with builder.if_(found.logical_not()):
            next_index, _alloc_found = builder.table_read(
                self.TABLE_ALLOC, self.KEY_NEXT_PORT, "next_index", "alloc_found"
            )
            with builder.if_(next_index >= self.port_count):
                builder.drop("NAT port pool exhausted")
            builder.assign("mapped_port", next_index + self.port_base)
            builder.table_write(self.TABLE_MAP, key, builder.reg("mapped_port"))
            builder.table_write(self.TABLE_ALLOC, self.KEY_NEXT_PORT, next_index + 1)

        # Bad-value guard: whatever the map returned must be a valid port.
        mapped_value = builder.reg("mapped_port")
        valid_port = (mapped_value >= self.port_base) & (
            mapped_value < self.port_base + self.port_count
        )
        with builder.if_(valid_port.logical_not()):
            builder.drop("corrupt NAT mapping")

        builder.store(IPV4_SRC_OFFSET, 4, int(self.external_ip))
        builder.store(hlen, 2, mapped_value)
        builder.set_meta("nat_port", mapped_value)
        builder.emit(0)
        return builder.build()

    def create_state(self) -> ElementState:
        state = ElementState()
        state.add_table(self.TABLE_MAP, ExactMatchTable())
        state.add_table(self.TABLE_ALLOC, ExactMatchTable())
        return state

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "NAT":
        external = args[0] if args else "192.0.2.1"
        base = int(args[1]) if len(args) > 1 else 10_000
        count = int(args[2]) if len(args) > 2 else 20_000
        return cls(external_ip=external, port_base=base, port_count=count, name=name)
