"""IPv4 elements: CheckIPHeader, DecIPTTL, IPLookup, IPOptions, IPFilter.

These are the elements of the default Click IP-router configuration the
paper's preliminary evaluation verifies (§3 "Preliminary Results").  They
all operate on packets whose first byte is the start of the IPv4 header
(i.e. after ``EthDecap`` / ``Strip(14)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ...ir.builder import ProgramBuilder
from ...ir.program import ElementProgram
from ...net.addresses import IPv4Prefix
from ...net.headers import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPV4_CHECKSUM_OFFSET,
    IPV4_DST_OFFSET,
    IPV4_MIN_HEADER_LEN,
    IPV4_PROTO_OFFSET,
    IPV4_SRC_OFFSET,
    IPV4_TOTAL_LENGTH_OFFSET,
    IPV4_TTL_OFFSET,
)
from ..element import Element, register_element
from ..errors import DataplaneError
from ..state import ElementState, LpmTable


@register_element
class CheckIPHeader(Element):
    """Validate the IPv4 header (Click's ``CheckIPHeader``).

    Checks, in order: minimum length, IP version, IHL sanity, header fits
    in the packet, total length is consistent, and (optionally) the header
    checksum.  Malformed packets are dropped (or emitted on port 1 when
    ``use_error_port`` is set, mirroring Click's optional second output).

    This is the element that makes downstream "suspect" segments
    infeasible: it establishes exactly the invariants that IPOptions and
    DecIPTTL rely on.
    """

    def __init__(
        self,
        verify_checksum: bool = True,
        use_error_port: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.verify_checksum = verify_checksum
        self.use_error_port = use_error_port
        self.num_output_ports = 2 if use_error_port else 1

    def _reject(self, builder: ProgramBuilder, reason: str) -> None:
        if self.use_error_port:
            builder.emit(1)
        else:
            builder.drop(reason)

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(
            self.name,
            num_output_ports=self.num_output_ports,
            description="validate the IPv4 header",
        )
        with builder.if_(builder.packet_length() < IPV4_MIN_HEADER_LEN):
            self._reject(builder, "packet shorter than an IPv4 header")
        vihl = builder.let("vihl", builder.load(0, 1))
        with builder.if_((vihl >> 4) != 4):
            self._reject(builder, "not IPv4")
        ihl = builder.let("ihl", vihl & 0x0F)
        with builder.if_(ihl < 5):
            self._reject(builder, "IHL below 5")
        hlen = builder.let("hlen", ihl * 4)
        with builder.if_(builder.packet_length() < hlen):
            self._reject(builder, "header does not fit in the packet")
        total_length = builder.let("total_length", builder.load(IPV4_TOTAL_LENGTH_OFFSET, 2))
        with builder.if_(total_length < hlen):
            self._reject(builder, "total length shorter than the header")
        with builder.if_(total_length > builder.packet_length()):
            self._reject(builder, "total length longer than the packet")

        if self.verify_checksum:
            builder.assign("offset", 0)
            builder.assign("sum", 0)
            with builder.while_(builder.reg("offset") < hlen, max_iterations=30, loop_id=f"{self.name}.checksum"):
                builder.assign("sum", builder.reg("sum") + builder.load(builder.reg("offset"), 2))
                builder.assign("offset", builder.reg("offset") + 2)
            folded = builder.let("folded", (builder.reg("sum") & 0xFFFF) + (builder.reg("sum") >> 16))
            folded2 = builder.let("folded2", (folded & 0xFFFF) + (folded >> 16))
            with builder.if_(folded2 != 0xFFFF):
                self._reject(builder, "bad IP checksum")

        builder.set_meta("ip_header_valid", 1)
        builder.set_meta("ip_header_length", builder.reg("hlen"))
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "CheckIPHeader":
        verify = not any(arg.strip().upper() == "NOCHECKSUM" for arg in args)
        return cls(verify_checksum=verify, name=name)


@register_element
class DecIPTTL(Element):
    """Decrement the TTL and patch the checksum (Click's ``DecIPTTL``).

    Packets whose TTL is 0 or 1 are dropped (port 1 when ``use_expired_port``
    is set, where an ICMP generator would sit in a full router).
    The checksum is patched incrementally (RFC 1141-style) rather than
    recomputed.
    """

    click_aliases = ("DecTTL",)

    def __init__(self, use_expired_port: bool = False, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.use_expired_port = use_expired_port
        self.num_output_ports = 2 if use_expired_port else 1

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(
            self.name,
            num_output_ports=self.num_output_ports,
            description="decrement TTL, patch checksum",
        )
        ttl = builder.let("ttl", builder.load(IPV4_TTL_OFFSET, 1))
        with builder.if_(ttl <= 1):
            if self.use_expired_port:
                builder.emit(1)
            else:
                builder.drop("TTL expired")
        builder.store(IPV4_TTL_OFFSET, 1, ttl - 1)
        # Incremental checksum update: the TTL lives in the high byte of the
        # word at offset 8, so decrementing TTL by one adds 0x0100 to the
        # checksum, plus an end-around carry when it overflows 16 bits.
        checksum = builder.let("checksum", builder.load(IPV4_CHECKSUM_OFFSET, 2))
        updated = builder.let("updated", checksum + 0x0100)
        with builder.if_(updated > 0xFFFF):
            builder.assign("updated", (updated & 0xFFFF) + 1)
        builder.store(IPV4_CHECKSUM_OFFSET, 2, builder.reg("updated"))
        builder.emit(0)
        return builder.build()


@register_element
class IPLookup(Element):
    """Longest-prefix-match routing (Click's ``LookupIPRoute`` family).

    The forwarding table is static state; the packet is emitted on the
    port stored with the matching route.  Packets that match no route are
    dropped (a production router would send an ICMP unreachable).
    """

    click_aliases = ("LookupIPRoute", "RadixIPLookup", "StaticIPLookup")

    TABLE = "routes"

    def __init__(
        self,
        routes: Sequence[Union[str, Tuple[str, int]]] = (),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        parsed: List[Tuple[str, int]] = []
        for route in routes:
            if isinstance(route, tuple):
                parsed.append((route[0], int(route[1])))
            else:
                parts = route.split()
                if len(parts) < 2:
                    raise DataplaneError(f"route needs 'prefix port', got {route!r}")
                parsed.append((parts[0], int(parts[-1])))
        self.routes = parsed
        self.num_output_ports = max((port for _, port in parsed), default=0) + 1

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(
            self.name,
            num_output_ports=self.num_output_ports,
            description="longest-prefix-match forwarding",
        )
        builder.declare_table(self.TABLE, kind="static", description="forwarding table")
        with builder.if_(builder.packet_length() < IPV4_MIN_HEADER_LEN):
            builder.drop("too short for an IPv4 header")
        destination = builder.let("destination", builder.load(IPV4_DST_OFFSET, 4))
        port, found = builder.table_read(self.TABLE, destination, "route_port", "route_found")
        with builder.if_(found.logical_not()):
            builder.drop("no route to destination")
        builder.set_meta("output_port", port)
        # Emit on the port selected by the table.  The IR's Emit takes a
        # static port, so the dynamic choice becomes a cascade of branches —
        # which is also how the verifier sees the per-port paths.
        for out_port in range(self.num_output_ports - 1):
            with builder.if_(port == out_port):
                builder.emit(out_port)
        builder.emit(self.num_output_ports - 1)
        return builder.build()

    def create_state(self) -> ElementState:
        state = ElementState()
        table = LpmTable()
        for prefix, port in self.routes:
            table.add_route(prefix, port)
        state.add_table(self.TABLE, table)
        return state

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "IPLookup":
        return cls(routes=list(args), name=name)


@register_element
class IPOptions(Element):
    """Process IPv4 options (Click's ``IPGWOptions``).

    Walks the options region between byte 20 and the end of the header:
    End-of-Options stops processing, No-Operation advances one byte, any
    other option carries a length byte which must be at least 2 and must
    not run past the header.  Malformed options drop the packet (port 1
    with ``use_error_port``, where an ICMP parameter-problem generator
    would sit).

    Deliberately, and faithfully to Click, this element *trusts* that the
    header length fits inside the packet — CheckIPHeader upstream
    guarantees it.  Symbolically executed in isolation it therefore has
    crash suspects (out-of-bounds reads); composed after CheckIPHeader
    those suspects are infeasible.  This is the Figure-2 story on real code.
    """

    click_aliases = ("IPGWOptions",)

    OPT_EOL = 0
    OPT_NOP = 1

    def __init__(
        self,
        max_options: int = 10,
        use_error_port: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        if max_options <= 0:
            raise DataplaneError("max_options must be positive")
        self.max_options = max_options
        self.use_error_port = use_error_port
        self.num_output_ports = 2 if use_error_port else 1

    def _reject(self, builder: ProgramBuilder, reason: str) -> None:
        if self.use_error_port:
            builder.emit(1)
        else:
            builder.drop(reason)

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(
            self.name,
            num_output_ports=self.num_output_ports,
            description="process IPv4 options",
        )
        vihl = builder.let("vihl", builder.load(0, 1))
        hlen = builder.let("hlen", (vihl & 0x0F) * 4)
        # No options: the common case, fast path.
        with builder.if_(hlen <= IPV4_MIN_HEADER_LEN):
            builder.emit(0)
        # Touch the end of the options region before walking it, trusting the
        # IHL — exactly what Click does when it copies the options for
        # processing.  When an upstream CheckIPHeader has established that the
        # header fits in the packet this read is safe; in isolation it is an
        # out-of-bounds read (a crash) for packets whose IHL lies.
        builder.let("options_end", builder.load(hlen - 1, 1))
        builder.assign("position", IPV4_MIN_HEADER_LEN)
        with builder.while_(
            builder.reg("position") < hlen,
            max_iterations=self.max_options,
            loop_id=f"{self.name}.options",
        ):
            option_type = builder.let("option_type", builder.load(builder.reg("position"), 1))
            with builder.if_(option_type == self.OPT_EOL):
                builder.emit(0)
            with builder.if_(option_type == self.OPT_NOP):
                builder.assign("position", builder.reg("position") + 1)
            with builder.else_():
                # Option with a length byte.
                with builder.if_(builder.reg("position") + 1 >= hlen):
                    self._reject(builder, "option length byte missing")
                option_length = builder.let(
                    "option_length", builder.load(builder.reg("position") + 1, 1)
                )
                with builder.if_(option_length < 2):
                    self._reject(builder, "option length below 2")
                with builder.if_(builder.reg("position") + option_length > hlen):
                    self._reject(builder, "option runs past the header")
                builder.assign("position", builder.reg("position") + option_length)
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "IPOptions":
        max_options = int(args[0]) if args else 10
        return cls(max_options=max_options, name=name)


@dataclass(frozen=True)
class FilterRule:
    """One IPFilter rule: action plus (all optional) match fields."""

    action: str  # "allow" or "deny"
    src: Optional[IPv4Prefix] = None
    dst: Optional[IPv4Prefix] = None
    protocol: Optional[int] = None
    dst_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ("allow", "deny"):
            raise DataplaneError(f"filter action must be allow/deny, got {self.action!r}")


@register_element
class IPFilter(Element):
    """Simple stateless firewall (a subset of Click's ``IPFilter``).

    Rules are evaluated in order; the first matching rule decides.  The
    default policy (no rule matches) is configurable and defaults to deny.
    Port matching is only attempted for TCP and UDP packets and only when
    the transport header fits in the packet.
    """

    def __init__(
        self,
        rules: Sequence[FilterRule] = (),
        default_allow: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.rules = list(rules)
        self.default_allow = default_allow

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="stateless packet filter")
        with builder.if_(builder.packet_length() < IPV4_MIN_HEADER_LEN):
            builder.drop("too short for an IPv4 header")
        src = builder.let("src", builder.load(IPV4_SRC_OFFSET, 4))
        dst = builder.let("dst", builder.load(IPV4_DST_OFFSET, 4))
        protocol = builder.let("protocol", builder.load(IPV4_PROTO_OFFSET, 1))
        vihl = builder.let("vihl", builder.load(0, 1))
        hlen = builder.let("hlen", (vihl & 0x0F) * 4)

        for index, rule in enumerate(self.rules):
            condition = None

            def conjoin(addition):
                nonlocal condition
                condition = addition if condition is None else condition & addition

            if rule.src is not None:
                conjoin((src & rule.src.mask()) == (int(rule.src.network) & rule.src.mask()))
            if rule.dst is not None:
                conjoin((dst & rule.dst.mask()) == (int(rule.dst.network) & rule.dst.mask()))
            if rule.protocol is not None:
                conjoin(protocol == rule.protocol)
            match_reg = f"rule{index}_match"
            if rule.dst_port is not None:
                # Only TCP/UDP have ports; guard the load so a short packet
                # fails the rule instead of crashing the filter.
                builder.assign(match_reg, 0)
                is_transport = (protocol == IPPROTO_TCP) | (protocol == IPPROTO_UDP)
                header_fits = builder.packet_length() >= (hlen + 4)
                with builder.if_(is_transport & header_fits):
                    dst_port = builder.load(hlen + 2, 2)
                    port_match = dst_port == rule.dst_port
                    conjoin(port_match)
                    builder.assign(match_reg, condition if condition is not None else 1)
            else:
                builder.assign(match_reg, condition if condition is not None else 1)
            with builder.if_(builder.reg(match_reg)):
                if rule.action == "allow":
                    builder.emit(0)
                else:
                    builder.drop(f"denied by rule {index}")
        if self.default_allow:
            builder.emit(0)
        else:
            builder.drop("denied by default policy")
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "IPFilter":
        rules: List[FilterRule] = []
        for arg in args:
            parts = arg.split()
            if not parts:
                continue
            action = parts[0].lower()
            src = dst = None
            protocol = dst_port = None
            index = 1
            while index < len(parts) - 1:
                keyword = parts[index].lower()
                value = parts[index + 1]
                if keyword == "src":
                    src = IPv4Prefix(value)
                elif keyword == "dst":
                    dst = IPv4Prefix(value)
                elif keyword == "proto":
                    protocol = int(value)
                elif keyword == "dport":
                    dst_port = int(value)
                index += 2
            rules.append(FilterRule(action=action, src=src, dst=dst, protocol=protocol, dst_port=dst_port))
        return cls(rules=rules, name=name)
