"""Ethernet-layer elements: Classifier, EthEncap, EthDecap."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ...ir.builder import ProgramBuilder
from ...ir.program import ElementProgram
from ...net.addresses import EthernetAddress
from ...net.headers import ETHERNET_HEADER_LEN, ETHERTYPE_IPV4
from ...net.rules import ClassifierRule, parse_classifier_config
from ..element import Element, register_element


@register_element
class Classifier(Element):
    """Pattern classifier over raw packet bytes (Click's ``Classifier``).

    Each configuration string is an ``offset/value[%mask]`` conjunction (or
    ``-`` for catch-all) and corresponds to one output port, checked in
    order.  A packet matching no rule is dropped, as in Click.
    """

    def __init__(
        self,
        rules: Sequence[Union[str, ClassifierRule]] = ("-",),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        parsed: List[ClassifierRule] = []
        text_rules: List[str] = []
        for port, rule in enumerate(rules):
            if isinstance(rule, ClassifierRule):
                parsed.append(rule)
                text_rules.append(str(rule))
            else:
                text_rules.append(rule)
        if not parsed:
            parsed = parse_classifier_config(list(text_rules))
        self.rules = parsed
        self.num_output_ports = max(1, len(self.rules))

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(
            self.name,
            num_output_ports=self.num_output_ports,
            description="classify packets by byte patterns",
        )
        for rule in self.rules:
            if rule.is_catch_all():
                builder.emit(rule.port)
                return builder.build()
            # Check every pattern of the rule; all must match.  The length
            # check guards the field loads so a short packet cannot crash the
            # classifier — it simply fails the rule.
            conditions = []
            max_end = max(pattern.offset + pattern.length for pattern in rule.patterns)
            length_ok = builder.temp(builder.packet_length() >= max_end, "len_ok")
            match_reg = f"match_{rule.port}"
            builder.assign(match_reg, 0)
            with builder.if_(length_ok):
                condition = None
                for pattern in rule.patterns:
                    mask = int.from_bytes(pattern.mask, "big")
                    value = int.from_bytes(pattern.value, "big") & mask
                    field = builder.load(pattern.offset, pattern.length)
                    this_match = (field & mask) == value
                    condition = this_match if condition is None else condition & this_match
                builder.assign(match_reg, condition if condition is not None else 1)
            with builder.if_(builder.reg(match_reg)):
                builder.emit(rule.port)
        builder.drop("no classifier rule matched")
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "Classifier":
        return cls(rules=args or ["-"], name=name)


@register_element
class EthEncap(Element):
    """Prepend an Ethernet header (Click's ``EtherEncap``)."""

    click_aliases = ("EtherEncap",)

    def __init__(
        self,
        ethertype: int = ETHERTYPE_IPV4,
        src: Union[str, EthernetAddress] = "00:00:00:00:00:01",
        dst: Union[str, EthernetAddress] = "00:00:00:00:00:02",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.ethertype = ethertype
        self.src = EthernetAddress(src)
        self.dst = EthernetAddress(dst)

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="prepend an Ethernet header")
        builder.push_head(ETHERNET_HEADER_LEN)
        builder.store(0, 6, int(self.dst))
        builder.store(6, 6, int(self.src))
        builder.store(12, 2, self.ethertype)
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "EthEncap":
        ethertype = int(args[0], 16) if args else ETHERTYPE_IPV4
        src = args[1] if len(args) > 1 else "00:00:00:00:00:01"
        dst = args[2] if len(args) > 2 else "00:00:00:00:00:02"
        return cls(ethertype=ethertype, src=src, dst=dst, name=name)


@register_element
class EthDecap(Element):
    """Remove the Ethernet header (equivalent to Click's ``Strip(14)``).

    The packet must be at least 14 bytes long; shorter packets are
    dropped rather than crashing the element.
    """

    click_aliases = ("EtherDecap",)

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="remove the Ethernet header")
        with builder.if_(builder.packet_length() < ETHERNET_HEADER_LEN):
            builder.drop("runt frame")
        builder.pull_head(ETHERNET_HEADER_LEN)
        builder.emit(0)
        return builder.build()


@register_element
class EthMirror(Element):
    """Swap Ethernet source and destination addresses (Click's ``EtherMirror``)."""

    click_aliases = ("EtherMirror",)

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="swap Ethernet addresses")
        with builder.if_(builder.packet_length() < ETHERNET_HEADER_LEN):
            builder.drop("runt frame")
        dst = builder.let("dst", builder.load(0, 6))
        src = builder.let("src", builder.load(6, 6))
        builder.store(0, 6, src)
        builder.store(6, 6, dst)
        builder.emit(0)
        return builder.build()
