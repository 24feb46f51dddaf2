"""Basic utility elements: sources, sinks, counters, strip/unstrip, paint, queue."""

from __future__ import annotations

from typing import List, Optional

from ...ir.builder import ProgramBuilder
from ...ir.program import ElementProgram
from ..element import Element, register_element
from ..errors import DataplaneError
from ..packet import Packet
from ..state import ElementState, ExactMatchTable


@register_element
class Discard(Element):
    """Drops every packet (Click's ``Discard``)."""

    click_aliases = ("Sink",)

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="drop every packet")
        builder.drop("discarded")
        return builder.build()


@register_element
class PassThrough(Element):
    """Forwards every packet unchanged (useful as a placeholder or queue stand-in)."""

    click_aliases = ("Queue", "SimpleQueue")

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="forward unchanged")
        builder.emit(0)
        return builder.build()


@register_element
class Counter(Element):
    """Counts packets and bytes in private state, then forwards (Click's ``Counter``)."""

    TABLE = "counters"
    KEY_PACKETS = 0
    KEY_BYTES = 1

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="count packets and bytes")
        builder.declare_table(self.TABLE, kind="private", description="packet/byte counters")
        packets, _found = builder.table_read(self.TABLE, self.KEY_PACKETS, "pkt_count", "pkt_found")
        builder.table_write(self.TABLE, self.KEY_PACKETS, packets + 1)
        total_bytes, _bfound = builder.table_read(self.TABLE, self.KEY_BYTES, "byte_count", "byte_found")
        builder.table_write(self.TABLE, self.KEY_BYTES, total_bytes + builder.packet_length())
        builder.emit(0)
        return builder.build()

    def create_state(self) -> ElementState:
        state = ElementState()
        state.add_table(self.TABLE, ExactMatchTable())
        return state

    @property
    def packet_count(self) -> int:
        return self.state.table(self.TABLE).read(self.KEY_PACKETS)[0]

    @property
    def byte_count(self) -> int:
        return self.state.table(self.TABLE).read(self.KEY_BYTES)[0]


@register_element
class Paint(Element):
    """Writes a colour annotation into packet metadata (Click's ``Paint``)."""

    def __init__(self, color: int = 0, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.color = color

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description=f"paint colour {self.color}")
        builder.set_meta("paint", self.color)
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "Paint":
        color = int(args[0], 0) if args else 0
        return cls(color=color, name=name)


@register_element
class Strip(Element):
    """Removes the first N bytes of the packet (Click's ``Strip``)."""

    def __init__(self, nbytes: int = 14, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if nbytes <= 0:
            raise DataplaneError("Strip needs a positive byte count")
        self.nbytes = nbytes

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description=f"strip {self.nbytes} bytes")
        builder.pull_head(self.nbytes)
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "Strip":
        nbytes = int(args[0]) if args else 14
        return cls(nbytes=nbytes, name=name)


@register_element
class Unstrip(Element):
    """Prepends N zero bytes to the packet (Click's ``Unstrip``)."""

    def __init__(self, nbytes: int = 14, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if nbytes <= 0:
            raise DataplaneError("Unstrip needs a positive byte count")
        self.nbytes = nbytes

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description=f"unstrip {self.nbytes} bytes")
        builder.push_head(self.nbytes)
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "Unstrip":
        nbytes = int(args[0]) if args else 14
        return cls(nbytes=nbytes, name=name)


@register_element
class CheckLength(Element):
    """Drops packets longer than a maximum length (Click's ``CheckLength``)."""

    def __init__(self, max_length: int = 1514, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.max_length = max_length

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description=f"drop packets longer than {self.max_length}")
        with builder.if_(builder.packet_length() > self.max_length):
            builder.drop("packet too long")
        builder.emit(0)
        return builder.build()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "CheckLength":
        max_length = int(args[0]) if args else 1514
        return cls(max_length=max_length, name=name)


@register_element
class InfiniteSource(Element):
    """A packet generator (Click's ``InfiniteSource``).

    Not part of the verified code — the paper verifies everything between
    the generator and the sink — but needed to run concrete workloads.
    ``generate`` creates packets owned by nobody, ready to inject.
    """

    def __init__(
        self,
        template: bytes = b"\x00" * 64,
        count: int = 1,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.template = bytes(template)
        self.count = count

    def build_program(self) -> ElementProgram:
        builder = ProgramBuilder(self.name, description="source pass-through")
        builder.emit(0)
        return builder.build()

    def generate(self) -> List[Packet]:
        """Create ``count`` packets from the template."""
        return [Packet(self.template) for _ in range(self.count)]

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "InfiniteSource":
        template = args[0].encode() if args else b"\x00" * 64
        count = int(args[1]) if len(args) > 1 else 1
        return cls(template=template, count=count, name=name)
