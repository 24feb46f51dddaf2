"""Target properties the verifier can prove or refute.

The paper names three families (§1): crash freedom, bounded latency
(bounded instructions per packet in our instruction-count model), and
higher-level reachability properties such as "a well-formed packet with
destination X is never dropped".  Each property knows how to classify an
element's segments as *suspect* (Step 1) — the segments that could
violate the property and therefore need Step-2 composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Set

from .. import smt
from ..smt import Term
from ..symbex.segment import SegmentSummary


class Property:
    """Base class for verifiable properties."""

    name = "property"

    def is_suspect(self, element_name: str, segment: SegmentSummary) -> bool:
        """True if this segment, in isolation, might violate the property."""
        raise NotImplementedError

    def element_names(self) -> Set[str]:
        """Element names the property refers to (verdict keys pin where they sit)."""
        return set()

    def describe(self) -> str:
        return self.name


@dataclass
class CrashFreedom(Property):
    """No input packet can make the pipeline crash.

    A segment is suspect exactly when it crashes (failed assertion,
    out-of-bounds access, division by zero, loop-bound overrun).
    """

    name: str = "crash-freedom"

    def is_suspect(self, element_name: str, segment: SegmentSummary) -> bool:
        return segment.crashes

    def describe(self) -> str:
        return "no packet can cause the pipeline to crash"


@dataclass
class BoundedInstructions(Property):
    """Every packet finishes within ``bound`` executed IR instructions.

    Suspect segments are those whose own instruction count already exceeds
    the bound; the pipeline-level check additionally sums instruction
    counts along composed paths (see
    :meth:`repro.verify.pipeline_verifier.PipelineVerifier.instruction_bound`).
    """

    bound: int = 10_000
    name: str = "bounded-instructions"

    def is_suspect(self, element_name: str, segment: SegmentSummary) -> bool:
        return segment.instructions > self.bound

    def describe(self) -> str:
        return f"every packet executes at most {self.bound} instructions"


def all_packets(packet_bytes: Sequence[Term]) -> Term:
    """The default reachability predicate: every packet is of interest.

    A named module-level function (not a lambda) so default-constructed
    properties remain picklable for the fleet orchestrator's workers.
    """
    return smt.TRUE


@dataclass
class Reachability(Property):
    """Packets satisfying a predicate are never dropped (except by exempt elements).

    ``input_predicate`` receives the list of symbolic input-packet byte
    terms of the *first* element and returns a boolean term describing the
    packets of interest (for example "destination address is X").
    Elements listed in ``exempt_elements`` are allowed to drop such
    packets (e.g. CheckIPHeader dropping malformed packets — the paper's
    "unless it is malformed" qualifier).
    """

    input_predicate: Callable[[Sequence[Term]], Term] = all_packets
    exempt_elements: Set[str] = field(default_factory=set)
    description: str = "packets of interest are always delivered"
    name: str = "reachability"

    def is_suspect(self, element_name: str, segment: SegmentSummary) -> bool:
        if element_name in self.exempt_elements:
            return False
        return segment.drops

    def element_names(self) -> Set[str]:
        return set(self.exempt_elements)

    def describe(self) -> str:
        return self.description


@dataclass(frozen=True)
class DestinationPredicate:
    """Callable predicate "destination address equals X" (a class, not a
    closure, so reachability properties survive pickling into the fleet
    orchestrator's worker processes)."""

    destination_ip: int
    ip_header_offset: int = 0

    def __call__(self, packet_bytes: Sequence[Term]) -> Term:
        offset = self.ip_header_offset + 16  # destination address field
        if offset + 4 > len(packet_bytes):
            # The packet cannot even hold the field: no packet of interest.
            return smt.FALSE
        address = smt.Concat(*packet_bytes[offset : offset + 4])
        return smt.Eq(address, smt.BitVecVal(self.destination_ip & 0xFFFFFFFF, 32))


def destination_reachability(
    destination_ip: int,
    ip_header_offset: int = 0,
    exempt_elements: Optional[Set[str]] = None,
) -> Reachability:
    """Build the paper's example property: packets to ``destination_ip`` are never dropped.

    ``ip_header_offset`` is the byte offset of the IPv4 header within the
    packets entering the *first* element of the pipeline (0 when the
    pipeline starts after Ethernet decapsulation, 14 when it starts with
    the Ethernet header in place).
    """
    return Reachability(
        input_predicate=DestinationPredicate(destination_ip, ip_header_offset),
        exempt_elements=exempt_elements or set(),
        description=(
            f"well-formed packets with destination {destination_ip & 0xFFFFFFFF:#010x} "
            "are never dropped"
        ),
    )
