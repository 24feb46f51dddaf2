"""The element base class: a packet-processing stage of the pipeline.

An element's behaviour is an IR program (:meth:`Element.build_program`)
plus its state tables (:meth:`Element.create_state`).  The same program is
run concretely here and symbolically by the verifier, so what you deploy
is what you prove about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Type

from ..ir.interpreter import ExecutionResult, Interpreter, Outcome
from ..ir.program import ElementProgram, structural_digest
from ..ir.validate import validate_program
from .errors import DataplaneError
from .packet import Packet
from .state import ElementState

#: Registry of element classes by name, used by the Click-style config parser.
ELEMENT_REGISTRY: Dict[str, Type["Element"]] = {}

#: Structural digests of the programs that passed validation in this
#: process.  Validity depends only on what the digest covers, so a fresh
#: instance of an already validated configuration skips the walk; an
#: invalid program is never added, so each instance of one raises.
_VALIDATED_PROGRAMS: Set[str] = set()


def register_element(cls: Type["Element"]) -> Type["Element"]:
    """Class decorator adding an element class (and its aliases) to the registry."""
    names = [cls.__name__] + list(getattr(cls, "click_aliases", ()))
    for name in names:
        ELEMENT_REGISTRY[name] = cls
    return cls


class Element:
    """Base class for packet-processing elements.

    Subclasses implement :meth:`build_program` (their per-packet IR) and
    optionally :meth:`create_state` (their private/static tables) and
    :meth:`from_click_args` (their Click configuration-string parsing).
    """

    #: Number of output ports the element exposes.
    num_output_ports: int = 1
    #: Number of input ports (informational; the driver only checks connectivity).
    num_input_ports: int = 1
    #: Alternative names accepted by the configuration parser.
    click_aliases: Sequence[str] = ()

    _instance_counter = 0

    def __init__(self, name: Optional[str] = None) -> None:
        Element._instance_counter += 1
        self.name = name or f"{type(self).__name__}_{Element._instance_counter}"
        self._program: Optional[ElementProgram] = None
        self._program_digest: Optional[str] = None
        self._state: Optional[ElementState] = None
        self._interpreter = Interpreter()
        # Simple built-in counters (themselves private state).
        self.packets_processed = 0
        self.packets_emitted = 0
        self.packets_dropped = 0
        self.packets_crashed = 0
        self.instructions_executed = 0

    # -- pieces supplied by subclasses ---------------------------------------------------

    def build_program(self) -> ElementProgram:
        """Build this element's per-packet IR program."""
        raise NotImplementedError(f"{type(self).__name__} must implement build_program()")

    def create_state(self) -> ElementState:
        """Create this element's state tables (default: no tables)."""
        return ElementState()

    @classmethod
    def from_click_args(cls, args: List[str], name: Optional[str] = None) -> "Element":
        """Construct the element from Click-style configuration arguments.

        The default accepts only an empty argument list; elements with
        configuration override this.
        """
        if args and any(arg.strip() for arg in args):
            raise DataplaneError(
                f"{cls.__name__} takes no configuration arguments, got {args!r}"
            )
        return cls(name=name)  # type: ignore[call-arg]

    # -- derived, cached views ------------------------------------------------------------

    @property
    def program(self) -> ElementProgram:
        """The element's validated IR program (built once, cached).

        Building it also fixes :attr:`program_digest`, and validates the
        program unless a program with that digest already passed in this
        process.  The program is the element's verification identity,
        together with the contents of the tables it declares static (see
        :mod:`repro.dataplane.fingerprint`).  Neither may change once the
        element has been fingerprinted: the fingerprint module memoises
        them on the instance.
        """
        if self._program is None:
            program = self.build_program()
            digest = structural_digest(program)
            if digest not in _VALIDATED_PROGRAMS:
                validate_program(program).raise_if_invalid()
                _VALIDATED_PROGRAMS.add(digest)
            self._program_digest = digest
            self._program = program
        return self._program

    @property
    def program_digest(self) -> str:
        """The structural digest of :attr:`program`, computed when it was built."""
        if self._program_digest is None:
            self.program  # building the program fixes its digest
        return self._program_digest

    @property
    def state(self) -> ElementState:
        """The element's private/static state (created once, cached)."""
        if self._state is None:
            self._state = self.create_state()
        return self._state

    # -- packet processing ----------------------------------------------------------------

    def process(self, packet: Packet) -> ExecutionResult:
        """Run the element on a packet it owns; apply the results to the packet.

        The packet's bytes and metadata are updated in place on emit.  On
        drop or crash the packet is killed.  The caller (usually the
        pipeline driver) routes the packet onward based on the result.
        """
        data = packet.data(self)
        metadata = packet.metadata(self)
        result = self._interpreter.run(self.program, data, metadata, self.state)

        self.packets_processed += 1
        self.instructions_executed += result.instructions
        if result.outcome == Outcome.EMIT:
            self.packets_emitted += 1
            packet.set_data(result.data, self)
            packet.metadata(self).clear()
            packet.metadata(self).update(result.metadata)
        elif result.outcome == Outcome.DROP:
            self.packets_dropped += 1
            packet.kill(self)
        else:
            self.packets_crashed += 1
            packet.kill(self)
        return result

    def reset_counters(self) -> None:
        self.packets_processed = 0
        self.packets_emitted = 0
        self.packets_dropped = 0
        self.packets_crashed = 0
        self.instructions_executed = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
