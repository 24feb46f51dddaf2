"""Segment summaries: the distilled "essence" of one path through one element.

Step 1 of the verification approach symbolically executes each element in
isolation and keeps, for every feasible segment, its path constraint C and
its symbolic state transformation S (§3 "Pipeline Decomposition").  Those
are exactly the fields of :class:`SegmentSummary`; Step 2 composes them
without ever re-executing the element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import smt
from ..smt import Term
from .state import HavocRead, PathState, TableWriteRecord


class SegmentOutcome:
    """How a segment ends (mirrors the concrete interpreter's outcomes)."""

    EMIT = "emit"
    DROP = "drop"
    CRASH = "crash"


@dataclass
class SegmentSummary:
    """The reusable summary of one feasible segment of one element.

    Attributes:
        element_name: the element whose program produced this segment.
        index: position of the segment in the element's segment list.
        outcome: emit / drop / crash.
        port: output port for emit segments.
        constraint: path constraint C over the element's symbolic input
            (packet bytes ``in_b*``, metadata ``in_meta_*``, and havoc'd
            table-read variables).
        output_bytes: for emit segments, the symbolic bytes handed to the
            next element (the state transformation S applied to the packet).
        output_metadata: the metadata annotations after the segment.
        instructions: concrete number of IR instructions executed along the
            segment (the latency proxy).
        havoc_reads / table_writes: the mutable-state interactions, used by
            the data-structure (bad-value) analysis.
        crash_message / drop_reason: diagnostics for reports.
    """

    element_name: str
    index: int
    outcome: str
    constraint: Term
    port: Optional[int] = None
    output_bytes: Tuple[Term, ...] = ()
    output_metadata: Dict[str, Term] = field(default_factory=dict)
    metadata_reads: Dict[str, Term] = field(default_factory=dict)
    instructions: int = 0
    havoc_reads: Tuple[HavocRead, ...] = ()
    table_writes: Tuple[TableWriteRecord, ...] = ()
    crash_message: str = ""
    drop_reason: str = ""

    @property
    def crashes(self) -> bool:
        return self.outcome == SegmentOutcome.CRASH

    @property
    def drops(self) -> bool:
        return self.outcome == SegmentOutcome.DROP

    @property
    def emits(self) -> bool:
        return self.outcome == SegmentOutcome.EMIT

    def free_variable_names(self) -> List[str]:
        names = set(self.constraint.free_variables())
        for term in self.output_bytes:
            names.update(term.free_variables())
        for term in self.output_metadata.values():
            names.update(term.free_variables())
        return sorted(names)

    def __repr__(self) -> str:
        detail = {
            SegmentOutcome.EMIT: f"port={self.port}",
            SegmentOutcome.DROP: f"reason={self.drop_reason!r}",
            SegmentOutcome.CRASH: f"message={self.crash_message!r}",
        }[self.outcome]
        return (
            f"SegmentSummary({self.element_name}#{self.index}, {self.outcome}, {detail}, "
            f"instructions={self.instructions})"
        )

    # -- transport ----------------------------------------------------------------

    def to_dict(self, terms) -> Dict:
        """Encode the segment with every term replaced by a slot reference.

        ``terms`` is a term-table encoder exposing ``ref(term) -> int``
        (see :mod:`repro.orchestrator.serialize`); the segment itself
        stays a plain JSON-able dict so summaries can cross process and
        filesystem boundaries without pickling hash-consed terms.
        """
        return {
            "element_name": self.element_name,
            "index": self.index,
            "outcome": self.outcome,
            "port": self.port,
            "constraint": terms.ref(self.constraint),
            "output_bytes": [terms.ref(term) for term in self.output_bytes],
            "output_metadata": {key: terms.ref(value) for key, value in self.output_metadata.items()},
            "metadata_reads": {key: terms.ref(value) for key, value in self.metadata_reads.items()},
            "instructions": self.instructions,
            "havoc_reads": [
                [havoc.table, terms.ref(havoc.key), havoc.value_var, havoc.found_var]
                for havoc in self.havoc_reads
            ],
            "table_writes": [
                [write.table, terms.ref(write.key), terms.ref(write.value)]
                for write in self.table_writes
            ],
            "crash_message": self.crash_message,
            "drop_reason": self.drop_reason,
        }

    @classmethod
    def from_dict(cls, data: Dict, terms) -> "SegmentSummary":
        """Rebuild a segment from :meth:`to_dict` output.

        ``terms`` is the matching decoder exposing ``term(slot) -> Term``;
        decoded terms are re-interned, so structural sharing between
        segments of one element survives the round trip.
        """
        return cls(
            element_name=data["element_name"],
            index=data["index"],
            outcome=data["outcome"],
            constraint=terms.term(data["constraint"]),
            port=data["port"],
            output_bytes=tuple(terms.term(slot) for slot in data["output_bytes"]),
            output_metadata={key: terms.term(slot) for key, slot in data["output_metadata"].items()},
            metadata_reads={key: terms.term(slot) for key, slot in data["metadata_reads"].items()},
            instructions=data["instructions"],
            havoc_reads=tuple(
                HavocRead(table=table, key=terms.term(key), value_var=value_var, found_var=found_var)
                for table, key, value_var, found_var in data["havoc_reads"]
            ),
            table_writes=tuple(
                TableWriteRecord(table=table, key=terms.term(key), value=terms.term(value))
                for table, key, value in data["table_writes"]
            ),
            crash_message=data["crash_message"],
            drop_reason=data["drop_reason"],
        )


def summarize_path(element_name: str, index: int, state: PathState) -> SegmentSummary:
    """Turn a terminated :class:`PathState` into a :class:`SegmentSummary`."""
    if not state.terminated or state.outcome is None:
        raise ValueError("cannot summarise a path that has not terminated")
    output_bytes: Tuple[Term, ...] = ()
    if state.outcome == SegmentOutcome.EMIT:
        output_bytes = tuple(smt.simplify(term) for term in state.packet.bytes)
    return SegmentSummary(
        element_name=element_name,
        index=index,
        outcome=state.outcome,
        constraint=state.path_constraint(),
        port=state.port,
        output_bytes=output_bytes,
        output_metadata={key: smt.simplify(value) for key, value in state.metadata.items()},
        metadata_reads=dict(state.metadata_reads),
        instructions=state.instructions,
        havoc_reads=tuple(state.havoc_reads),
        table_writes=tuple(state.table_writes),
        crash_message=state.crash_message,
        drop_reason=state.drop_reason,
    )


@dataclass
class ElementSummary:
    """All feasible segments of one element for one input-packet length."""

    element_name: str
    input_length: int
    segments: List[SegmentSummary] = field(default_factory=list)
    paths_explored: int = 0
    #: Merge-pass accounting (:mod:`repro.symbex.merge`).  Structural
    #: facts about how this summary was produced — like
    #: ``paths_explored`` they serialize with it (the merge mode is part
    #: of the summary store key, so a loaded summary's counts describe
    #: the exploration that built it, not the run that loaded it).
    merge_mode: str = "off"
    paths_merged: int = 0
    ites_introduced: int = 0
    merge_rejected: int = 0
    solver_checks: int = 0
    #: Feasibility queries answered from the interned-constraint-set memo.
    feasibility_memo_hits: int = 0
    #: Seconds this process spent computing the summary.  Not serialized:
    #: a summary loaded from a store or shipped by a worker reads 0.0, so
    #: its stored text depends only on what symbolic execution read.
    elapsed_seconds: float = 0.0

    def segments_with_outcome(self, outcome: str) -> List[SegmentSummary]:
        return [segment for segment in self.segments if segment.outcome == outcome]

    @property
    def crash_segments(self) -> List[SegmentSummary]:
        return self.segments_with_outcome(SegmentOutcome.CRASH)

    @property
    def emit_segments(self) -> List[SegmentSummary]:
        return self.segments_with_outcome(SegmentOutcome.EMIT)

    @property
    def drop_segments(self) -> List[SegmentSummary]:
        return self.segments_with_outcome(SegmentOutcome.DROP)

    @property
    def max_instructions(self) -> int:
        return max((segment.instructions for segment in self.segments), default=0)

    def emit_segments_for_port(self, port: int) -> List[SegmentSummary]:
        return [segment for segment in self.emit_segments if segment.port == port]

    def __repr__(self) -> str:
        return (
            f"ElementSummary({self.element_name}, length={self.input_length}, "
            f"{len(self.segments)} segments: {len(self.emit_segments)} emit / "
            f"{len(self.drop_segments)} drop / {len(self.crash_segments)} crash)"
        )

    # -- transport ----------------------------------------------------------------

    def to_dict(self, terms) -> Dict:
        """Encode the summary against a term-table encoder (see ``SegmentSummary.to_dict``)."""
        return {
            "element_name": self.element_name,
            "input_length": self.input_length,
            "segments": [segment.to_dict(terms) for segment in self.segments],
            "paths_explored": self.paths_explored,
            "merge_mode": self.merge_mode,
            "paths_merged": self.paths_merged,
            "ites_introduced": self.ites_introduced,
            "merge_rejected": self.merge_rejected,
            "solver_checks": self.solver_checks,
            "feasibility_memo_hits": self.feasibility_memo_hits,
        }

    @classmethod
    def from_dict(cls, data: Dict, terms) -> "ElementSummary":
        return cls(
            element_name=data["element_name"],
            input_length=data["input_length"],
            segments=[SegmentSummary.from_dict(segment, terms) for segment in data["segments"]],
            paths_explored=data["paths_explored"],
            merge_mode=data.get("merge_mode", "off"),
            paths_merged=data.get("paths_merged", 0),
            ites_introduced=data.get("ites_introduced", 0),
            merge_rejected=data.get("merge_rejected", 0),
            solver_checks=data["solver_checks"],
            feasibility_memo_hits=data["feasibility_memo_hits"],
        )
