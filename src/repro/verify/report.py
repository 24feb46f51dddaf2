"""Verification results: proofs, counterexamples and statistics.

Every result type round-trips through plain-JSON dicts (``to_dict`` /
``from_dict``): counterexamples carry concrete bytes and scalars, never
solver terms, so — unlike element summaries — verdict records need no DAG
serialization.  The orchestrator's :class:`VerdictStore` persists these
payloads to make re-certification proportional to a configuration diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.stats import StatisticsMixin
from ..smt.qcache import QueryCacheStatistics


class Verdict:
    """Possible outcomes of a verification run."""

    PROVED = "proved"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


def undecided_note(element: str, outcome: str, detail: Optional[str]) -> str:
    """The note an ``unknown`` verdict carries for a violation the solver left undecided."""
    suffix = f": {detail}" if detail else ""
    return f"solver budget exhausted deciding whether {element!r} can {outcome}{suffix}"


@dataclass
class Counterexample:
    """A concrete packet (plus any required table state) violating the property."""

    packet: bytes
    element_path: List[str] = field(default_factory=list)
    violating_element: str = ""
    violation_kind: str = ""
    detail: str = ""
    required_table_values: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, int] = field(default_factory=dict)
    confirmed_by_replay: Optional[bool] = None

    def __repr__(self) -> str:
        return (
            f"Counterexample(len={len(self.packet)}, element={self.violating_element!r}, "
            f"kind={self.violation_kind!r}, detail={self.detail!r}, "
            f"confirmed={self.confirmed_by_replay})"
        )

    def to_dict(self) -> dict:
        return {
            "packet": self.packet.hex(),
            "element_path": list(self.element_path),
            "violating_element": self.violating_element,
            "violation_kind": self.violation_kind,
            "detail": self.detail,
            "required_table_values": dict(self.required_table_values),
            "metadata": dict(self.metadata),
            "confirmed_by_replay": self.confirmed_by_replay,
        }

    def copy(self) -> "Counterexample":
        """A copy that shares no list or dict with this one."""
        return Counterexample(
            self.packet,
            list(self.element_path),
            self.violating_element,
            self.violation_kind,
            self.detail,
            dict(self.required_table_values),
            dict(self.metadata),
            self.confirmed_by_replay,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "Counterexample":
        return cls(
            packet=bytes.fromhex(payload["packet"]),
            element_path=list(payload.get("element_path", [])),
            violating_element=payload.get("violating_element", ""),
            violation_kind=payload.get("violation_kind", ""),
            detail=payload.get("detail", ""),
            required_table_values=dict(payload.get("required_table_values", {})),
            metadata=dict(payload.get("metadata", {})),
            confirmed_by_replay=payload.get("confirmed_by_replay"),
        )


@dataclass
class VerificationStatistics(StatisticsMixin):
    """Work performed during one verification run.

    ``solver_checks`` counts every feasibility/satisfiability question the
    run asked; ``feasibility_memo_hits`` of them were answered from the
    interned-constraint-set memo without touching a solver at all.
    """

    elements_analyzed: int = 0
    segments_total: int = 0
    suspect_segments: int = 0
    composed_paths_checked: int = 0
    composed_paths_feasible: int = 0
    solver_checks: int = 0
    feasibility_memo_hits: int = 0
    #: Solver work: CDCL searches (0 on a warm run backed by the
    #: persistent L3 query cache), slice questions the cache tiers
    #: answered, and slices no cache tier answered.  Each is a delta of
    #: the query cache the run went through (:meth:`count_query_work`),
    #: so it includes the Step-1 work done during the run.
    sat_core_calls: int = 0
    qcache_hits: int = 0
    slices_solved: int = 0
    #: Step-1 path statistics: states that reached a terminal outcome plus
    #: the merge pass's work (pairs collapsed into ite-lifted states, ite
    #: terms introduced doing so, and candidate pairs rejected by policy).
    paths_explored: int = 0
    paths_merged: int = 0
    ites_introduced: int = 0
    merge_rejected: int = 0
    summary_cache_hits: int = 0
    elapsed_seconds: float = 0.0
    per_element_segments: Dict[str, int] = field(default_factory=dict)
    #: Step-1 seconds per ``element@length``, as measured where this
    #: process computed the summary: one loaded from a store or computed
    #: in a pool worker adds 0.
    per_element_seconds: Dict[str, float] = field(default_factory=dict)
    budget_exceeded: bool = False

    def merge_element(self, name: str, segments: int, seconds: float) -> None:
        self.elements_analyzed += 1
        self.segments_total += segments
        self.per_element_segments[name] = segments
        self.per_element_seconds[name] = self.per_element_seconds.get(name, 0.0) + seconds

    def count_solver_checks(self, checks: int, memo_hits: int = 0) -> None:
        """Add ``checks`` solver questions, ``memo_hits`` of them memo answers."""
        self.solver_checks += checks
        self.feasibility_memo_hits += memo_hits

    def count_query_work(
        self, before: QueryCacheStatistics, after: QueryCacheStatistics
    ) -> None:
        """Add the solver work a query cache counted between two snapshots."""
        self.sat_core_calls += after.sat_core_calls - before.sat_core_calls
        self.qcache_hits += after.hits - before.hits
        self.slices_solved += after.solved - before.solved


@dataclass
class VerificationResult:
    """The outcome of verifying one property on one pipeline."""

    property_name: str
    pipeline_name: str
    verdict: str
    input_lengths: Tuple[int, ...] = ()
    counterexamples: List[Counterexample] = field(default_factory=list)
    statistics: VerificationStatistics = field(default_factory=VerificationStatistics)
    notes: List[str] = field(default_factory=list)

    @property
    def proved(self) -> bool:
        return self.verdict == Verdict.PROVED

    @property
    def violated(self) -> bool:
        return self.verdict == Verdict.VIOLATED

    def summary(self) -> str:
        lines = [
            f"property   : {self.property_name}",
            f"pipeline   : {self.pipeline_name}",
            f"verdict    : {self.verdict}",
            f"lengths    : {list(self.input_lengths)}",
            f"segments   : {self.statistics.segments_total} "
            f"({self.statistics.suspect_segments} suspect)",
            f"composed   : {self.statistics.composed_paths_checked} checked, "
            f"{self.statistics.composed_paths_feasible} feasible",
            f"solver     : {self.statistics.solver_checks} checks "
            f"({self.statistics.feasibility_memo_hits} memo hits)",
            f"sat core   : {self.statistics.sat_core_calls} calls "
            f"({self.statistics.qcache_hits} query-cache hits, "
            f"{self.statistics.slices_solved} slices solved)",
            f"paths      : {self.statistics.paths_explored} explored, "
            f"{self.statistics.paths_merged} merged "
            f"({self.statistics.ites_introduced} ites, "
            f"{self.statistics.merge_rejected} rejected)",
            f"time       : {self.statistics.elapsed_seconds:.2f}s",
        ]
        for counterexample in self.counterexamples[:5]:
            lines.append(f"counterexample: {counterexample!r}")
        for note in self.notes:
            lines.append(f"note       : {note}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"VerificationResult({self.property_name!r}, {self.pipeline_name!r}, "
            f"{self.verdict}, {len(self.counterexamples)} counterexamples)"
        )

    def to_dict(self) -> dict:
        return {
            "property_name": self.property_name,
            "pipeline_name": self.pipeline_name,
            "verdict": self.verdict,
            "input_lengths": list(self.input_lengths),
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
            "statistics": self.statistics.to_dict(),
            "notes": list(self.notes),
        }

    def renamed(self, pipeline_name: str) -> "VerificationResult":
        """A copy for ``pipeline_name`` that shares nothing mutable with this result."""
        return VerificationResult(
            self.property_name,
            pipeline_name,
            self.verdict,
            self.input_lengths,
            [counterexample.copy() for counterexample in self.counterexamples],
            self.statistics.copy(),
            list(self.notes),
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationResult":
        return cls(
            property_name=payload["property_name"],
            pipeline_name=payload["pipeline_name"],
            verdict=payload["verdict"],
            input_lengths=tuple(payload.get("input_lengths", ())),
            counterexamples=[
                Counterexample.from_dict(ce) for ce in payload.get("counterexamples", [])
            ],
            statistics=VerificationStatistics.from_dict(payload.get("statistics", {})),
            notes=list(payload.get("notes", [])),
        )


@dataclass
class InstructionBoundResult:
    """Result of the bounded-instructions analysis."""

    pipeline_name: str
    input_lengths: Tuple[int, ...]
    #: ``None`` when Step 1 blew its budget (``statistics.budget_exceeded``):
    #: no bound was found, and there is no witness.
    bound: Optional[int]
    witness_packet: Optional[bytes] = None
    witness_instructions: Optional[int] = None
    witness_confirmed: Optional[bool] = None
    per_path_bounds: List[Tuple[str, int]] = field(default_factory=list)
    statistics: VerificationStatistics = field(default_factory=VerificationStatistics)

    def summary(self) -> str:
        bound = "none found (budget exceeded)" if self.bound is None else self.bound
        lines = [
            f"pipeline            : {self.pipeline_name}",
            f"instruction bound   : {bound}",
            f"witness instructions: {self.witness_instructions}",
            f"witness confirmed   : {self.witness_confirmed}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "pipeline_name": self.pipeline_name,
            "input_lengths": list(self.input_lengths),
            "bound": self.bound,
            "witness_packet": self.witness_packet.hex() if self.witness_packet else None,
            "witness_instructions": self.witness_instructions,
            "witness_confirmed": self.witness_confirmed,
            "per_path_bounds": [list(pair) for pair in self.per_path_bounds],
            "statistics": self.statistics.to_dict(),
        }

    def renamed(self, pipeline_name: str) -> "InstructionBoundResult":
        """A copy for ``pipeline_name`` that shares nothing mutable with this result."""
        return InstructionBoundResult(
            pipeline_name,
            self.input_lengths,
            self.bound,
            self.witness_packet,
            self.witness_instructions,
            self.witness_confirmed,
            list(self.per_path_bounds),
            self.statistics.copy(),
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "InstructionBoundResult":
        witness = payload.get("witness_packet")
        return cls(
            pipeline_name=payload["pipeline_name"],
            input_lengths=tuple(payload.get("input_lengths", ())),
            bound=payload["bound"],
            witness_packet=bytes.fromhex(witness) if witness else None,
            witness_instructions=payload.get("witness_instructions"),
            witness_confirmed=payload.get("witness_confirmed"),
            per_path_bounds=[
                (name, bound) for name, bound in payload.get("per_path_bounds", [])
            ],
            statistics=VerificationStatistics.from_dict(payload.get("statistics", {})),
        )
