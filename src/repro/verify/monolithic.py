"""The baseline the paper compares against: whole-pipeline symbolic execution.

Instead of summarising elements in isolation and composing (Step 1 /
Step 2), the monolithic verifier symbolically executes the entire pipeline
as if it were one program: every path of element *i* is extended by every
path of element *i+1* under the accumulated path constraint.  The number
of explored paths therefore grows as the product of the per-element path
counts — the ``2^(k·n)`` behaviour of §3 — and on non-trivial pipelines
the run exceeds its budget, reproducing the paper's "did not complete
within 12 hours" data point as a ``budget exceeded`` verdict.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import smt
from ..obs.trace import clock
from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..symbex.engine import SymbexOptions, SymbolicEngine
from ..symbex.errors import PathExplosionError
from ..symbex.segment import SegmentOutcome
from ..symbex.state import PathState, SymbolicPacket
from .errors import VerificationError
from .properties import CrashFreedom, Property
from .report import (
    Counterexample,
    VerificationResult,
    VerificationStatistics,
    Verdict,
    undecided_note,
)


@dataclass
class MonolithicStatistics(VerificationStatistics):
    """Statistics specific to whole-pipeline exploration."""

    pipeline_paths_explored: int = 0


class MonolithicVerifier:
    """Whole-pipeline symbolic execution without decomposition (the baseline)."""

    def __init__(
        self,
        pipeline: Pipeline,
        entry: Optional[Element] = None,
        options: Optional[SymbexOptions] = None,
    ) -> None:
        pipeline.validate()
        self.pipeline = pipeline
        self.options = options or SymbexOptions(max_paths=20_000, max_seconds=60.0)
        if entry is None:
            entries = pipeline.entry_elements()
            if len(entries) != 1:
                raise VerificationError(
                    f"pipeline has {len(entries)} entry elements; pass `entry` explicitly"
                )
            entry = entries[0]
        self.entry = entry

    def verify(
        self,
        target_property: Property,
        input_length: int = 64,
        max_counterexamples: int = 3,
    ) -> VerificationResult:
        """Explore every pipeline path under a symbolic packet; classify terminal paths."""
        started = clock()
        statistics = MonolithicStatistics()
        counterexamples: List[Counterexample] = []
        verdict = Verdict.PROVED
        notes: List[str] = []
        deadline = (
            started + self.options.max_seconds if self.options.max_seconds is not None else None
        )
        engine = SymbolicEngine(self.options)
        queries = engine.checker.query_cache.statistics
        queries_before = dataclasses.replace(queries)

        terminal_paths: List[Tuple[Element, PathState, List[str]]] = []

        def explore(element: Element, packet: SymbolicPacket, constraints, metadata, trail: List[str]) -> None:
            if deadline is not None and clock() > deadline:
                raise PathExplosionError(
                    f"monolithic exploration exceeded {self.options.max_seconds} seconds"
                )
            states = engine.execute_program(
                element.program,
                packet,
                tables=element.state.tables(),
                element_name=element.name,
                initial_constraints=constraints,
                initial_metadata=metadata,
            )
            for state in states:
                new_trail = trail + [element.name]
                if state.outcome == SegmentOutcome.EMIT:
                    downstream = self.pipeline.downstream(element, state.port or 0)
                    if downstream is None:
                        self._record_terminal(statistics, terminal_paths, element, state, new_trail)
                        continue
                    explore(
                        downstream[0],
                        SymbolicPacket(list(state.packet.bytes)),
                        list(state.constraints),
                        dict(state.metadata),
                        new_trail,
                    )
                else:
                    self._record_terminal(statistics, terminal_paths, element, state, new_trail)

        try:
            explore(self.entry, SymbolicPacket.fresh(input_length), [], {}, [])
            undecided: List[Tuple[Element, PathState]] = []
            for element, state, trail in terminal_paths:
                if len(counterexamples) >= max_counterexamples:
                    break
                if not self._violates(target_property, element, state):
                    continue
                counterexample = self._counterexample(engine, element, state, trail, input_length)
                if counterexample is None:
                    undecided.append((element, state))
                else:
                    counterexamples.append(counterexample)
            if counterexamples:
                verdict = Verdict.VIOLATED
            elif undecided:
                # Kept only because the solver could not refute them: no
                # proof, and no packet to show.
                verdict = Verdict.UNKNOWN
                statistics.budget_exceeded = True
                notes.extend(
                    undecided_note(
                        element.name, state.outcome or "", state.crash_message or state.drop_reason
                    )
                    for element, state in undecided
                )
        except PathExplosionError as exc:
            verdict = Verdict.UNKNOWN
            statistics.budget_exceeded = True
            notes.append(f"did not complete within budget: {exc}")

        statistics.count_solver_checks(engine.solver_checks, memo_hits=engine.checker.memo_hits)
        statistics.count_query_work(queries_before, queries)
        statistics.elapsed_seconds = clock() - started
        return VerificationResult(
            property_name=target_property.describe(),
            pipeline_name=self.pipeline.name,
            verdict=verdict,
            input_lengths=(input_length,),
            counterexamples=counterexamples,
            statistics=statistics,
            notes=notes,
        )

    def _record_terminal(
        self,
        statistics: MonolithicStatistics,
        terminal_paths: List[Tuple[Element, PathState, List[str]]],
        element: Element,
        state: PathState,
        trail: List[str],
    ) -> None:
        """Count one complete pipeline path (the ``2^(k*n)`` quantity of §3)."""
        statistics.pipeline_paths_explored += 1
        if statistics.pipeline_paths_explored > self.options.max_paths:
            raise PathExplosionError(
                f"monolithic exploration exceeded {self.options.max_paths} pipeline paths"
            )
        terminal_paths.append((element, state, trail))

    @staticmethod
    def _violates(target_property: Property, element: Element, state: PathState) -> bool:
        if isinstance(target_property, CrashFreedom):
            return state.outcome == SegmentOutcome.CRASH
        # Generic fallback: reuse the property's per-segment classification on a
        # pseudo-segment built from the terminal state.
        from ..symbex.segment import summarize_path

        return target_property.is_suspect(element.name, summarize_path(element.name, 0, state))

    def _counterexample(
        self,
        engine: SymbolicEngine,
        element: Element,
        state: PathState,
        trail: List[str],
        input_length: int,
    ) -> Optional[Counterexample]:
        """The packet that drives ``state``'s path; ``None`` when the solver cannot find one."""
        status, model = engine.checker.check(state.constraints, need_model=True)
        if status != smt.CheckResult.SAT or model is None:
            return None
        data = bytearray(input_length)
        for index in range(input_length):
            data[index] = int(model.get(f"in_b{index}", 0)) & 0xFF
        return Counterexample(
            packet=bytes(data),
            element_path=trail,
            violating_element=element.name,
            violation_kind=state.outcome or "",
            detail=state.crash_message or state.drop_reason,
        )

    def count_paths(self, input_length: int = 64) -> int:
        """Explore and return the number of whole-pipeline paths (for the scaling benches)."""
        result = self.verify(CrashFreedom(), input_length=input_length)
        explored = result.statistics
        return getattr(explored, "pipeline_paths_explored", 0)
